"""Word algebra for free and surface groups.

Group elements are words over a fixed generating set, encoded as tuples of
signed 1-based generator indices: ``+i`` is the i-th generator, ``-i`` its
inverse.  Conjugacy classes of cyclically reduced words are put into a
canonical form (lexicographically minimal rotation, after Dehn reduction for
surface groups) so that classes can be deduplicated by equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

Word = tuple[int, ...]


class TrivialElementError(ValueError):
    """Raised when an operation needs a nontrivial group element."""


@dataclass(frozen=True)
class GroupPreset:
    """A finitely presented group: free of given rank, or a surface group.

    For surface groups the single relator is the product of commutators
    [a1,b1]...[ag,bg], so generators come in pairs and the relator has
    length 4g.
    """

    kind: str  # "free" | "surface"
    rank: int  # number of generators
    relator: Word = ()

    def __post_init__(self) -> None:
        if self.kind not in ("free", "surface"):
            raise ValueError(f"unknown preset kind {self.kind!r}")
        if self.kind == "free":
            if self.relator:
                raise ValueError("free preset must not carry a relator")
        else:
            if len(self.relator) != 2 * self.rank or self.rank % 2:
                raise ValueError("surface relator must be [a1,b1]...[ag,bg]")
            if cyclic_reduce(reduce_word(self.relator)) != self.relator:
                raise ValueError("relator must be cyclically reduced")


def free_group(rank: int) -> GroupPreset:
    if rank < 1:
        raise ValueError("rank must be positive")
    return GroupPreset("free", rank)


def surface_group(genus: int) -> GroupPreset:
    """Genus-g surface group <a1,b1,..,ag,bg | [a1,b1]...[ag,bg]>."""
    if genus < 1:
        raise ValueError("genus must be positive")
    relator: list[int] = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        relator += [a, b, -a, -b]
    return GroupPreset("surface", 2 * genus, tuple(relator))


# ---------------------------------------------------------------------------
# elementary word operations


def reduce_word(word: Word) -> Word:
    """Freely reduce: cancel adjacent x x^-1 pairs.

    >>> reduce_word((1, 2, -2, 1))
    (1, 1)
    >>> reduce_word((1, -1))
    ()
    """
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("letter 0 is not a generator index")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word: Word) -> Word:
    """Inverse word: reversed letters with flipped signs.

    >>> invert_word((1, 2, -3))
    (3, -2, -1)
    """
    return tuple(-letter for letter in reversed(word))


def cyclic_reduce(word: Word) -> Word:
    """Strip conjugating prefix/suffix pairs from a freely reduced word.

    >>> cyclic_reduce(reduce_word((-2, 1, 2)))
    (1,)
    """
    w = list(word)
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def concat(*parts: Word) -> Word:
    """Freely reduced concatenation."""
    out: Word = ()
    for part in parts:
        out = reduce_word(out + part)
    return out


def word_power(word: Word, k: int) -> Word:
    if k < 0:
        return word_power(invert_word(word), -k)
    return concat(*([word] * k)) if k else ()


def abelianize(word: Word, preset: GroupPreset) -> tuple[int, ...]:
    """Exponent-sum vector in Z^rank.

    Well defined on surface groups because the relator is a product of
    commutators and abelianizes to zero.

    >>> abelianize((1, 1, -2), free_group(2))
    (2, -1)
    """
    vec = [0] * preset.rank
    for letter in word:
        if abs(letter) > preset.rank:
            raise ValueError(f"letter {letter} out of range for rank {preset.rank}")
        vec[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(vec)


def _letter_key(letter: int) -> int:
    # fixed total order a1 < a1^-1 < a2 < a2^-1 < ...
    return 2 * letter if letter > 0 else 2 * (-letter) + 1


def word_sort_key(word: Word) -> tuple:
    return (len(word), tuple([_letter_key(l) for l in word]))


def min_rotation(word: Word) -> Word:
    """Lexicographically minimal rotation under the fixed letter order.

    >>> min_rotation((-1, 2, 1))
    (1, -1, 2)
    >>> min_rotation((2, 1, 2, 1))
    (1, 2, 1, 2)
    """
    n = len(word)
    if n < 2:
        return word
    # letter keys once; each rotation is a slice of the doubled key list
    keys = [_letter_key(l) for l in word] * 2
    start = min(range(n), key=lambda i: keys[i : i + n])
    return word[start:] + word[:start]


def rotation_period(word: Word) -> int:
    """Smallest p with word equal to the repetition of its first p letters."""
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[:p] * (n // p):
            return p
    return n


# ---------------------------------------------------------------------------
# Dehn reduction for surface groups

# A cyclically reduced word in a surface group is a shortest representative
# of its element iff it contains no subword longer than half the relator
# (Dehn's algorithm).  Shortest words that contain exactly half the relator
# are not unique; equal elements are then connected by swapping the half
# against the inverse of the complementary half.


@lru_cache(maxsize=None)
def _relator_forms(preset: GroupPreset) -> tuple[Word, ...]:
    # all cyclic rotations of the relator and of its inverse
    forms = set()
    for base in (preset.relator, invert_word(preset.relator)):
        for i in range(len(base)):
            forms.add(base[i:] + base[:i])
    return tuple(sorted(forms, key=word_sort_key))


@lru_cache(maxsize=None)
def _overlong_replacements(preset: GroupPreset) -> dict[Word, Word]:
    # prefix of length half+1 -> inverse of the complementary part
    half = len(preset.relator) // 2
    table: dict[Word, Word] = {}
    for form in _relator_forms(preset):
        table[form[: half + 1]] = invert_word(form[half + 1 :])
    return table


@lru_cache(maxsize=None)
def _half_replacements(preset: GroupPreset) -> dict[Word, Word]:
    # prefix of length exactly half -> inverse of the complementary half
    half = len(preset.relator) // 2
    table: dict[Word, Word] = {}
    for form in _relator_forms(preset):
        table[form[:half]] = invert_word(form[half:])
    return table


def _cyclic_window(word: Word, start: int, length: int) -> Word:
    doubled = word + word
    return doubled[start : start + length]


def dehn_cyclic_reduce(word: Word, preset: GroupPreset) -> Word:
    """Shorten a cyclic word until no subword exceeds half the relator."""
    w = cyclic_reduce(reduce_word(word))
    if preset.kind == "free":
        return w
    half = len(preset.relator) // 2
    table = _overlong_replacements(preset)
    changed = True
    while changed and w:
        changed = False
        if len(w) < half + 1:
            break
        for start in range(len(w)):
            window = _cyclic_window(w, start, half + 1)
            if len(window) < half + 1:
                continue
            repl = table.get(window)
            if repl is not None:
                rotated = w[start:] + w[:start]
                w = cyclic_reduce(reduce_word(repl + rotated[half + 1 :]))
                changed = True
                break
    return w


def _half_swap_closure(word: Word, preset: GroupPreset) -> set[Word]:
    """All cyclic words reachable by half-relator swaps, as min-rotations.

    Each swap replaces a subword equal to half a relator form by the inverse
    of the complementary half; the word length is preserved and the element
    is unchanged.  The closure is the full set of shortest cyclic spellings
    of the conjugacy class.
    """
    table = _half_replacements(preset)
    half = len(preset.relator) // 2
    first = min_rotation(word)
    seen = {first}
    frontier = [first]
    while frontier:
        w = frontier.pop()
        if len(w) < half:
            continue
        for start in range(len(w)):
            window = _cyclic_window(w, start, half)
            repl = table.get(window)
            if repl is None:
                continue
            rotated = w[start:] + w[:start]
            swapped = cyclic_reduce(reduce_word(repl + rotated[half:]))
            if len(swapped) < len(w):
                # swap exposed a shorter spelling; restart from it
                return _half_swap_closure(dehn_cyclic_reduce(swapped, preset), preset)
            key = min_rotation(swapped)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return seen


@dataclass(frozen=True)
class ConjugacyClass:
    """Canonical representative of an oriented conjugacy class.

    ``canonical`` is the lexicographically minimal shortest cyclic spelling;
    ``inverse_canonical`` is the canonical form of the inverse class, so the
    non-oriented class is the unordered pair of the two.
    """

    canonical: Word
    inverse_canonical: Word

    @property
    def is_inverse_self(self) -> bool:
        return self.canonical == self.inverse_canonical


def shortest_spellings(word: Word, preset: GroupPreset) -> set[Word]:
    """Every shortest cyclic spelling of the class of ``word``, as min-rotations.

    A free group has one, a surface group the half-swap closure; the
    identity has none.
    """
    w = dehn_cyclic_reduce(word, preset)
    if not w:
        return set()
    if preset.kind == "free":
        return {min_rotation(w)}
    return _half_swap_closure(w, preset)


def _canonical_word(word: Word, preset: GroupPreset) -> Word:
    spellings = shortest_spellings(word, preset)
    return min(spellings, key=word_sort_key) if spellings else ()


def _class_word(word: Word, preset: GroupPreset) -> Word:
    # canonical spelling; powers are normalized to repetitions of the root's
    # canonical spelling so word-level periodicity reflects power structure
    w = _canonical_word(word, preset)
    if not w:
        return ()
    root, k = _root_of_canonical(w, preset)
    if k > 1:
        w = min_rotation(root * k)
    return w


def canonical_class(word: Word, preset: GroupPreset) -> ConjugacyClass:
    """Canonical form of the conjugacy class of ``word``.

    Raises TrivialElementError if the word represents the identity.
    """
    w = _class_word(word, preset)
    if not w:
        raise TrivialElementError(f"word {word!r} reduces to the identity")
    inv = _class_word(invert_word(w), preset)
    return ConjugacyClass(w, inv)


def _root_of_canonical(w: Word, preset: GroupPreset) -> tuple[Word, int]:
    """Primitive root word and power of a canonical cyclic word."""
    n = len(w)
    if preset.kind == "free":
        p = rotation_period(w)
        return w[:p], n // p
    # Surface group: a shortest spelling of a proper power need not be
    # periodic (half-relator swaps can mix spellings of the root), so probe
    # every rotation prefix whose repetition lands in the same class.  The
    # homology of a k-th power is divisible by k, which rules out most k
    # without touching the expensive canonical form.  A class word of a
    # power is normalized to min_rotation(root^k), which need not be its
    # least shortest spelling, so candidates are compared with the latter.
    hom = abelianize(w, preset)
    target = None
    for k in sorted((k for k in range(2, n + 1) if n % k == 0), reverse=True):
        if any(h % k for h in hom):
            continue
        if target is None:
            target = _canonical_word(w, preset)
        p = n // k
        for start in range(n):
            candidate = _cyclic_window(w, start, p)
            if len(reduce_word(candidate)) != p:
                continue
            if _canonical_word(candidate * k, preset) == target:
                return _canonical_word(candidate, preset), k
    return w, 1


def primitive_root(cls: ConjugacyClass, preset: GroupPreset) -> tuple[ConjugacyClass, int]:
    """Smallest root class and the power k with root^k conjugate to cls.

    >>> P = free_group(2)
    >>> root, k = primitive_root(canonical_class((1, 2, 1, 2), P), P)
    >>> root.canonical, k
    ((1, 2), 2)
    """
    root_word, k = _root_of_canonical(cls.canonical, preset)
    if k == 1:
        return cls, 1
    return canonical_class(root_word, preset), k
