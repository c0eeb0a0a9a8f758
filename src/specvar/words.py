"""Word algebra for free and surface groups.

Group elements are words over a fixed generating set, encoded as tuples of
signed 1-based generator indices: ``+i`` is the i-th generator, ``-i`` its
inverse.  Conjugacy classes of cyclically reduced words are put into a
canonical form (lexicographically minimal rotation, after Dehn reduction for
surface groups) so that classes can be deduplicated by equality.

Every rule about a class is read from its shortest cyclic spellings, all
found by one closure (``shortest_spellings``): the class is a proper power
exactly when one spelling is periodic, its root is spelled by that
spelling's period block, and the inverse class's spellings are the
min-rotations of the inverted ones.  A k-th power is named by k copies of
its root's name (``ConjugacyClass.power``).  The same rules hold on free
and surface presets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

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

# Dehn's algorithm replaces every subword longer than half the relator by
# the shorter rest of the relator.  That decides whether a word is trivial,
# but the cyclic word it leaves need not be a shortest spelling of its
# class: swapping a subword of exactly half the relator against the inverse
# of the complementary half keeps the length, and can expose a longer
# subword.  The octagon survivor (-1, -2, -1, 4, 3, 3, -4, -3, 2) is
# Dehn-reduced at 9 letters, yet its class is spelled with 7.  The closure
# under half swaps therefore restarts from the shorter word whenever a swap
# exposes one; it ends with every shortest spelling of the class.


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

    ``canonical`` is the lexicographically minimal shortest cyclic spelling
    of a primitive class and the k-fold repetition of its root's for a k-th
    power; ``inverse_canonical`` is the canonical form of the inverse class,
    so the non-oriented class is the unordered pair of the two.
    """

    canonical: Word
    inverse_canonical: Word

    def power(self, k: int) -> ConjugacyClass:
        """The k-th power of a primitive class: k copies of each name."""
        return ConjugacyClass(self.canonical * k, self.inverse_canonical * k)


@lru_cache(maxsize=64)
def shortest_spellings(word: Word, preset: GroupPreset) -> frozenset[Word]:
    """Every shortest cyclic spelling of the class of ``word``, as min-rotations.

    A free group has one, a surface group the half-swap closure; the
    identity has none.  The class's power structure and its name are read
    from this one set (``root_spelling``, ``canonical_class``).  Recent sets
    are kept, so a caller that reads a word's spellings and then its
    ``canonical_class`` builds one closure.
    """
    w = dehn_cyclic_reduce(word, preset)
    if not w:
        return frozenset()
    if preset.kind == "free":
        return frozenset({min_rotation(w)})
    return frozenset(_half_swap_closure(w, preset))


def inverse_spellings(spellings: Iterable[Word]) -> set[Word]:
    """Shortest spellings of the inverse class: the inverted ones, min-rotated."""
    return {min_rotation(invert_word(w)) for w in spellings}


def root_spelling(spellings: Iterable[Word]) -> tuple[Word, int]:
    """Root spelling and power k of a class, from its shortest spellings.

    A class is a proper power exactly when one of its shortest spellings is
    periodic; that spelling's period block spells the root, and the least
    period gives the largest k (k = 1 for a primitive class).

    >>> root_spelling({(1, 2, 1, 2)})
    ((1, 2), 2)
    """
    period, word = min((rotation_period(w), w) for w in spellings)
    return word[:period], len(word) // period


def canonical_class(word: Word, preset: GroupPreset) -> ConjugacyClass:
    """Canonical form of the conjugacy class of ``word``.

    One closure of shortest spellings decides a primitive class, named by
    its least spelling and the least inverse spelling; a proper power takes
    a second closure, of its root.  Raises TrivialElementError if the word
    represents the identity.

    The least shortest spelling of a power need not be periodic: half-relator
    swaps mix spellings of the root, as in the square of a1^-1 b1^-1 a2 b1.

    >>> G = surface_group(2)
    >>> cls = canonical_class((-1, -2, 3, 2) * 2, G)
    >>> min(shortest_spellings(cls.canonical, G), key=word_sort_key)
    (-1, -2, 3, -1, 4, 3, -4, 2)
    >>> root, k = primitive_root(cls, G)
    >>> root.canonical, k
    ((-1, -2, 3, 2), 2)
    """
    spellings = shortest_spellings(word, preset)
    if not spellings:
        raise TrivialElementError(f"word {word!r} reduces to the identity")
    root, k = root_spelling(spellings)
    if k > 1:
        spellings = shortest_spellings(root, preset)
    names = (min(s, key=word_sort_key) for s in (spellings, inverse_spellings(spellings)))
    return ConjugacyClass(*names).power(k)


def primitive_root(cls: ConjugacyClass, preset: GroupPreset) -> tuple[ConjugacyClass, int]:
    """Smallest root class and the power k with root^k conjugate to cls.

    A canonical power repeats its root's name (``ConjugacyClass.power``),
    so the root is read off the word on every preset.

    >>> P = free_group(2)
    >>> root, k = primitive_root(canonical_class((1, 2, 1, 2), P), P)
    >>> root.canonical, k
    ((1, 2), 2)
    """
    n = len(cls.canonical)
    p = rotation_period(cls.canonical)
    if p == n:
        return cls, 1
    return ConjugacyClass(cls.canonical[:p], cls.inverse_canonical[:p]), n // p
