"""Word algebra for free and surface groups.

Group elements are words over a fixed generating set, encoded as tuples of
signed 1-based generator indices: ``+i`` is the i-th generator, ``-i`` its
inverse.  The spectrum build works on code matrices instead: rows of letter
codes, generator i as 2(i-1) and its inverse as 2(i-1)+1, so ``c ^ 1``
inverts a code and code order is the letter order a1 < a1^-1 < a2 < ...

One array closure names every conjugacy class the build meets
(``canonical_class``).  A class is read from its shortest cyclic spellings,
which half-relator swaps connect: closed under swaps, a class's spellings
at its least length are one component, the class is a proper power
exactly when that component holds a periodic row, and the inverse class's
spellings are the least rotations of the inverted rows.  A primitive class
is named by its least spelling in code order; a k-th power by k copies of
its root's name, which is how the build writes powers.  The same rules
hold on free presets, where a class has one cyclically reduced spelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Word = tuple[int, ...]


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


def _letter_key(letter: int) -> int:
    # fixed total order a1 < a1^-1 < a2 < a2^-1 < ...
    return 2 * letter if letter > 0 else 2 * (-letter) + 1


def word_sort_key(word: Word) -> tuple:
    return (len(word), tuple([_letter_key(l) for l in word]))


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
# Dehn-reduced at 9 letters, yet its class is spelled with 7.


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


def primitive_root(cls: ConjugacyClass, preset: GroupPreset) -> tuple[ConjugacyClass, int]:
    """Smallest root class and the power k with root^k conjugate to cls.

    A canonical power repeats its root's name, so the root is read off the
    word on every preset.

    >>> P = free_group(2)
    >>> root, k = primitive_root(ConjugacyClass((1, 2, 1, 2), (-1, -2, -1, -2)), P)
    >>> root.canonical, root.inverse_canonical, k
    ((1, 2), (-1, -2), 2)
    """
    n = len(cls.canonical)
    p = rotation_period(cls.canonical)
    if p == n:
        return cls, 1
    return ConjugacyClass(cls.canonical[:p], cls.inverse_canonical[:p]), n // p


# ---------------------------------------------------------------------------
# classes of code rows


def _least_rotation(block: np.ndarray) -> np.ndarray:
    """The least rotation of each row of a (rows x n) code block, in code order."""
    least = block.copy()
    at = np.arange(len(block))
    for shift in range(1, block.shape[1]):
        rotated = np.roll(block, -shift, axis=1)
        first = (rotated != least).argmax(axis=1)  # 0 where they are equal
        less = rotated[at, first] < least[at, first]
        least[less] = rotated[less]
    return least


def _row_keys(block: np.ndarray) -> np.ndarray:
    """One bytes key per row of a (rows x n) int8 block of codes >= 0; keys sort as rows do."""
    return np.ascontiguousarray(block).view(np.dtype((np.void, block.shape[1]))).ravel()


def _periodic(block: np.ndarray) -> np.ndarray:
    """Rows equal to a proper rotation of themselves: the repetition of a shorter block."""
    n = block.shape[1]
    periodic = np.zeros(len(block), dtype=bool)
    for d in range(1, n):
        if n % d == 0:
            periodic |= (np.roll(block, -d, axis=1) == block).all(axis=1)
    return periodic


@lru_cache(maxsize=None)
def _half_swap_table(preset: GroupPreset) -> tuple[np.ndarray, np.ndarray]:
    """``_half_replacements`` in codes: the half windows packed base 2 x rank, first
    letter most significant, in increasing order, and their replacement rows."""
    def codes(word: Word) -> list[int]:
        return [_letter_key(letter) - 2 for letter in word]

    table = _half_replacements(preset)
    windows = np.array([codes(w) for w in table], dtype=np.int64).reshape(len(table), -1)
    packed = windows @ (2 * preset.rank) ** np.arange(windows.shape[1] - 1, -1, -1)
    order = np.argsort(packed)
    return packed[order], np.array([codes(table[w]) for w in table], dtype=np.int8)[order]


def _swap_closure(seeds: np.ndarray, preset: GroupPreset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row half-relator swaps reach from ``seeds``, distinct least rotations of
    one length n, in breadth-first rounds.

    A round finds each frontier row's half windows, cyclically, by lookup
    in ``_half_swap_table``, swaps each for the inverse of the other half
    and least-rotates the result.  A swap whose new junctions cancel
    shortens the word: it is not kept, and its row is marked.  Rows not seen
    before make the next frontier.  Returns the rows in code order, the
    swaps as (2 x swaps) row indices into them, and the marked rows.
    """
    n = seeds.shape[1]
    half = len(preset.relator) // 2
    rows, keys, frontier = [seeds], _row_keys(seeds), seeds
    edges, shortened = [np.empty((2, 0), dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    if half and n >= half:
        windows, replacements = _half_swap_table(preset)
        weights = (2 * preset.rank) ** np.arange(half - 1, -1, -1)
        while len(frontier):
            first = len(keys) - len(frontier)
            ring = np.concatenate([frontier, frontier[:, : half - 1]], axis=1)
            packed = np.lib.stride_tricks.sliding_window_view(ring, half, axis=1).astype(np.int64) @ weights
            at = np.searchsorted(windows, packed).clip(max=len(windows) - 1)
            row, start = np.nonzero(windows[at] == packed)
            rotated = frontier[row[:, None], (start[:, None] + np.arange(n)) % n]
            swapped = np.concatenate([replacements[at[row, start]], rotated[:, half:]], axis=1)
            kept = (swapped[:, half - 1] != swapped[:, half % n] ^ 1) & (swapped[:, -1] != swapped[:, 0] ^ 1)
            shortened.append(first + row[~kept])
            swapped = _least_rotation(swapped[kept])
            found, index, inverse = np.unique(_row_keys(swapped), return_index=True, return_inverse=True)
            sorter = np.argsort(keys)
            pos = sorter[np.searchsorted(keys, found, sorter=sorter).clip(max=len(keys) - 1)]
            fresh = keys[pos] != found
            pos[fresh] = len(keys) + np.arange(fresh.sum())
            edges.append(np.stack([first + row[kept], pos[inverse]]))
            frontier = swapped[index[fresh]]
            rows.append(frontier)
            keys = np.concatenate([keys, found[fresh]])
    order = np.argsort(keys)
    rank = np.argsort(order)
    return np.concatenate(rows)[order], rank[np.concatenate(edges, axis=1)], rank[np.concatenate(shortened)]


def _least_in_component(rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Each row's least row index in its component: min-label propagation with pointer jumps."""
    label = np.arange(len(rows))
    a, b = edges
    while True:
        new = label.copy()
        np.minimum.at(new, a, label[b])
        np.minimum.at(new, b, label[a])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _ranks(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's rank among the distinct rows of ``block`` in code order, and the
    first row of each rank."""
    _, first, rank = np.unique(_row_keys(block), return_index=True, return_inverse=True)
    return rank, first


def _least_per_label(values: np.ndarray, label: np.ndarray) -> np.ndarray:
    """The least of ``values`` over each label, at the label's index (the largest value elsewhere)."""
    least = np.full(len(label), values.max(initial=0))
    np.minimum.at(least, label, values)
    return least


def _named_pairs(seeds: np.ndarray, preset: GroupPreset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``canonical_class`` on distinct least rotations of one length."""
    rows, edges, shortened = _swap_closure(seeds, preset)
    label = _least_in_component(rows, edges)
    dropped = np.zeros(len(rows), dtype=bool)
    dropped[label[shortened]] = True
    dropped[label[_periodic(rows)]] = True
    inverted = _least_rotation(rows[:, ::-1] ^ 1)
    rank, first = _ranks(inverted)
    inverse = inverted[first[_least_per_label(rank, label)]]
    # the length rule: least rotations in generator-first order, a1 < b1 < ... < a1^-1 < ...
    both = np.concatenate([rows, inverted])
    rank, _ = _ranks(_least_rotation((both >> 1) + preset.rank * (both & 1)))
    forward = _least_per_label(rank[: len(rows)], label) < _least_per_label(rank[len(rows) :], label)
    names = np.flatnonzero((label == np.arange(len(rows))) & ~dropped)
    # a pair whose inverse class is named here too is kept once, at its lesser name
    keys = _row_keys(rows)
    at = np.searchsorted(keys, _row_keys(inverse[names])).clip(max=len(rows) - 1)
    twin = (keys[at] == _row_keys(inverse[names])) & ~dropped[at]
    names = names[~twin | (names < at)]
    return rows[names], inverse[names], forward[names]


def canonical_class(codes: np.ndarray, preset: GroupPreset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Name the primitive classes of the code rows ``codes``, one per inverse pair.

    ``codes`` is a -1-padded int8 matrix of distinct least rotations of
    cyclically reduced words free of Dehn's overlong relator windows: the
    walk's survivors, which are Dehn-reduced necklaces.  Each
    word length is closed on its own under half-relator swaps
    (``_swap_closure``), and the closure's components are found by min-label
    propagation (``_least_in_component``).  A component is dropped when a
    swap shortens one of its rows, as its class is spelled shorter, or when
    it holds a periodic row, as its class is a proper power, built from its
    root.  A kept component is a primitive class's shortest spellings: its
    least row is the class's name, and the least inverted row the inverse
    class's.

    The drop rests on one fact of the rows given: each class met has a
    shortest spelling among them.  The build's survivors hold every
    shortest spelling of every class at octagon Lmax 9.5 and 12, pants
    (1.9, 2.1, 2.4) at 12 and (2, 2, 2) at 16, and the capped torus at 12;
    a test holds this closure to the per-word one there.

    Returns, per pair, the name and the inverse name as -1-padded rows, and
    ``forward``: True where the named orientation sets the pair's length,
    its shortest spellings holding the least rotation in generator-first
    order (a1 < b1 < a2 < ... < a1^-1 < b1^-1 < ...).  The traces of the two
    orientations can differ in the last bit, and tied lengths sort by it, so
    the rule is one of the class, not of the order rows are met in.
    """
    word_len = (codes >= 0).sum(axis=1)
    width = int(word_len.max(initial=0))
    names = np.empty((0, width), dtype=np.int8)
    inverses, forward = names, np.empty(0, dtype=bool)
    for n in sorted(set(word_len.tolist())):
        name, inverse, ahead = _named_pairs(codes[word_len == n, :n], preset)
        pad = np.full((len(name), width - n), -1, dtype=np.int8)
        names = np.concatenate([names, np.concatenate([name, pad], axis=1)])
        inverses = np.concatenate([inverses, np.concatenate([inverse, pad], axis=1)])
        forward = np.concatenate([forward, ahead])
    return names, inverses, forward
