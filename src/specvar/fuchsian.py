"""Hyperbolic surface presets, holonomy, and length-spectrum enumeration.

All presets have constant curvature -1 and holonomy in SL(2, R).  A closed
geodesic corresponds to a conjugacy class of hyperbolic elements; its length
comes from the trace, ell = 2*arccosh(|tr|/2), and the linearized Poincare
return map P contributes the weight |det(I - P)| = 4*sinh^2(ell/2).

Enumeration grows prenecklaces letter by letter with vectorized matrix
products, by the Fredricksen-Kessler-Maiorana rule over the canonical letter
order (a1 < a1^-1 < a2 < ...), so every cyclic spelling is built once, as
its least rotation.  The octagon's tree is walked depth first in blocks and
pruned by orbit displacement:
every class with ell <= Lmax has a cyclically reduced spelling whose
prefixes all move the base point by at most ell + 2R (R = circumradius of
the fundamental octagon), because the spelling can be read off the tiles
crossed by the axis; its rotations start at other crossings, so its least
rotation qualifies too.  Pruned shells therefore empty out on their own and
the last nonempty shell is the completeness certificate.  Such a spelling
holds no window of Dehn's relator table, even around its end, so the
survivors are Dehn-reduced necklaces.  Free presets use plain cyclically
reduced enumeration with an empirical minimum-length margin.

The survivors are turned into classes with one closure of shortest
spellings per inversion pair: a survivor already in a closure is skipped,
a closure holding a periodic spelling is a proper power, whose records
are made from its root, and a primitive pair is named by
``canonical_class`` from that same closure (the ``words`` rules).  A
primitive length is taken from one trace per inversion pair, chosen from
that closure by a rule of the class (``_trace_spelling``), so its bits do
not depend on the order in which the enumeration meets the class; the
one length cut, at the certified length, is made on it.

A spectrum is cached as a format-2 CSV whose rows name their inverse rows.
Loading rebuilds each conjugacy class from its word and its partner's word
without canonicalising either; instead it checks every row against the
invariants a build guarantees and against the length of its word's
holonomy trace, and refuses a file that fails (``load_spectrum``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import Refused
from .report import _atomic_write
from .words import (
    ConjugacyClass,
    GroupPreset,
    Word,
    _overlong_replacements,
    abelianize,
    canonical_class,
    cyclic_reduce,
    free_group,
    inverse_spellings,
    invert_word,
    min_rotation,
    reduce_word,
    root_spelling,
    shortest_spellings,
    surface_group,
    word_sort_key,
)

SPECTRUM_FORMAT_VERSION = 2


class InvalidParameters(Refused):
    """Raised for preset parameters outside their domain."""


class NonHyperbolicElement(Refused):
    """Raised when a trace belongs to an elliptic or parabolic element."""


class IncompleteEnumeration(Refused):
    """Raised when the word-length bound cannot certify coverage of Lmax."""


# ---------------------------------------------------------------------------
# groups and basic hyperbolic geometry


@dataclass(frozen=True, eq=False)
class FuchsianGroup:
    """A finitely generated Fuchsian group given by generator matrices.

    ``generators`` has shape (rank, 2, 2).  ``group`` carries the word
    algebra (free or surface presentation).  ``warning`` is set for the
    non-compact preset whose cusp words are parabolic.
    """

    name: str
    generators: np.ndarray
    group: GroupPreset
    cocompact: bool
    params: tuple[float, ...] = ()
    warning: str | None = None

    @property
    def rank(self) -> int:
        return self.group.rank

    def generator_array(self) -> np.ndarray:
        """Matrices by letter code: generator i at 2(i-1), its inverse at 2(i-1)+1."""
        out = np.empty((2 * self.rank, 2, 2))
        out[0::2] = self.generators
        # SL(2) inverse: [[d, -b], [-c, a]]
        g = self.generators
        out[1::2, 0, 0] = g[:, 1, 1]
        out[1::2, 0, 1] = -g[:, 0, 1]
        out[1::2, 1, 0] = -g[:, 1, 0]
        out[1::2, 1, 1] = g[:, 0, 0]
        return out


def holonomies(group: FuchsianGroup, words: Sequence[Word]) -> np.ndarray:
    """Holonomy matrices of many words, shape (len(words), 2, 2).

    Words are grouped by length and multiplied left to right from the
    identity with batched ``@``, which gives the same bits as multiplying
    one word at a time.  Raises InvalidParameters for a letter outside the
    group's rank.
    """
    mats = group.generator_array()
    out = np.empty((len(words), 2, 2))
    by_length: dict[int, list[int]] = {}
    for i, word in enumerate(words):
        by_length.setdefault(len(word), []).append(i)
    for n, idx in by_length.items():
        codes = _letter_codes(np.array([words[i] for i in idx], dtype=np.int64))
        if codes.size and (codes.min() < 0 or codes.max() >= len(mats)):
            raise InvalidParameters(f"word letter out of range for rank {group.rank}")
        prod = np.broadcast_to(np.eye(2), (len(idx), 2, 2))
        for j in range(n):
            prod = prod @ mats[codes[:, j]]
        out[idx] = prod
    return out


def length_of(trace: float) -> float:
    """Geodesic length from a holonomy trace, ell = 2*arccosh(|tr|/2)."""
    t = abs(float(trace))
    if t <= 2.0:
        raise NonHyperbolicElement(f"|trace| = {t} <= 2 is not hyperbolic")
    return 2.0 * math.acosh(t / 2.0)


def log_poincare_det(ell: float) -> float:
    """log(4*sinh^2(ell/2)) = ell + 2*log(1 - e^-ell), stable for large ell."""
    if ell <= 0:
        raise InvalidParameters(f"geodesic length must be positive, got {ell}")
    return ell + 2.0 * math.log1p(-math.exp(-ell))


# ---------------------------------------------------------------------------
# presets


def _schottky_pants(l1: float, l2: float, l3: float) -> FuchsianGroup:
    """Free rank-2 Schottky group uniformizing a pair of pants.

    The generators X, Y and (XY)^-1 are the three boundary geodesics with
    lengths l1, l2, l3: tr X = 2 cosh(l1/2), tr Y = 2 cosh(l2/2) and
    tr XY = -2 cosh(l3/2), the standard trace-triple normal form.
    """
    if min(l1, l2, l3) <= 0:
        raise InvalidParameters("boundary lengths must be positive")
    a, b = math.cosh(l1 / 2), math.sinh(l1 / 2)
    c, d = math.cosh(l2 / 2), math.sinh(l2 / 2)
    # solve tr XY = -2 cosh(l3/2) with X symmetric, Y conjugate-diagonal
    t = 2.0 * (a * c + math.cosh(l3 / 2)) / (b * d)
    mu = (t + math.sqrt(t * t - 4.0)) / 2.0
    x = np.array([[a, b], [b, a]])
    y = np.array([[c, -d * mu], [-d / mu, c]])
    return FuchsianGroup(
        name="schottky_pants",
        generators=np.array([x, y]),
        group=free_group(2),
        cocompact=False,
        params=(float(l1), float(l2), float(l3)),
    )


# circumradius of the regular octagon with vertex angle pi/4: cosh R = cot^2(pi/8)
_OCTAGON_R = math.acosh(1.0 / math.tan(math.pi / 8) ** 2)


def _octagon_vertices() -> np.ndarray:
    r_eucl = math.tanh(_OCTAGON_R / 2)
    return r_eucl * np.exp(1j * 2 * np.pi * np.arange(9) / 8)


def _disk_segment_to_standard(p: complex, q: complex) -> np.ndarray:
    # SU(1,1)-type isometry of the disk taking p to 0 and q onto the
    # positive real axis
    s = 1.0 / math.sqrt(1 - abs(p) ** 2)
    move = np.array([[s, -s * p], [-s * np.conj(p), s]])
    q1 = (move[0, 0] * q + move[0, 1]) / (move[1, 0] * q + move[1, 1])
    phi = -np.angle(q1)
    turn = np.array([[np.exp(1j * phi / 2), 0], [0, np.exp(-1j * phi / 2)]])
    return turn @ move


def _octagon_genus2() -> FuchsianGroup:
    """Regular-octagon genus-2 surface group, relator [a1,b1][a2,b2] = I.

    Sides s_j run counterclockwise from vertex j to vertex j+1.  Each
    generator glues side src, traversed forward, onto side dst traversed
    backward; the orientation reversal is what maps the octagon off itself.
    The (src, dst) assignment below is the labeling for which the boundary
    word equals the commutator relator.
    """
    v = _octagon_vertices()
    cayley = np.array([[1.0, -1j], [1.0, 1j]])
    cayley_inv = np.linalg.inv(cayley)
    gens = []
    for src, dst in ((2, 0), (1, 3), (6, 4), (5, 7)):
        fwd = _disk_segment_to_standard(v[src], v[src + 1])
        back = _disk_segment_to_standard(v[dst + 1], v[dst])
        g_disk = np.linalg.inv(back) @ fwd
        g = cayley_inv @ g_disk @ cayley
        g = g / np.sqrt(np.linalg.det(g) + 0j)
        if abs(g.imag).max() > 1e-10:
            raise RuntimeError("octagon side pairing failed to be real")
        gens.append(g.real)
    return FuchsianGroup(
        name="octagon_genus2",
        generators=np.array(gens),
        group=surface_group(2),
        cocompact=True,
    )


def _punctured_torus() -> FuchsianGroup:
    """Square punctured torus; the commutator is parabolic with trace -2."""
    x = np.array([[1.0, 1.0], [1.0, 2.0]])
    y = np.array([[1.0, -1.0], [-1.0, 2.0]])
    return FuchsianGroup(
        name="punctured_torus",
        generators=np.array([x, y]),
        group=free_group(2),
        cocompact=False,
        warning=(
            "punctured_torus is not co-compact: cusp words are parabolic and "
            "equidistribution constants are not guaranteed"
        ),
    )


def preset(name: str, *params: float) -> FuchsianGroup:
    """Instantiate a surface preset by name.

    ``schottky_pants`` takes three boundary lengths; ``octagon_genus2`` and
    ``punctured_torus`` take no parameters.
    """
    if name == "schottky_pants":
        if len(params) != 3:
            raise InvalidParameters("schottky_pants needs three boundary lengths")
        return _schottky_pants(*params)
    if name == "octagon_genus2":
        if params:
            raise InvalidParameters("octagon_genus2 takes no parameters")
        return _octagon_genus2()
    if name == "punctured_torus":
        if params:
            raise InvalidParameters("punctured_torus takes no parameters")
        return _punctured_torus()
    raise InvalidParameters(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# length spectrum


@dataclass(frozen=True)
class GeodesicRecord:
    """One conjugacy class gamma = (primitive root)^power with ell <= Lmax.

    ``length`` is exactly ``power * primitive_length``; the primitive length
    is extracted once from the root's trace so that power identities hold
    bit-for-bit.  ``homology`` is the abelianized word.
    """

    class_id: int
    cls: ConjugacyClass
    length: float
    primitive_length: float
    power: int
    log_det: float
    homology: tuple[int, ...]

    @property
    def word(self) -> Word:
        return self.cls.canonical


@dataclass(frozen=True, eq=False)
class LengthSpectrum:
    """All conjugacy classes with ell <= l_max, sorted by length.

    Both orientations of every geodesic are records: no hyperbolic class
    of a torsion-free Fuchsian group is its own inverse.  ``certificate``
    records the word-length bound that guarantees completeness and how it
    was obtained.  In capped mode (non-co-compact presets)
    ``certified_l_max`` may fall short of ``l_max``.

    Row i of each numeric column is read from records[i] when the
    spectrum is made.  ``homology`` has shape (n, rank); ``inverse_id`` is
    the class_id of the inverse class's record, or -1 if none is held.
    """

    group: FuchsianGroup
    l_max: float
    records: tuple[GeodesicRecord, ...]
    certificate: dict = field(default_factory=dict)
    length: np.ndarray = field(init=False, repr=False)
    primitive_length: np.ndarray = field(init=False, repr=False)
    log_det: np.ndarray = field(init=False, repr=False)
    power: np.ndarray = field(init=False, repr=False)
    class_id: np.ndarray = field(init=False, repr=False)
    homology: np.ndarray = field(init=False, repr=False)
    inverse_id: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        recs = self.records
        ids = {r.word: r.class_id for r in recs}
        dtypes = {"length": float, "primitive_length": float, "log_det": float}
        columns = {
            name: np.array([getattr(r, name) for r in recs], dtype=dtypes.get(name, np.int64))
            for name in ("length", "primitive_length", "log_det", "power", "class_id", "homology")
        }
        columns["homology"] = columns["homology"].reshape(len(recs), self.group.rank)
        columns["inverse_id"] = np.array(
            [ids.get(r.cls.inverse_canonical, -1) for r in recs], dtype=np.int64
        )
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def certified_l_max(self) -> float:
        return self.certificate.get("certified_l_max", self.l_max)


_BLOCK_ROWS = 1 << 13  # rows per _extend_shell call; bounds its (letters x rows) temporaries


def _letter_codes(letters: np.ndarray) -> np.ndarray:
    # generator i -> 2(i-1), its inverse -> 2(i-1)+1, so code c ^ 1 inverts c
    return 2 * (np.abs(letters) - 1) + (letters < 0)


def _packed(codes: np.ndarray, base: int) -> np.ndarray:
    """Base-``base`` numbers of code rows (the last axis), first letter most significant."""
    return codes.astype(np.int64) @ base ** np.arange(codes.shape[-1] - 1, -1, -1)


def _codes_to_words(block: np.ndarray) -> list[Word]:
    """Signed-letter words of a block of code rows."""
    letters = (block.astype(np.int64) >> 1) + 1
    return [tuple(row) for row in np.where(block & 1, -letters, letters).tolist()]


def _reduced_hyperbolic(words: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """Hyperbolic rows (|trace| ``tr`` above 2) whose last letter is not their first's inverse."""
    return (tr > 2.0 + 1e-9) & (words[:, 0] != words[:, -1] ^ 1)


def _shell_survivors(
    words: np.ndarray, mats: np.ndarray, period: np.ndarray, l_max: float
) -> np.ndarray:
    """Necklace rows that are cyclically reduced and hyperbolic with ell <= l_max."""
    tr = np.abs(mats[:, 0] + mats[:, 3])
    tr_cut = 2.0 * math.cosh(l_max / 2) * (1.0 + 1e-9)  # slack; the build cuts by length
    return _reduced_hyperbolic(words, tr) & (tr <= tr_cut) & (words.shape[1] % period == 0)


def _times(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """2x2 products m @ g of row-major entry rows (last axis 4): four multiply-adds."""
    return m[..., [0, 0, 2, 2]] * g[..., [0, 1, 0, 1]] + m[..., [1, 1, 3, 3]] * g[..., [2, 3, 2, 3]]


def _extend_shell(
    words: np.ndarray, mats: np.ndarray, period: np.ndarray,
    gen_mats: np.ndarray, table: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Append every letter that keeps a row a reduced prenecklace, in one gather.

    FKM rule: a prenecklace w of length t whose longest Lyndon prefix has
    period p extends by c only if c >= w[t-p]; p is kept when c equals
    w[t-p] and becomes t+1 when c is greater.  One (letters x rows) mask
    holds it, the reduced-word rule and, if given, a ``_relator_windows``
    table; the children are gathered from it letter by letter, in row order.
    """
    n_letters = len(gen_mats)
    n, t = words.shape
    ref = words[np.arange(n), t - period]
    letters = np.arange(n_letters, dtype=np.int8)[:, None]
    ok = (words[:, -1] != letters ^ 1) & (ref <= letters)
    if table is not None and t >= 4:
        # the last four letters, packed, pick a table row; a new letter makes a 5-letter window
        ok &= ~table.reshape(-1, n_letters).T[:, _packed(words[:, t - 4 :], n_letters)]
    flat = np.flatnonzero(ok)
    letter, row = np.divmod(flat, n)
    new_words = np.take(np.concatenate([words, words[:, :1]], axis=1), row, axis=0)
    new_words[:, t] = letter  # over the copied first letter
    new_period = np.where(ref == letters, period, t + 1).astype(np.int16).take(flat)
    prods = _times(mats, gen_mats.reshape(n_letters, 1, 4))  # every (letter, row)
    return new_words, np.take(prods.reshape(-1, 4), flat, axis=0), new_period


def _relator_windows(group: GroupPreset, n_letters: int) -> np.ndarray:
    """Dehn's overlong relator windows, 5 letters on genus 2, as a lookup table.

    Entry k is True when the 5-letter window whose ``_packed`` number is k
    is one.  A cyclic word holding one is not Dehn-reduced, and spellings
    read off axis crossings never hold one (a geodesic passes at most half
    way around a vertex), so such rows can be dropped without losing classes.
    """
    keys = np.array(sorted(_overlong_replacements(group)), dtype=np.int64)
    return np.isin(np.arange(n_letters**5), _packed(_letter_codes(keys), n_letters))


def _first_shell(gen_mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-letter rows: every letter is a Lyndon word of period 1."""
    n = len(gen_mats)
    return np.arange(n, dtype=np.int8)[:, None], gen_mats.reshape(n, 4).copy(), np.ones(n, np.int16)


def _enumerate_cocompact(group: FuchsianGroup, l_max: float) -> tuple[list[np.ndarray], dict]:
    """Displacement-pruned necklace tree walk; complete for the octagon preset.

    Prunes rows whose prefix moves the base point farther than
    l_max + 2R + margin, so shells empty out on their own; the certificate
    is the last nonempty shell.  Every rotation of an axis-crossing spelling
    starts at another crossing, so the least rotation of each class's
    crossing spelling passes the cut too, and only necklaces are grown.
    Survivors are Dehn-reduced: no ``_relator_windows`` entry, even around the end.

    A row's subtree depends only on its word, product and period, and every
    test is prefix-closed, so the tree is walked depth first: new rows are
    visited once (counted, survivors kept) and those within the cut pushed
    in blocks of at most ``_BLOCK_ROWS``; the last block pushed is extended
    next.  A depth holds one block's children at most, so live rows stay
    within depth x letters x ``_BLOCK_ROWS`` however wide a shell is.
    Survivors come back as one array per word length, in shell order
    (colexicographic, as breadth-first shells are); ``shell_rows`` sums
    each length's blocks.
    """
    d_cut = l_max + 2 * _OCTAGON_R + 0.5  # a margin of 0.5 over the bound ell + 2R
    norm2_cut = 2.0 * math.cosh(d_cut)  # cosh d(i, g i) = ||g||_F^2 / 2
    gen_mats = group.generator_array()
    table = _relator_windows(group.group, len(gen_mats))
    survivors: list[list[np.ndarray]] = []
    shell_rows: list[int] = []
    stack: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def visit(words: np.ndarray, mats: np.ndarray, period: np.ndarray) -> None:
        if not len(words):
            return
        depth = words.shape[1]
        if depth > len(shell_rows):  # the walk goes one letter deeper at a time
            shell_rows.append(0)
            survivors.append([])
        shell_rows[depth - 1] += len(words)
        rows = words[_shell_survivors(words, mats, period, l_max)]
        if depth >= 5:  # shorter rows repeat a letter, which no window does
            ring = np.concatenate([rows[:, -4:], rows[:, :4]], axis=1)
            windows = np.lib.stride_tricks.sliding_window_view(ring, 5, axis=1)
            rows = rows[~table[_packed(windows, len(gen_mats))].any(axis=1)]
        survivors[depth - 1].append(rows)
        sq = mats * mats  # the squared norm, summed left to right as a row sum does
        within = np.flatnonzero(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3] <= norm2_cut)
        if len(within) and depth >= 64:
            raise IncompleteEnumeration("displacement-pruned shells failed to terminate")
        for lo in range(0, len(within), _BLOCK_ROWS):
            rows_in = within[lo : lo + _BLOCK_ROWS]
            stack.append((words[rows_in], mats[rows_in], period[rows_in]))

    visit(*_first_shell(gen_mats))
    while stack:
        visit(*_extend_shell(*stack.pop(), gen_mats, table))
    survivors = [rows[np.lexsort(rows.T)] for rows in map(np.concatenate, survivors)]  # shell order
    cert = {
        "method": "displacement-pruned necklace shells",
        "word_length_bound": len(shell_rows),
        "displacement_cut": d_cut,
        "rows_visited": sum(shell_rows),
        "shell_rows": shell_rows,
        "certified_l_max": l_max,
        "complete": True,
    }
    return survivors, cert


def _shell_min_length(words: np.ndarray, mats: np.ndarray, gen_mats: np.ndarray) -> float:
    """Least length of a cyclically reduced hyperbolic word in the shell.

    The shell holds one rotation of each cyclic word.  The traces of its
    other rotations differ only by rounding, so the rows near the least
    trace are multiplied out in every rotation, in shell order, and the
    minimum is taken over all of them.
    """
    tr = np.abs(mats[:, 0] + mats[:, 3])
    hyp = _reduced_hyperbolic(words, tr)
    if not hyp.any():
        return math.inf
    rows = words[hyp & (tr <= tr[hyp].min() * (1.0 + 1e-6))]
    rot = np.concatenate([np.roll(rows, -s, axis=1) for s in range(rows.shape[1])])
    g = gen_mats.reshape(-1, 4)
    prod = g[rot[:, 0]]
    for j in range(1, rot.shape[1]):
        prod = _times(prod, g[rot[:, j]])
    tr_rot = np.abs(prod[:, 0] + prod[:, 3])
    return float(2 * np.arccosh(tr_rot[tr_rot > 2.0 + 1e-9].min() / 2))


def _enumerate_free(
    group: FuchsianGroup, l_max: float, max_word_length: int, allow_incomplete: bool
) -> tuple[list[np.ndarray], dict]:
    """Cyclically reduced necklace shell enumeration for free presets.

    In a free group every conjugacy class is a unique cyclic word, so plain
    enumeration is complete once the per-shell minimum length clears l_max.
    Two consecutive clear shells are required: the minimum can dip once when
    mixed spellings first appear.  Each cyclically reduced word has a
    necklace rotation with the same trace, so the prenecklace shells keep
    the per-shell minimum.  For the cusped preset minimum lengths grow only
    logarithmically in the shell, so the cap triggers capped mode, whose
    survivors ``build_spectrum`` cuts to the certified length.
    """
    gen_mats = group.generator_array()
    words, mats, period = _first_shell(gen_mats)
    survivors: list[np.ndarray] = []
    shell_mins: list[float] = []
    shell_rows: list[int] = []
    clear = 0
    while True:
        shell_rows.append(len(words))
        survivors.append(words[_shell_survivors(words, mats, period, l_max)])
        shell_mins.append(_shell_min_length(words, mats, gen_mats))
        clear = clear + 1 if shell_mins[-1] > l_max else 0
        complete = clear >= 2
        if complete or len(shell_rows) >= max_word_length:
            certified = l_max if complete else min(min(shell_mins[-2:]), l_max)
            cert = {
                "method": "cyclically reduced necklace shells, "
                + ("two-shell margin" if complete else "capped"),
                "word_length_bound": len(shell_rows),
                "shell_min_lengths": shell_mins,
                "rows_visited": sum(shell_rows),
                "shell_rows": shell_rows,
                "certified_l_max": certified,
                "complete": complete,
            }
            if not (complete or allow_incomplete):
                raise IncompleteEnumeration(
                    f"word length {max_word_length} certifies only "
                    f"ell <= {certified:.3f} < {l_max}; "
                    "pass allow_incomplete=True for a capped spectrum"
                )
            return survivors, cert
        # whole shells (the rule above reads them), extended a block at a time
        blocks = [slice(lo, lo + _BLOCK_ROWS) for lo in range(0, len(words), _BLOCK_ROWS)]
        children = [_extend_shell(words[b], mats[b], period[b], gen_mats, None) for b in blocks]
        words, mats, period = map(np.concatenate, zip(*children))


def _trace_spelling(root: ConjugacyClass, spellings: frozenset[Word], preset: GroupPreset) -> Word:
    """Canonical word of the orientation whose trace sets a pair's length.

    The traces of gamma and gamma^-1 can differ in the last bit, and tied
    lengths sort by that bit.  A chiral pair takes its length from the
    orientation whose shortest spellings (``spellings`` are the root's)
    hold the least one under minimal rotation in generator-first code order
    (a1 < b1 < a2 < ... < a1^-1 < b1^-1 < ...), so the length depends on
    the class alone, not on the order in which enumeration meets it.
    """
    rank = preset.rank

    def least(spellings: Iterable[Word]) -> list[int]:
        codes = ([l - 1 if l > 0 else rank - l - 1 for l in w] for w in spellings)
        return min(min(c[i:] + c[:i] for i in range(len(c))) for c in codes)

    if least(spellings) < least(invert_word(w) for w in spellings):
        return root.canonical
    return root.inverse_canonical


def build_spectrum(
    group: FuchsianGroup, l_max: float, max_word_length: int = 14, allow_incomplete: bool = False
) -> LengthSpectrum:
    """Enumerate all conjugacy classes with ell <= l_max.

    Returns primitive classes and their powers, both orientations of
    each.  Lengths of powers are computed as k times the primitive length,
    never from power traces.  Each inversion pair of primitive classes is
    read from one closure of shortest spellings, that of the first survivor
    in either orientation, and named by ``canonical_class``; the k-th power
    of a root is ``ConjugacyClass.power``, as ``canonical_class`` names powers.
    """
    if not 0 < l_max < math.inf:  # no cut prunes an infinite or NaN l_max
        raise InvalidParameters(f"l_max must be a finite positive number, got {l_max!r}")
    if group.cocompact:
        raw, cert = _enumerate_cocompact(group, l_max)
    else:
        raw, cert = _enumerate_free(group, l_max, max_word_length, allow_incomplete)
    effective_l_max = cert["certified_l_max"]

    # each survivor is a Dehn-reduced necklace, so no two rows are rotations
    # of each other; surface groups still meet several spellings of one
    # class, and a Dehn-reduced one can be longer than its class.  A power
    # class is skipped: its root is shorter, so it is a survivor too.
    # canonical_class reads the closure shortest_spellings keeps, so a pair
    # costs one closure.  The length cut below is the only one.
    preset_group = group.group
    seen: set[Word] = set()
    pair_roots: list[ConjugacyClass] = []
    trace_words: list[Word] = []
    for block in raw:
        for word in _codes_to_words(block):
            if word in seen:
                continue
            spellings = shortest_spellings(word, preset_group)
            if not spellings.isdisjoint(seen):
                continue  # Dehn reduction left a longer spelling of a known class
            seen |= spellings | inverse_spellings(spellings)
            if root_spelling(spellings)[1] > 1:
                continue
            root = canonical_class(word, preset_group)
            pair_roots.append(root)
            trace_words.append(_trace_spelling(root, spellings, preset_group))
    # both orientations share the trace spelling, so a pair whose trace
    # fails would fail from either
    mats = holonomies(group, trace_words)

    records: list[GeodesicRecord] = []
    for root, mat in zip(pair_roots, mats):
        try:
            ell0 = length_of(float(np.trace(mat)))
        except NonHyperbolicElement:
            continue  # cusp word on the non-compact preset
        if ell0 > effective_l_max:
            continue
        hom0 = abelianize(root.canonical, preset_group)
        pair = ((root, 1), (ConjugacyClass(root.inverse_canonical, root.canonical), -1))
        for cls, sign in pair:
            k = 1
            while k * ell0 <= effective_l_max:
                ell = k * ell0
                records.append(
                    GeodesicRecord(
                        class_id=-1,
                        cls=cls.power(k),
                        length=ell,
                        primitive_length=ell0,
                        power=k,
                        log_det=log_poincare_det(ell),
                        homology=tuple(sign * k * h for h in hom0),
                    )
                )
                k += 1

    records.sort(key=lambda r: (r.length, word_sort_key(r.word)))
    final = tuple(replace(r, class_id=i) for i, r in enumerate(records))
    cert["shell_classes"] = _shell_classes(r.word for r in final)
    return LengthSpectrum(group, l_max, final, certificate=cert)


def _shell_classes(words: Iterable[Word]) -> list[int]:
    """Classes per word-length shell: entry i counts the words of i + 1 letters."""
    lengths = np.fromiter((len(w) for w in words), dtype=np.int64)
    return np.bincount(lengths, minlength=1)[1:].tolist()


def unoriented_rows(spectrum: LengthSpectrum) -> np.ndarray:
    """Rows of P0, one primitive record per unoriented geodesic.

    Random-cover and Poisson models must treat the two orientations as
    one random object (a permutation and its inverse share fixed points),
    so of each pair the record with the smaller class_id is kept: the one
    with the smaller word, as partners share ell bit for bit and rows sort
    by (ell, word).  A record with no inverse record is not in P0.
    """
    return np.flatnonzero((spectrum.power == 1) & (spectrum.class_id < spectrum.inverse_id))


def unoriented_primitives(spectrum: LengthSpectrum) -> list[GeodesicRecord]:
    """P0 as records: the records of ``unoriented_rows``."""
    return [spectrum.records[i] for i in unoriented_rows(spectrum)]


# ---------------------------------------------------------------------------
# CSV round trip


_LETTERS = "abcdefgh"
_LETTER_OF = {ch: i + 1 for i, ch in enumerate(_LETTERS)} | {
    ch.upper(): -(i + 1) for i, ch in enumerate(_LETTERS)
}
_TEXT_OF = {letter: ch for ch, letter in _LETTER_OF.items()}


def word_to_text(word: Word) -> str:
    """Compact spelling: generator i -> letter, inverse -> uppercase."""
    try:
        return "".join([_TEXT_OF[letter] for letter in word])
    except KeyError as exc:
        raise InvalidParameters(f"word letter {exc.args[0]} has no spelling") from None


def word_from_text(text: str) -> Word:
    try:
        return tuple([_LETTER_OF[ch] for ch in text])
    except KeyError as exc:
        raise ValueError(f"bad word letter {exc.args[0]!r}") from None


_COLUMNS = ["classId", "inverseId", "word", "ell", "ell_sharp", "k", "log_detIminusP"]
_CERTIFICATE_PREFIX = "# certificate="
_REBUILD = "rebuild it with `specvar spectrum`"


def spectrum_to_csv(spectrum: LengthSpectrum, path: str) -> None:
    """Write records with full decimal precision (repr round trip).

    Format 2: ``inverseId`` is the ``inverse_id`` column, and a
    ``# certificate=<json>`` line carries the enumeration certificate.
    Every record's inverse record must be present, so a subset such as
    the P0 records is refused.  The comment lines end in \\n and the csv
    rows in \\r\\n; the file lands atomically through the report writer.
    """
    header = _COLUMNS + [f"h{i}" for i in range(spectrum.group.rank)]
    params = ",".join(repr(p) for p in spectrum.group.params)
    buf = io.StringIO()
    buf.write(f"# preset={spectrum.group.name} params={params}\n")
    buf.write(
        f"# format_version={SPECTRUM_FORMAT_VERSION} "
        f"l_max={spectrum.l_max!r} oriented=True "
        f"certified_l_max={spectrum.certified_l_max!r}\n"
    )
    buf.write(f"{_CERTIFICATE_PREFIX}{json.dumps(spectrum.certificate, sort_keys=True)}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for rec, partner in zip(spectrum.records, spectrum.inverse_id.tolist()):
        if partner < 0:
            raise InvalidParameters(
                f"record {rec.class_id} has no inverse record; "
                "the spectrum CSV holds oriented spectra only"
            )
        writer.writerow(
            [
                rec.class_id,
                partner,
                word_to_text(rec.word),
                repr(rec.length),
                repr(rec.primitive_length),
                rec.power,
                repr(rec.log_det),
            ]
            + [str(h) for h in rec.homology]
        )
    _atomic_write(path, buf.getvalue())


def spectrum_from_csv(path: str) -> tuple[list[dict], dict]:
    """Read back a format-2 file: rows as dicts plus the meta header.

    ``meta["certificate"]`` is the parsed certificate.  Other format
    versions and column headers are refused; the values are parsed but
    not checked (``load_spectrum`` checks them).
    """
    with open(path, newline="") as fh:
        lines = fh.readlines()
    n_comments = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    meta: dict = {}
    for line in lines[:n_comments]:
        if line.startswith(_CERTIFICATE_PREFIX):
            try:
                meta["certificate"] = json.loads(line[len(_CERTIFICATE_PREFIX) :])
            except ValueError as exc:
                raise InvalidParameters(f"unreadable certificate line: {exc}") from None
            continue
        for token in line[1:].strip().split():
            if "=" in token:
                key, val = token.split("=", 1)
                meta[key] = val
    version = meta.get("format_version")
    if version != str(SPECTRUM_FORMAT_VERSION):
        raise InvalidParameters(
            f"spectrum CSV format_version {version} is not supported (format "
            f"{SPECTRUM_FORMAT_VERSION} stores each record's inverse row); {_REBUILD}"
        )
    table = csv.reader(lines[n_comments:])
    header = next(table, [])
    n_hom = len(header) - len(_COLUMNS)
    if header[: len(_COLUMNS)] != _COLUMNS or header[len(_COLUMNS) :] != [
        f"h{i}" for i in range(n_hom)
    ]:
        raise InvalidParameters(f"unexpected spectrum CSV columns {header}")
    rows: list[dict] = []
    for cells in table:
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells under {len(header)} columns")
            rows.append(
                {
                    "classId": int(cells[0]),
                    "inverseId": int(cells[1]),
                    "word": word_from_text(cells[2]),
                    "ell": float(cells[3]),
                    "ell_sharp": float(cells[4]),
                    "k": int(cells[5]),
                    "log_detIminusP": float(cells[6]),
                    "homology": tuple(int(c) for c in cells[len(_COLUMNS) :]),
                }
            )
        except ValueError as exc:
            raise InvalidParameters(f"row {len(rows)}: {exc}") from None
    return rows, meta


def _checked_certificate(meta: dict, group: FuchsianGroup, l_max: float) -> dict:
    """The file's certificate, refused unless its certified_l_max follows.

    The enumerators certify l_max on the co-compact preset and
    min(min(last two shell minimum lengths), l_max) on free presets.
    """
    cert = meta.get("certificate")
    if not isinstance(cert, dict):
        raise InvalidParameters("no certificate line")
    certified = cert.get("certified_l_max")
    if certified != float(meta["certified_l_max"]):
        raise InvalidParameters(
            f"certificate certifies {certified!r}, header {meta['certified_l_max']}"
        )
    if not certified <= l_max:
        raise InvalidParameters(f"certified_l_max {certified!r} exceeds l_max {l_max!r}")
    try:
        expected = l_max if group.cocompact else min(min(cert["shell_min_lengths"][-2:]), l_max)
    except (KeyError, TypeError, ValueError):
        raise InvalidParameters("certificate lacks shell_min_lengths") from None
    if certified != expected:
        raise InvalidParameters(
            f"certified_l_max {certified!r} does not follow from the certificate "
            f"(its fields give {expected!r})"
        )
    if not isinstance(cert.get("shell_classes"), list):
        raise InvalidParameters(f"certificate lacks shell_classes; {_REBUILD}")
    return cert


def _row_fault(
    group: FuchsianGroup, rows: list[dict], i: int, certified_l_max: float
) -> str | None:
    """What is wrong with row i on its own and beside its inverse row."""
    row = rows[i]
    word, ell, k, j = row["word"], row["ell"], row["k"], row["inverseId"]
    if row["classId"] != i:
        return f"classId {row['classId']} is not the row index"
    if not word or max(map(abs, word)) > group.rank or 0 in word:
        return f"word uses a letter outside rank {group.rank}"
    if cyclic_reduce(reduce_word(word)) != word or min_rotation(word) != word:
        return "word is not a cyclically reduced least rotation"
    if abelianize(word, group.group) != row["homology"]:
        return "homology is not the word's exponent sums"
    if j == i:
        return f"inverseId {j} is the row's own classId; no class is its own inverse"
    if not (0 <= j < len(rows) and rows[j]["inverseId"] == i):
        return f"inverseId {j} is not an involution"
    partner = rows[j]
    if (partner["ell"], partner["ell_sharp"], partner["k"], partner["log_detIminusP"]) != (
        ell, row["ell_sharp"], k, row["log_detIminusP"]
    ):
        return f"inverse row {j} differs in ell, ell_sharp, k or log_detIminusP"
    if partner["homology"] != tuple(-h for h in row["homology"]):
        return f"inverse row {j} does not carry the negated homology"
    if len(partner["word"]) != len(word):
        return f"inverse row {j} has a word of another length"
    if k < 1 or ell != k * row["ell_sharp"]:
        return "ell is not k * ell_sharp"
    if not 0 < ell <= certified_l_max:
        return f"ell {ell!r} is outside (0, certified_l_max]"
    if row["log_detIminusP"] != log_poincare_det(ell):
        return "log_detIminusP is not log_poincare_det(ell)"
    return None


def _check_rows(group: FuchsianGroup, rows: list[dict], certified_l_max: float) -> None:
    """Refuse rows that a build of ``group`` could not have written."""

    def refuse(i: int, fault: str) -> InvalidParameters:
        return InvalidParameters(f"row {i}: {fault}")

    keys = [(row["ell"], word_sort_key(row["word"])) for row in rows]
    for i in range(len(rows)):
        fault = _row_fault(group, rows, i, certified_l_max)
        if fault is None and i and not keys[i - 1] < keys[i]:
            fault = "rows are not sorted by (ell, word)"
        if fault is not None:
            raise refuse(i, fault)

    hol = holonomies(group, [row["word"] for row in rows])
    traces = hol[:, 0, 0] + hol[:, 1, 1]
    ells = np.array([row["ell"] for row in rows])
    with np.errstate(invalid="ignore"):
        traced = 2.0 * np.arccosh(np.abs(traces) / 2.0)
    off = ~(np.abs(traced - ells) <= 1e-9 * ells)
    if off.any():
        i = int(np.argmax(off))
        raise refuse(i, f"ell {ells[i]!r} is not the length {traced[i]!r} of the word's trace")
    for i, row in enumerate(rows):
        if row["k"] == 1 and row["ell_sharp"] not in (
            length_of(traces[i]),
            length_of(traces[row["inverseId"]]),
        ):
            raise refuse(i, "ell_sharp is not the length of its own trace or its inverse's")


def _check_class_count(rows: list[dict], certificate: dict) -> None:
    """Refuse rows whose classes per word length differ from the build's count."""
    found = _shell_classes(row["word"] for row in rows)
    if found != certificate["shell_classes"]:
        raise InvalidParameters(
            f"rows hold {found} classes per word length, the certificate "
            f"{certificate['shell_classes']}: rows are missing or added"
        )


def load_spectrum(path: str) -> LengthSpectrum:
    """Reconstruct a spectrum from its format-2 CSV, checking every row.

    Each class is rebuilt as ``ConjugacyClass(word, inverse row's word)``,
    with no canonicalisation, and the certificate comes back whole.  The
    file is refused (InvalidParameters, CLI exit 2) unless classIds are the
    row indices and rows are sorted by (ell, word); inverseId is an
    involution with no fixed point (no class is its own inverse) whose
    partners share ell, ell_sharp, k and log_detIminusP bit for bit, carry
    the negated homology and have words of one length; ell == k * ell_sharp,
    log_detIminusP == log_poincare_det(ell) and ell <= certified_l_max; each
    word is a cyclically reduced least rotation over the rank's letters with
    the stated homology; ell is within 1e-9 relative of the length of the
    word's trace; each primitive's ell_sharp is, bit for bit, the length of
    its own trace or its inverse's; certified_l_max follows from the
    certificate; and the rows hold, word length by word length, as many
    classes as the certificate's ``shell_classes`` counted at build time.
    Partners are thus checked by length, trace, homology and word length,
    not by canonicalisation.  Format 1 files, certificates without
    ``shell_classes`` and headers with any other token than
    ``oriented=True`` are refused with a request to rebuild.
    """
    try:
        rows, meta = spectrum_from_csv(path)
        if meta.get("oriented") != "True":
            raise InvalidParameters(f"only oriented spectra load; {_REBUILD}")
        params = [float(p) for p in meta.get("params", "").split(",") if p]
        group = preset(meta.get("preset", ""), *params)
        l_max = float(meta["l_max"])
        certificate = _checked_certificate(meta, group, l_max)
        _check_rows(group, rows, certificate["certified_l_max"])
        _check_class_count(rows, certificate)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameters(f"spectrum file {path}: {exc}") from None
    records = tuple(
        GeodesicRecord(
            class_id=row["classId"],
            cls=ConjugacyClass(row["word"], rows[row["inverseId"]]["word"]),
            length=row["ell"],
            primitive_length=row["ell_sharp"],
            power=row["k"],
            log_det=row["log_detIminusP"],
            homology=row["homology"],
        )
        for row in rows
    )
    return LengthSpectrum(
        group=group,
        l_max=l_max,
        records=records,
        certificate=certificate,
    )
