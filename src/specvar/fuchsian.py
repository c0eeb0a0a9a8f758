"""Hyperbolic surface presets, holonomy, and length-spectrum enumeration.

All presets have constant curvature -1 and holonomy in SL(2, R).  A closed
geodesic corresponds to a conjugacy class of hyperbolic elements; its length
comes from the trace, ell = 2*arccosh(|tr|/2), and the linearized Poincare
return map P contributes the weight |det(I - P)| = 4*sinh^2(ell/2).

Enumeration grows prenecklaces letter by letter with vectorized matrix
products, by the Fredricksen-Kessler-Maiorana rule over the canonical letter
order (a1 < a1^-1 < a2 < ...), so every cyclic spelling is built once, as
its least rotation.  One walk serves every preset, depth first in blocks
(``_enumerate_necklaces``, which states the proof).  On a preset with a
compact core, the octagon or the pants' two right-angled hexagons, it
prunes by orbit displacement and its emptied tree certifies completeness;
the surface group's survivors are Dehn-reduced necklaces.  The cusped torus
has no compact core: its walk stops at a word-length cap, and its
certificate says it is not complete.

The survivors stay a code matrix up to the spectrum.  One array closure,
``words.canonical_class``, names every primitive inversion pair: it
closes the survivors under half-relator swaps, drops the components that
are longer than their class or are proper powers, and names each kept
class and its inverse by their least rows.  A primitive length is taken
from one trace per pair, of the orientation a rule of the class picks,
so its bits do not depend on the order in which the enumeration meets
the class; the one length cut, at the certified length, is made on it.
A k-th power's rows are its root's rows tiled k times.

A spectrum is a set of columns, one row per class, its words an int8
matrix of the enumerator's letter codes.  It is cached as a format-2 CSV
whose rows name their inverse rows; loading parses the file into columns,
checks them with array masks against the invariants a build guarantees and
the words' traces, and refuses a file that fails (``load_spectrum``).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import Refused
from .report import _atomic_write
from .words import (
    GroupPreset,
    Word,
    _least_rotation,
    _overlong_replacements,
    canonical_class,
    free_group,
    surface_group,
)

SPECTRUM_FORMAT_VERSION = 2


class InvalidParameters(Refused):
    """Raised for preset parameters outside their domain."""


class IncompleteEnumeration(Refused):
    """Raised when the word-length bound cannot certify coverage of Lmax."""


# ---------------------------------------------------------------------------
# groups and basic hyperbolic geometry


@dataclass(frozen=True, eq=False)
class FuchsianGroup:
    """A finitely generated Fuchsian group given by generator matrices.

    ``generators`` has shape (rank, 2, 2).  ``group`` carries the word
    algebra (free or surface presentation).  ``core_radius`` is the radius
    of a compact domain for the convex core around the base point i; it is
    None for the cusped preset, whose ``warning`` says its cusp words are parabolic.
    """

    name: str
    generators: np.ndarray
    group: GroupPreset
    params: tuple[float, ...] = ()
    warning: str | None = None
    core_radius: float | None = None

    @property
    def rank(self) -> int:
        return self.group.rank

    @property
    def cocompact(self) -> bool:
        """A torsion-free Fuchsian group is cocompact exactly when it has a surface relator."""
        return bool(self.group.relator)

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


def _products(mats: np.ndarray, codes: np.ndarray, word_len: np.ndarray) -> np.ndarray:
    """Holonomy matrices of code rows, ``mats`` by letter code: each word length
    multiplied left to right from the identity with batched ``@``, which
    gives the bits of multiplying one word at a time."""
    out = np.empty((len(codes), 2, 2))
    for n in sorted(set(word_len.tolist())):
        idx = np.flatnonzero(word_len == n)
        block = codes[idx]
        prod = np.broadcast_to(np.eye(2), (len(idx), 2, 2))
        for j in range(n):
            prod = prod @ mats[block[:, j]]
        out[idx] = prod
    return out


def _trace_lengths(traces: np.ndarray) -> np.ndarray:
    """Geodesic lengths ell = 2*arccosh(|tr|/2) of holonomy traces, NaN where |tr| <= 2.

    One ``math.acosh`` per trace, for the build and the loader alike:
    ``np.arccosh`` can differ from it in the last bit, and a primitive's
    ell_sharp is checked bit for bit.
    """
    return np.array([2.0 * math.acosh(t / 2.0) if t > 2.0 else math.nan for t in np.abs(traces).tolist()])


def log_poincare_det(ell: float) -> float:
    """log(4*sinh^2(ell/2)) = ell + 2*log(1 - e^-ell), stable for large ell."""
    if ell <= 0:
        raise InvalidParameters(f"geodesic length must be positive, got {ell}")
    return ell + 2.0 * math.log1p(-math.exp(-ell))


# ---------------------------------------------------------------------------
# presets


def _foot(u: tuple[float, float], v: tuple[float, float]) -> complex:
    """The foot on axis v of the common perpendicular of axes u and v.

    An axis (s', p') is the semicircle |z|^2 - s' Re z + p' = 0 over the roots
    of z^2 - s' z + p'.  The perpendicular's endpoints, the roots of z^2 - s z
    + t, are harmonic with respect to both axes' endpoints: 2(t + p') = s s'.
    """
    (s1, p1), (s2, p2) = u, v
    s = 2 * (p1 - p2) / (s1 - s2)
    t = s * s1 / 2 - p1
    x = (t - p2) / (s - s2)
    return complex(x, math.sqrt(s * x - t - x * x))


def _pants_seams(x: np.ndarray, y: np.ndarray) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The (XY, X) and (Y, XY) seams of the pants' right-angled hexagon H, as
    their feet (on XY, on X) and (on Y, on XY).

    The axes of X and Y are the semicircles of radius 1 and mu > 1, and XY's
    lies between them on the right.  H has sides on these axes, the seams
    (their common perpendiculars) and the imaginary axis.  H and its mirror
    image H' under z -> -conj(z) make a compact domain for the convex core:
    X maps the mirrored (XY, X) seam onto the (XY, X) seam, Y^-1 the mirrored
    (Y, XY) seam onto the (Y, XY) seam (Buser, 1992, ch. 2).
    """
    ax, ay, axy = (((m[0, 0] - m[1, 1]) / m[1, 0], -m[0, 1] / m[1, 0]) for m in (x, y, x @ y))
    s, p = axy
    half = math.sqrt(max(s * s / 4 - p, 0.0))  # XY's endpoints are s/2 -+ half
    if not 1.0 < s / 2 - half < s / 2 + half < math.sqrt(-ay[1]):
        raise RuntimeError("pants hexagon: the XY axis does not lie between the X and Y axes on the right")
    return (_foot(ax, axy), _foot(axy, ax)), (_foot(axy, ay), _foot(ay, axy))


def _schottky_pants(l1: float, l2: float, l3: float) -> FuchsianGroup:
    """Free rank-2 Schottky group uniformizing a pair of pants.

    The generators X, Y and (XY)^-1 are the three boundary geodesics with
    lengths l1, l2, l3: tr X = 2 cosh(l1/2), tr Y = 2 cosh(l2/2) and
    tr XY = -2 cosh(l3/2), the standard trace-triple normal form.  The core
    radius is that of the convex H u H' (``_pants_seams``) around i, its
    farthest vertex's distance: a seam's foot z (its mirror image is as far),
    with cosh d(i, z) = 1 + |z - i|^2 / (2 Im z).
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
        params=(float(l1), float(l2), float(l3)),
        core_radius=max(math.acosh(1 + abs(z - 1j) ** 2 / (2 * z.imag)) for z in itertools.chain(*_pants_seams(x, y))),
    )


# circumradius of the regular octagon with vertex angle pi/4: cosh R = cot^2(pi/8)
_OCTAGON_R = math.acosh(1.0 / math.tan(math.pi / 8) ** 2)


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
    v = math.tanh(_OCTAGON_R / 2) * np.exp(1j * 2 * np.pi * np.arange(9) / 8)  # vertices, the first repeated
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
        core_radius=_OCTAGON_R,
    )


def _punctured_torus() -> FuchsianGroup:
    """Square punctured torus; the commutator is parabolic with trace -2."""
    x = np.array([[1.0, 1.0], [1.0, 2.0]])
    y = np.array([[1.0, -1.0], [-1.0, 2.0]])
    return FuchsianGroup(
        name="punctured_torus",
        generators=np.array([x, y]),
        group=free_group(2),
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


@dataclass(frozen=True, eq=False)
class LengthSpectrum:
    """All conjugacy classes with ell <= l_max as read-only columns, one row per class.

    Rows sort by (ell, word) and a row's index is its class id.  Both
    orientations of every geodesic are rows: no hyperbolic class of a
    torsion-free Fuchsian group is its own inverse.  ``codes`` (rows x
    longest word, int8) holds the words in ``_letter_codes``, padded with -1
    past ``word_len``, and ``words`` spells them.  ``length`` is exactly
    ``power * primitive_length``, so power identities hold bit for bit;
    ``log_det`` is ``log_poincare_det(length)``, ``homology`` (rows x rank)
    the abelianized word and ``inverse_id`` the inverse class's row (-1 if
    none is held).  ``certificate`` records the word-length bound that
    guarantees completeness; in capped mode (the cusped torus)
    ``certified_l_max`` may fall short of ``l_max``.
    """

    group: FuchsianGroup
    l_max: float
    codes: np.ndarray
    word_len: np.ndarray
    length: np.ndarray
    primitive_length: np.ndarray
    power: np.ndarray
    log_det: np.ndarray
    homology: np.ndarray
    inverse_id: np.ndarray
    certificate: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in _ROW_COLUMNS:
            getattr(self, name).flags.writeable = False

    @property
    def certified_l_max(self) -> float:
        return self.certificate.get("certified_l_max", self.l_max)

    @property
    def records(self) -> range:
        """The row indices, kept only for the benchmark tracer, which counts
        ``len(spectrum.records)`` until the library reports its own counts."""
        return range(len(self.length))

    def words(self, rows=None) -> list[Word]:
        """Signed-letter words of ``rows`` (every row by default)."""
        return _codes_to_words(self.codes if rows is None else self.codes[rows])


_ROW_COLUMNS = ("codes", "word_len", "length", "primitive_length", "power", "log_det", "homology", "inverse_id")


_BLOCK_ROWS = 1 << 13  # rows per _extend_shell call; bounds its (letters x rows) temporaries


def _letter_codes(letters: np.ndarray) -> np.ndarray:
    # generator i -> 2(i-1), its inverse -> 2(i-1)+1, so code c ^ 1 inverts c
    return 2 * (np.abs(letters) - 1) + (letters < 0)


def _packed(codes: np.ndarray, base: int) -> np.ndarray:
    """Base-``base`` numbers of code rows (the last axis), first letter most significant."""
    return codes.astype(np.int64) @ base ** np.arange(codes.shape[-1] - 1, -1, -1)


def _codes_to_words(codes: np.ndarray) -> list[Word]:
    """Signed-letter words of code rows, each ending at its first -1 pad."""
    letters = (codes.astype(np.int64) >> 1) + 1
    signed = np.where(codes & 1, -letters, letters).tolist()
    return [tuple(row[:n]) for row, n in zip(signed, (codes >= 0).sum(axis=1).tolist())]


def _padded(codes: np.ndarray, word_len: np.ndarray) -> np.ndarray:
    """The (words x longest word) int8 matrix of concatenated codes, padded with -1."""
    out = np.full((len(word_len), word_len.max(initial=0)), -1, dtype=np.int8)
    out[np.arange(out.shape[1]) < word_len[:, None]] = codes
    return out


def _homology(codes: np.ndarray, rank: int) -> np.ndarray:
    """Exponent sums of code rows, (rows x rank): a generator's letters less its inverse's."""
    counts = (codes[:, :, None] == np.arange(2 * rank, dtype=np.int8)).sum(axis=1)
    return counts[:, 0::2] - counts[:, 1::2]


def _reduced_hyperbolic(words: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """Hyperbolic rows (|trace| ``tr`` above 2) whose last letter is not their first's inverse."""
    return (tr > 2.0 + 1e-9) & (words[:, 0] != words[:, -1] ^ 1)


def _within_trace_cut(tr: np.ndarray, l_max: float) -> np.ndarray:
    """|trace| rows that may have ell <= l_max: a slack cut, the build cuts by length."""
    return tr <= 2.0 * math.cosh(l_max / 2) * (1.0 + 1e-9)


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


def _enumerate_necklaces(
    group: FuchsianGroup, l_max: float, max_word_length: int
) -> tuple[np.ndarray, dict]:
    """Displacement-pruned necklace tree walk, one for every preset.

    The proof of the cut.  Let D be the preset's compact domain for its
    convex core (the octagon; the pants' H u H', ``_pants_seams``), of radius
    R = ``core_radius`` around the base point i.  The translates of D, glued
    along sides paired by the generators, tile the convex hull of the limit
    set, which holds the axis of every hyperbolic class.  A period of the
    axis, of length ell, starts in D and crosses tiles g_1 D, ..., g_n D; the
    side pairings crossed spell the class, each prefix g_k taking D onto a
    tile that holds a point of the period, within ell of its start, so
    d(i, g_k i) <= R + ell + R.  Rotations of
    the spelling start at other crossings, so its least rotation passes with
    all its prefixes; rows moving i farther than l_max + 2R + 0.5 are not
    extended, and the emptied tree's depth is the certificate.  In the free
    pants group the crossing spelling is the class's one cyclically reduced
    word (a geodesic crosses each seam's line once); on the surface group it
    holds no ``_relator_windows`` entry, even around its end, so the
    survivors are Dehn-reduced.

    The cusped torus has no compact core.  Its walk stops at
    ``max_word_length`` and certifies the least of its last two shells'
    ``_shell_min_length`` (if below l_max), an estimate, so it says
    ``complete: false``; survivors are cut by trace at that length.

    A row's subtree depends only on its word, product and period, and every
    test is prefix-closed, so the tree is walked depth first: new rows are
    visited once (counted, survivors kept) and those within the cut pushed
    in blocks of at most ``_BLOCK_ROWS``; the last block pushed is extended
    next.  A depth holds one block's children at most, so live rows stay
    within depth x letters x ``_BLOCK_ROWS`` however wide a shell is.
    Survivors come back as one code matrix padded with -1, in visit order;
    ``shell_rows`` sums each length's blocks and a shell minimum is the
    least over its blocks.
    """
    capped = group.core_radius is None
    d_cut = math.inf if capped else l_max + 2 * group.core_radius + 0.5  # a margin of 0.5 over ell + 2R
    depth_cap = max_word_length if capped else 64
    norm2_cut = 2.0 * math.cosh(d_cut)  # cosh d(i, g i) = ||g||_F^2 / 2
    gen_mats = group.generator_array()
    table = _relator_windows(group.group, len(gen_mats)) if group.group.relator else None
    survivors: list[tuple[np.ndarray, np.ndarray]] = []  # rows and their |traces|, per visit
    shell_rows: list[int] = []
    shell_mins: list[float] = []
    stack: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def visit(words: np.ndarray, mats: np.ndarray, period: np.ndarray) -> None:
        if not len(words):
            return
        depth = words.shape[1]
        if depth > len(shell_rows):  # the walk goes one letter deeper at a time
            shell_rows.append(0)
            shell_mins.append(math.inf)
        shell_rows[depth - 1] += len(words)
        tr = np.abs(mats[:, 0] + mats[:, 3])
        # necklace survivors: cyclically reduced and hyperbolic with ell <= l_max
        keep = np.flatnonzero(_reduced_hyperbolic(words, tr) & _within_trace_cut(tr, l_max) & (depth % period == 0))
        if table is not None and depth >= 5:  # shorter rows repeat a letter, which no window does
            ring = np.concatenate([words[keep, -4:], words[keep, :4]], axis=1)
            windows = np.lib.stride_tricks.sliding_window_view(ring, 5, axis=1)
            keep = keep[~table[_packed(windows, len(gen_mats))].any(axis=1)]
        survivors.append((words[keep], tr[keep]))
        if capped:
            shell_mins[depth - 1] = min(shell_mins[depth - 1], _shell_min_length(words, tr, gen_mats))
        sq = mats * mats  # the squared norm, summed left to right as a row sum does
        within = np.flatnonzero(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3] <= norm2_cut)
        if depth >= depth_cap:
            if len(within) and not capped:
                raise IncompleteEnumeration("displacement-pruned shells failed to terminate")
            return
        for lo in range(0, len(within), _BLOCK_ROWS):
            rows_in = within[lo : lo + _BLOCK_ROWS]
            stack.append((words[rows_in], mats[rows_in], period[rows_in]))

    visit(*_first_shell(gen_mats))
    while stack:
        visit(*_extend_shell(*stack.pop(), gen_mats, table))
    certified = min(min(shell_mins[-2:]), l_max) if capped else l_max
    word_len = np.concatenate([np.full(len(rows), rows.shape[1]) for rows, _ in survivors])
    codes = _padded(np.concatenate([rows.ravel() for rows, _ in survivors]), word_len)
    keep = _within_trace_cut(np.concatenate([tr for _, tr in survivors]), certified)
    cert = {
        "word_length_bound": len(shell_rows),
        "rows_visited": sum(shell_rows),
        "shell_rows": shell_rows,
        "certified_l_max": certified,
        "complete": not capped,
        **({"method": "cyclically reduced necklace shells, capped", "shell_min_lengths": shell_mins} if capped
           else {"method": "displacement-pruned necklace shells", "displacement_cut": d_cut}),
    }
    return codes[keep], cert


def _shell_min_length(words: np.ndarray, tr: np.ndarray, gen_mats: np.ndarray) -> float:
    """Least length of a cyclically reduced hyperbolic word among necklace rows.

    The capped torus's estimate, not a proof.  The rows (|traces| ``tr``)
    hold one rotation of each cyclic word; the traces of its other rotations
    differ only by rounding, so the rows near the least trace are multiplied
    out in every rotation, in row order, and the least is taken.
    """
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


def build_spectrum(
    group: FuchsianGroup, l_max: float, max_word_length: int = 14, allow_incomplete: bool = False
) -> LengthSpectrum:
    """Enumerate all conjugacy classes with ell <= l_max.

    Returns primitive classes and their powers, both orientations of each,
    as rows.  The walk's survivors go to ``canonical_class`` as one code
    matrix, which names each primitive inversion pair once and says which
    orientation's trace sets its length; the pair's primitive length is
    that trace's, and the length cut at the certified length is made on
    it.  A k-th power's rows are the pair's rows tiled k times, its length
    k times the primitive length, never a power trace.

    One walk enumerates every preset (``_enumerate_necklaces``).  The cusped
    torus, which no cut proves complete, is refused unless
    ``allow_incomplete``; only its capped walk reads ``max_word_length``.
    """
    if not 0 < l_max < math.inf:  # no cut prunes an infinite or NaN l_max
        raise InvalidParameters(f"l_max must be a finite positive number, got {l_max!r}")
    if group.core_radius is None and not allow_incomplete:
        raise IncompleteEnumeration(
            f"{group.name} has a cusp, so no word length certifies its spectrum complete; "
            "pass allow_incomplete=True for a capped spectrum"
        )
    raw, cert = _enumerate_necklaces(group, l_max, max_word_length)
    names, inverses, forward = canonical_class(raw, group.group)
    name_len = (names >= 0).sum(axis=1)
    hol = _products(group.generator_array(), np.where(forward[:, None], names, inverses), name_len)
    ell0 = _trace_lengths(hol[:, 0, 0] + hol[:, 1, 1])  # survivors are hyperbolic (``_reduced_hyperbolic``)

    pair, power = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for k in itertools.count(1):
        within = np.flatnonzero(k * ell0 <= cert["certified_l_max"])
        if not len(within):
            break
        pair.append(within)
        power.append(np.full(len(within), k))
    pair, ks = np.concatenate(pair), np.concatenate(power)
    word_len = np.repeat(name_len[pair] * ks, 2)  # a row's inverse row is its neighbour, 2i and 2i + 1, until the sort
    column = np.arange(word_len.max(initial=0))
    tiled = np.stack([names[pair], inverses[pair]], axis=1).reshape(2 * len(pair), names.shape[1])
    codes = np.where(
        column < word_len[:, None],
        np.take_along_axis(tiled, column % np.repeat(name_len[pair], 2)[:, None], axis=1),
        -1,
    ).astype(np.int8)
    ell0s, ks = np.repeat(ell0[pair], 2), np.repeat(ks, 2)
    order = np.lexsort([*codes.T[::-1], word_len, ks * ell0s])  # the order of (ell, word_sort_key)
    codes, length = codes[order], (ks * ell0s)[order]
    new_row = np.argsort(order)  # where the sort puts each built row
    cert["shell_classes"] = _shell_classes(word_len)
    return LengthSpectrum(
        group, l_max, codes=codes, word_len=word_len[order], length=length,
        primitive_length=ell0s[order], power=ks[order],
        log_det=np.array([log_poincare_det(ell) for ell in length.tolist()]),
        homology=_homology(codes, group.rank), inverse_id=new_row[order ^ 1], certificate=cert,
    )


def _shell_classes(word_len: np.ndarray) -> list[int]:
    """Classes per word-length shell: entry i counts the words of i + 1 letters."""
    return np.bincount(word_len, minlength=1)[1:].tolist()


def unoriented_rows(spectrum: LengthSpectrum) -> np.ndarray:
    """Rows of P0, one primitive row per unoriented geodesic.

    Random-cover and Poisson models must treat the two orientations as
    one random object (a permutation and its inverse share fixed points),
    so of each pair the earlier row is kept: the one with the smaller
    word, as partners share ell bit for bit and rows sort by (ell, word).
    A row with no inverse row is not in P0.
    """
    rows = np.arange(len(spectrum.power))
    return np.flatnonzero((spectrum.power == 1) & (rows < spectrum.inverse_id))


def unoriented_primitives(spectrum: LengthSpectrum) -> list[Word]:
    """P0 as words: the words of ``unoriented_rows``."""
    return spectrum.words(unoriented_rows(spectrum))


# ---------------------------------------------------------------------------
# CSV round trip


# letter code c is spelled _SPELLING[c]: generator i by the i-th letter, its inverse in upper case
_SPELLING = np.frombuffer(b"aAbBcCdDeEfFgGhH", dtype=np.uint8)
_CODE_OF_CHAR = np.full(128, -1, dtype=np.int8)  # the codes of ASCII characters, -1 for none
_CODE_OF_CHAR[_SPELLING] = np.arange(len(_SPELLING))


def _spelled(codes: np.ndarray, word_len: np.ndarray) -> list[str]:
    """The spelling of each code row."""
    text = _SPELLING[codes[np.arange(codes.shape[1]) < word_len[:, None]]].tobytes().decode()
    ends = np.cumsum(word_len).tolist()
    return [text[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _unspelled(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Padded code matrix and lengths of spelled words; ValueError names a bad letter."""
    word_len = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    chars = np.frombuffer("".join(texts).encode("utf-32-le"), dtype=np.uint32)
    codes = _CODE_OF_CHAR[np.minimum(chars, 127)]  # 127 (DEL) stands for every non-ASCII one
    bad = np.flatnonzero(codes < 0)
    if len(bad):
        raise ValueError(f"bad word letter {chr(chars[bad[0]])!r}")
    return _padded(codes, word_len), word_len


def _numbers(kind: type) -> Callable[[Sequence[str]], np.ndarray]:
    return lambda cells: np.fromiter(map(kind, cells), dtype=np.int64 if kind is int else float, count=len(cells))


_COLUMNS = ["classId", "inverseId", "word", "ell", "ell_sharp", "k", "log_detIminusP"]
_PARSERS = [_numbers(int), _numbers(int), _unspelled, _numbers(float), _numbers(float), _numbers(int), _numbers(float)]
_CERTIFICATE_PREFIX = "# certificate="
_REBUILD = "rebuild it with `specvar spectrum`"


def spectrum_to_csv(spectrum: LengthSpectrum, path: str) -> None:
    """Write the rows with full decimal precision (repr round trip).

    Format 2: ``inverseId`` is the ``inverse_id`` column, and a
    ``# certificate=<json>`` line carries the enumeration certificate.
    Every row's inverse row must be present, so a subset such as the P0
    rows is refused.  The comment lines end in \\n and the csv rows in
    \\r\\n; the file lands atomically through the report writer.
    """
    orphans = np.flatnonzero(spectrum.inverse_id < 0)
    if len(orphans):
        raise InvalidParameters(
            f"record {orphans[0]} has no inverse record; the spectrum CSV holds oriented spectra only"
        )
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
    sp = spectrum
    ell, ell_sharp, log_det = (map(repr, col.tolist()) for col in (sp.length, sp.primitive_length, sp.log_det))
    writer.writerows(zip(
        range(len(sp.length)), sp.inverse_id.tolist(), _spelled(sp.codes, sp.word_len),
        ell, ell_sharp, sp.power.tolist(), log_det, *sp.homology.T.tolist(),
    ))
    _atomic_write(path, buf.getvalue())


def _bad_cell(cells: list[list[str]], parsers: list[Callable]) -> str | None:
    """The first cell, row by row, that does not parse, as its refusal reads."""
    for i, row in enumerate(cells):
        if len(row) != len(parsers):
            return f"row {i}: {len(row)} cells under {len(parsers)} columns"
        for parse, cell in zip(parsers, row):
            try:
                parse([cell])
            except (ValueError, OverflowError) as exc:
                return f"row {i}: {exc}"


def spectrum_from_csv(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read back a format-2 file: its columns, keyed by the ``LengthSpectrum``
    fields they fill (classId by ``class_id``), and the meta header with the
    parsed ``certificate``.  Other format versions and column headers, and
    cells that do not parse, are refused; ``load_spectrum`` checks the values.
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
    if header != _COLUMNS + [f"h{i}" for i in range(n_hom)]:
        raise InvalidParameters(f"unexpected spectrum CSV columns {header}")
    cells = list(table)
    parsers = _PARSERS + [_numbers(int)] * n_hom
    try:
        if not set(map(len, cells)) <= {len(header)}:
            raise ValueError("a row of another width")
        values = [parse(column) for parse, column in zip(parsers, list(zip(*cells)) or [()] * len(header))]
    except (ValueError, OverflowError):
        raise InvalidParameters(_bad_cell(cells, parsers)) from None
    class_id, inverse_id, (codes, word_len), length, primitive_length, power, log_det, *homology = values
    homology = np.array(homology, dtype=np.int64).reshape(n_hom, len(cells)).T
    return dict(
        class_id=class_id, inverse_id=inverse_id, codes=codes, word_len=word_len, length=length,
        primitive_length=primitive_length, power=power, log_det=log_det, homology=homology,
    ), meta


def _checked_certificate(meta: dict, group: FuchsianGroup, l_max: float) -> dict:
    """The file's certificate, refused unless its certified_l_max follows.

    The walk certifies l_max on a preset with a compact core (so an older
    pants "two-shell margin" certificate is read) and min(min(last two shell
    minimum lengths), l_max) on the cusped torus, never complete.
    """
    cert = meta.get("certificate")
    if not isinstance(cert, dict):
        raise InvalidParameters("no certificate line")
    certified = cert.get("certified_l_max")
    if certified != float(meta["certified_l_max"]):
        raise InvalidParameters(f"certificate certifies {certified!r}, header {meta['certified_l_max']}")
    if not certified <= l_max:
        raise InvalidParameters(f"certified_l_max {certified!r} exceeds l_max {l_max!r}")
    try:
        expected = l_max if group.core_radius is not None else min(min(cert["shell_min_lengths"][-2:]), l_max)
    except (KeyError, TypeError, ValueError):
        raise InvalidParameters("certificate lacks shell_min_lengths") from None
    if group.core_radius is None and cert.get("complete") is not False:
        raise InvalidParameters(f"{group.name} has a cusp, so its certificate cannot be complete; {_REBUILD}")
    if certified != expected:
        raise InvalidParameters(
            f"certified_l_max {certified!r} does not follow from the certificate (its fields give {expected!r})")
    if not isinstance(cert.get("shell_classes"), list):
        raise InvalidParameters(f"certificate lacks shell_classes; {_REBUILD}")
    return cert


def _refuse_first(checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """Refuse the first row any mask holds, with the first of its faults."""
    masks = np.array([mask for mask, _ in checks]).reshape(len(checks), -1)
    hit = masks.any(axis=0)
    if hit.any():
        i = int(hit.argmax())
        raise InvalidParameters(f"row {i}: {checks[int(masks[:, i].argmax())][1](i)}")


def _least_rotations(codes: np.ndarray, word_len: np.ndarray) -> np.ndarray:
    """Rows whose word is its own least rotation, in code order (``words._least_rotation``)."""
    least = np.ones(len(codes), dtype=bool)
    for n in sorted(set(word_len.tolist())):
        idx = np.flatnonzero(word_len == n)
        least[idx] = (_least_rotation(codes[idx, :n]) == codes[idx, :n]).all(axis=1)
    return least


def _increasing(keys: list[np.ndarray]) -> np.ndarray:
    """Rows whose key, its arrays compared in turn, exceeds the previous row's; the first row does."""
    less = np.arange(len(keys[0])) == 0
    tied = ~less
    for key in keys:
        less[1:] |= tied[1:] & (key[:-1] < key[1:])
        tied[1:] &= key[:-1] == key[1:]
    return less


def _check_rows(sp: LengthSpectrum, class_id: np.ndarray) -> None:
    """Refuse rows that a build of ``sp.group`` could not have written (``load_spectrum``).

    Each check is a mask over the rows.  Partner masks read the clipped
    inverseId, wrong only where the involution mask, listed first, refuses.
    """
    codes, word_len, ell, ell_sharp, k, hom, j = (
        sp.codes, sp.word_len, sp.length, sp.primitive_length, sp.power, sp.homology, sp.inverse_id
    )
    rows, column, rank = np.arange(len(ell)), np.arange(codes.shape[1]), sp.group.rank
    inside = column < word_len[:, None]
    after = np.take_along_axis(codes, (column + 1) % np.maximum(word_len, 1)[:, None], axis=1)
    p = np.clip(j, 0, max(len(ell) - 1, 0))
    log_det = np.array([log_poincare_det(x) if x > 0 else math.nan for x in ell.tolist()])
    _refuse_first([
        (class_id != rows, lambda i: f"classId {class_id[i]} is not the row index"),
        ((word_len == 0) | (inside & (codes >= 2 * rank)).any(axis=1),
         lambda i: f"word uses a letter outside rank {rank}"),
        ((inside & (after == codes ^ 1)).any(axis=1) | ~_least_rotations(codes, word_len),
         lambda i: "word is not a cyclically reduced least rotation"),
        ((_homology(codes, rank) != hom).any(axis=1) if hom.shape[1] == rank else rows >= 0,
         lambda i: "homology is not the word's exponent sums"),
        (j == rows, lambda i: f"inverseId {j[i]} is the row's own classId; no class is its own inverse"),
        ((j < 0) | (j >= len(ell)) | (j[p] != rows), lambda i: f"inverseId {j[i]} is not an involution"),
        ((ell[p] != ell) | (ell_sharp[p] != ell_sharp) | (k[p] != k) | (sp.log_det[p] != sp.log_det),
         lambda i: f"inverse row {j[i]} differs in ell, ell_sharp, k or log_detIminusP"),
        ((hom[p] != -hom).any(axis=1), lambda i: f"inverse row {j[i]} does not carry the negated homology"),
        (word_len[p] != word_len, lambda i: f"inverse row {j[i]} has a word of another length"),
        ((k < 1) | (ell != k * ell_sharp), lambda i: "ell is not k * ell_sharp"),
        (~((0 < ell) & (ell <= sp.certified_l_max)),
         lambda i: f"ell {ell[i].item()!r} is outside (0, certified_l_max]"),
        (sp.log_det != log_det, lambda i: "log_detIminusP is not log_poincare_det(ell)"),
        (~_increasing([ell, word_len, *codes.T]), lambda i: "rows are not sorted by (ell, word)"),
    ])
    hol = _products(sp.group.generator_array(), codes, word_len)
    traced = _trace_lengths(hol[:, 0, 0] + hol[:, 1, 1])
    _refuse_first([(
        ~(np.abs(traced - ell) <= 1e-9 * ell),
        lambda i: f"ell {ell[i].item()!r} is not the length {traced[i].item()!r} of the word's trace",
    )])
    _refuse_first([(
        (k == 1) & (ell_sharp != traced) & (ell_sharp != traced[j]),
        lambda i: "ell_sharp is not the length of its own trace or its inverse's",
    )])
    found, counted = _shell_classes(word_len), sp.certificate["shell_classes"]
    if found != counted:
        raise InvalidParameters(
            f"rows hold {found} classes per word length, the certificate {counted}: rows are missing or added")


def load_spectrum(path: str) -> LengthSpectrum:
    """Reconstruct a spectrum from its format-2 CSV, checking every row.

    The file is parsed into the spectrum's columns, with no
    canonicalisation, and the certificate comes back whole.  It is refused
    (InvalidParameters, CLI exit 2) unless certified_l_max follows from the
    certificate and the rows pass, in this order: classId is the row index;
    letters are within the rank; the word is cyclically reduced, across its
    end too, and its least rotation; the homology is its signed letter
    counts; inverseId is an involution with no fixed point whose partners
    share ell, ell_sharp, k and log_detIminusP bit for bit, carry the negated
    homology and have words of one length; ell == k * ell_sharp; 0 < ell <=
    certified_l_max; log_detIminusP == log_poincare_det(ell); rows sort by
    (ell, word).  The first row with a fault is refused, naming its first
    fault.  Then each ell must be within 1e-9 relative of its word's trace
    length, each primitive's ell_sharp bit for bit its own or its inverse's
    trace length, and the classes per word length the certificate's
    ``shell_classes``.  Format 1 files, certificates without
    ``shell_classes`` or calling a torus complete, and headers without
    ``oriented=True`` ask for a rebuild.
    """
    try:
        cols, meta = spectrum_from_csv(path)
        if meta.get("oriented") != "True":
            raise InvalidParameters(f"only oriented spectra load; {_REBUILD}")
        params = [float(p) for p in meta.get("params", "").split(",") if p]
        group = preset(meta.get("preset", ""), *params)
        l_max = float(meta["l_max"])
        certificate = _checked_certificate(meta, group, l_max)
        class_id = cols.pop("class_id")
        spectrum = LengthSpectrum(group, l_max, **cols, certificate=certificate)
        _check_rows(spectrum, class_id)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameters(f"spectrum file {path}: {exc}") from None
    return spectrum
