"""Hyperbolic surface presets, holonomy, and length-spectrum enumeration.

All presets have constant curvature -1 and holonomy in SL(2, R).  A closed
geodesic corresponds to a conjugacy class of hyperbolic elements; its length
comes from the trace, ell = 2*arccosh(|tr|/2), and the linearized Poincare
return map P contributes the weight |det(I - P)| = 4*sinh^2(ell/2).

Enumeration works on word-length shells with vectorized matrix products.
For the co-compact octagon preset, shells are pruned by orbit displacement:
every class with ell <= Lmax has a cyclically reduced spelling whose prefixes
all move the base point by at most ell + 2R (R = circumradius of the
fundamental octagon), because the spelling can be read off the tiles crossed
by the axis.  Pruned shells therefore empty out on their own and the last
nonempty shell is the completeness certificate.  Free presets use plain
cyclically reduced enumeration with an empirical minimum-length margin.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .words import (
    ConjugacyClass,
    GroupPreset,
    Word,
    abelianize,
    canonical_class,
    free_group,
    invert_word,
    min_rotation,
    primitive_root,
    surface_group,
    word_power,
    word_sort_key,
)

SPECTRUM_FORMAT_VERSION = 1


class InvalidParameters(ValueError):
    """Raised for preset parameters outside their domain."""


class NonHyperbolicElement(ValueError):
    """Raised when a trace belongs to an elliptic or parabolic element."""


class IncompleteEnumeration(RuntimeError):
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
        """Generators and inverses, indexed 0..rank-1 and rank..2*rank-1."""
        r = self.rank
        out = np.empty((2 * r, 2, 2))
        out[:r] = self.generators
        # SL(2) inverse: [[d, -b], [-c, a]]
        g = self.generators
        out[r:, 0, 0] = g[:, 1, 1]
        out[r:, 0, 1] = -g[:, 0, 1]
        out[r:, 1, 0] = -g[:, 1, 0]
        out[r:, 1, 1] = g[:, 0, 0]
        return out


def holonomy(group: FuchsianGroup, word: Word) -> np.ndarray:
    """Product of generator matrices and inverses in word order."""
    mats = group.generator_array()
    r = group.rank
    out = np.eye(2)
    for letter in word:
        idx = letter - 1 if letter > 0 else r - letter - 1
        out = out @ mats[idx]
    return out


def length_of(trace: float) -> float:
    """Geodesic length from a holonomy trace, ell = 2*arccosh(|tr|/2)."""
    t = abs(float(trace))
    if t <= 2.0:
        raise NonHyperbolicElement(f"|trace| = {t} <= 2 is not hyperbolic")
    return 2.0 * math.acosh(t / 2.0)


def poincare_det(ell: float) -> float:
    """|det(I - P)| = 4*sinh^2(ell/2) for the return map P = diag(e^l, e^-l)."""
    if ell <= 0:
        raise InvalidParameters(f"geodesic length must be positive, got {ell}")
    return 4.0 * math.sinh(ell / 2.0) ** 2


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


def _octagon_vertices() -> np.ndarray:
    # regular octagon with vertex angle pi/4: cosh(circumradius) = cot^2(pi/8)
    big_r = math.acosh(1.0 / math.tan(math.pi / 8) ** 2)
    r_eucl = math.tanh(big_r / 2)
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
    def det(self) -> float:
        return math.exp(self.log_det)

    @property
    def word(self) -> Word:
        return self.cls.canonical


@dataclass(frozen=True, eq=False)
class LengthSpectrum:
    """All conjugacy classes with ell <= l_max, sorted by length.

    ``certificate`` records the word-length bound that guarantees
    completeness and how it was obtained.  In capped mode (non-co-compact
    presets) ``certified_l_max`` may fall short of ``l_max``.
    """

    group: FuchsianGroup
    l_max: float
    oriented: bool
    records: tuple[GeodesicRecord, ...]
    certificate: dict = field(default_factory=dict)

    @property
    def certified_l_max(self) -> float:
        return self.certificate.get("certified_l_max", self.l_max)

    def primitives(self) -> list[GeodesicRecord]:
        return [r for r in self.records if r.power == 1]


_CHUNK = 1_500_000  # rows per vectorized extension block


def _letter_matrices(group: FuchsianGroup) -> tuple[np.ndarray, np.ndarray]:
    """Matrices indexed by letter code i in 0..2r-1 plus the inverse table."""
    r = group.rank
    mats = group.generator_array()
    inv = np.concatenate([np.arange(r, 2 * r), np.arange(r)])
    return mats, inv


def _codes_to_word(codes: Iterable[int], rank: int) -> Word:
    return tuple(int(c) + 1 if c < rank else rank - int(c) - 1 for c in codes)


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b for equal-shape 2-d unsigned arrays."""
    less = np.zeros(len(a), dtype=bool)
    decided = np.zeros(len(a), dtype=bool)
    for j in range(a.shape[1]):
        lt = a[:, j] < b[:, j]
        gt = a[:, j] > b[:, j]
        less |= lt & ~decided
        decided |= lt | gt
    return less


def _pack_rows(block: np.ndarray) -> np.ndarray:
    """Pack uint8 code rows into big-endian uint64 words for fast compares."""
    n = block.shape[1]
    pad = (-n) % 8
    if pad:
        block = np.concatenate(
            [block, np.zeros((len(block), pad), np.uint8)], axis=1
        )
    return np.ascontiguousarray(block).view(">u8").reshape(len(block), -1)


def _unique_min_rotations(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Deduplicate code rows up to cyclic rotation, vectorized per length.

    Rotation order here is plain byte order, which differs from the word
    canonical order; that is fine because any fixed rotation rule collapses
    identical cyclic words equally.
    """
    out: list[np.ndarray] = []
    by_len: dict[int, list[np.ndarray]] = {}
    for b in blocks:
        if len(b):
            by_len.setdefault(b.shape[1], []).append(b)
    for n, parts in sorted(by_len.items()):
        block = np.concatenate(parts).astype(np.uint8, copy=False)
        best = _pack_rows(block)
        best_start = np.zeros(len(block), dtype=np.int32)
        for r in range(1, n):
            packed = _pack_rows(
                np.concatenate([block[:, r:], block[:, :r]], axis=1)
            )
            swap = _lex_less(packed, best)
            best[swap] = packed[swap]
            best_start[swap] = r
        _, first = np.unique(
            best.view(np.dtype((np.void, best.shape[1] * 8))), return_index=True
        )
        rows = block[first]
        starts = best_start[first]
        rotated = np.empty_like(rows)
        for r in np.unique(starts):
            sel = starts == r
            rotated[sel] = np.concatenate(
                [rows[sel][:, r:], rows[sel][:, :r]], axis=1
            )
        out.append(rotated)
    return out


def _shell_survivors(
    words: np.ndarray, mats: np.ndarray, inv: np.ndarray, tr_cut: float
) -> np.ndarray:
    """Rows that are cyclically reduced and hyperbolic with ell <= Lmax."""
    tr = np.abs(mats[:, 0] + mats[:, 3])
    keep = (tr > 2.0 + 1e-9) & (tr <= tr_cut)
    if words.shape[1] > 1:
        keep &= words[:, 0] != inv[words[:, -1]]
    return keep


def _extend_shell(
    words: np.ndarray,
    mats: np.ndarray,
    gen_mats: np.ndarray,
    inv: np.ndarray,
    forbidden_codes: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Append every non-cancelling letter to every row, in chunks."""
    n_letters = len(gen_mats)
    new_words, new_mats = [], []
    for letter in range(n_letters):
        ok = words[:, -1] != inv[letter]
        idx = np.flatnonzero(ok)
        for start in range(0, len(idx), _CHUNK):
            sel = idx[start : start + _CHUNK]
            w2 = np.concatenate(
                [words[sel], np.full((len(sel), 1), letter, np.int8)], axis=1
            )
            m2 = mats[sel]
            if forbidden_codes is not None and w2.shape[1] >= 5:
                code = np.zeros(len(w2), dtype=np.int64)
                for j in range(5):
                    code = code * n_letters + w2[:, w2.shape[1] - 5 + j]
                good = ~np.isin(code, forbidden_codes)
                w2, m2 = w2[good], m2[good]
            prod = np.einsum(
                "nij,jk->nik", m2.reshape(-1, 2, 2), gen_mats[letter]
            ).reshape(-1, 4)
            new_words.append(w2)
            new_mats.append(prod)
    return np.concatenate(new_words), np.concatenate(new_mats)


def _forbidden_5gram_codes(group: GroupPreset, n_letters: int) -> np.ndarray:
    """Base-(2r) codes of all 5-letter windows of the cyclic relator forms.

    A reduced word containing one is Dehn-reducible, and spellings read off
    axis crossings never contain one (a geodesic passes at most half way
    around a vertex), so such rows can be dropped without losing classes.
    """
    rel = group.relator

    def to_codes(word: Word) -> list[int]:
        r = group.rank
        return [l - 1 if l > 0 else r - l - 1 for l in word]

    grams = set()
    for base_word in (rel, invert_word(rel)):
        codes = to_codes(base_word)
        doubled = codes + codes
        for i in range(len(codes)):
            grams.add(tuple(doubled[i : i + 5]))
    packed = sorted(
        sum(c * n_letters ** (4 - j) for j, c in enumerate(g)) for g in grams
    )
    return np.asarray(packed, dtype=np.int64)


def _enumerate_cocompact(
    group: FuchsianGroup, l_max: float
) -> tuple[list[np.ndarray], dict]:
    """Displacement-pruned shell BFS; complete for the octagon preset.

    Prunes rows whose prefix moves the base point farther than
    l_max + 2R + margin.  Shells then empty out on their own; the certificate
    is the last nonempty shell.
    """
    big_r = math.acosh(1.0 / math.tan(math.pi / 8) ** 2)
    margin = 0.5
    d_cut = l_max + 2 * big_r + margin
    norm2_cut = 2.0 * math.cosh(d_cut)  # cosh d(i, g i) = ||g||_F^2 / 2
    # slack keeps borderline classes; records re-filter with exact traces
    tr_cut = 2.0 * math.cosh(l_max / 2) * (1.0 + 1e-9)

    gen_mats, inv = _letter_matrices(group)
    forbidden = _forbidden_5gram_codes(group.group, len(gen_mats))

    words = np.arange(len(gen_mats), dtype=np.int8)[:, None]
    mats = gen_mats.reshape(len(gen_mats), 4).copy()
    survivors: list[np.ndarray] = []
    shell = 1
    total_rows = 0
    while len(words):
        total_rows += len(words)
        keep = _shell_survivors(words, mats, inv, tr_cut)
        if keep.any():
            survivors.append(words[keep].copy())
        norm2 = (mats * mats).sum(axis=1)
        within = norm2 <= norm2_cut
        words, mats = words[within], mats[within]
        if not len(words):
            break
        words, mats = _extend_shell(words, mats, gen_mats, inv, forbidden)
        shell += 1
        if shell > 64:
            raise IncompleteEnumeration(
                "displacement-pruned shells failed to terminate"
            )
    cert = {
        "method": "displacement-pruned shells",
        "word_length_bound": shell,
        "displacement_cut": d_cut,
        "rows_visited": total_rows,
        "certified_l_max": l_max,
        "complete": True,
    }
    return survivors, cert


def _enumerate_free(
    group: FuchsianGroup,
    l_max: float,
    max_word_length: int,
    allow_incomplete: bool,
) -> tuple[list[np.ndarray], dict]:
    """Cyclically reduced shell enumeration for free presets.

    In a free group every conjugacy class is a unique cyclic word, so plain
    enumeration is complete once the per-shell minimum length clears l_max.
    Two consecutive clear shells are required: the minimum can dip once when
    mixed spellings first appear.  For the cusped preset minimum lengths grow
    only logarithmically in the shell, so the cap triggers capped mode.
    """
    tr_cut = 2.0 * math.cosh(l_max / 2) * (1.0 + 1e-9)
    gen_mats, inv = _letter_matrices(group)
    words = np.arange(len(gen_mats), dtype=np.int8)[:, None]
    mats = gen_mats.reshape(len(gen_mats), 4).copy()
    survivors: list[tuple[np.ndarray, np.ndarray]] = []
    shell_mins: list[float] = []
    shell = 1
    total_rows = 0
    clear = 0
    while True:
        total_rows += len(words)
        keep = _shell_survivors(words, mats, inv, tr_cut)
        if keep.any():
            m = mats[keep]
            survivors.append((words[keep].copy(), np.abs(m[:, 0] + m[:, 3])))
        tr = np.abs(mats[:, 0] + mats[:, 3])
        cyc = (
            words[:, 0] != inv[words[:, -1]]
            if words.shape[1] > 1
            else np.ones(len(words), bool)
        )
        hyp = tr[cyc] > 2.0 + 1e-9
        shell_min = (
            float(2 * np.arccosh(tr[cyc][hyp].min() / 2)) if hyp.any() else math.inf
        )
        shell_mins.append(shell_min)
        clear = clear + 1 if shell_min > l_max else 0
        if clear >= 2:
            cert = {
                "method": "cyclically reduced shells, two-shell margin",
                "word_length_bound": shell,
                "shell_min_lengths": shell_mins,
                "rows_visited": total_rows,
                "certified_l_max": l_max,
                "complete": True,
            }
            return [w for w, _ in survivors], cert
        if shell >= max_word_length:
            certified = min(min(shell_mins[-2:]), l_max)
            cert = {
                "method": "cyclically reduced shells, capped",
                "word_length_bound": shell,
                "shell_min_lengths": shell_mins,
                "rows_visited": total_rows,
                "certified_l_max": certified,
                "complete": False,
            }
            if not allow_incomplete:
                raise IncompleteEnumeration(
                    f"word length {max_word_length} certifies only "
                    f"ell <= {certified:.3f} < {l_max}; "
                    "pass allow_incomplete=True for a capped spectrum"
                )
            cap_tr = 2.0 * math.cosh(certified / 2) * (1.0 + 1e-9)
            return [w[t <= cap_tr] for w, t in survivors], cert
        words, mats = _extend_shell(words, mats, gen_mats, inv, None)
        shell += 1


def build_spectrum(
    group: FuchsianGroup,
    l_max: float,
    oriented: bool = True,
    max_word_length: int = 14,
    allow_incomplete: bool = False,
) -> LengthSpectrum:
    """Enumerate all conjugacy classes with ell <= l_max.

    Returns primitive classes and their powers.  Lengths of powers are
    computed as k times the primitive length, never from power traces.
    When ``oriented`` both orientations of each class appear; otherwise one
    representative per inversion pair is kept.
    """
    if l_max <= 0:
        raise InvalidParameters("l_max must be positive")
    if group.cocompact:
        raw, cert = _enumerate_cocompact(group, l_max)
    else:
        raw, cert = _enumerate_free(group, l_max, max_word_length, allow_incomplete)
    effective_l_max = cert["certified_l_max"]

    # dedup spellings cheaply by minimal rotation before full
    # canonicalization (surface groups fold Dehn-equivalent spellings there)
    preset_group = group.group
    rank = group.rank
    roots: dict[Word, ConjugacyClass] = {}
    for block in _unique_min_rotations(raw):
        for row in block:
            cls = canonical_class(_codes_to_word(row, rank), preset_group)
            root, _ = primitive_root(cls, preset_group)
            if root.canonical not in roots:
                roots[root.canonical] = root

    records: list[GeodesicRecord] = []
    seen: set[Word] = set()
    for root in roots.values():
        if root.canonical in seen:
            continue
        trace = float(np.trace(holonomy(group, root.canonical)))
        try:
            ell0 = length_of(trace)
        except NonHyperbolicElement:
            continue  # cusp word on the non-compact preset
        if ell0 > effective_l_max:
            continue
        hom0 = abelianize(root.canonical, preset_group)
        inv_cls = canonical_class(root.inverse_canonical, preset_group)
        seen.add(root.canonical)
        seen.add(inv_cls.canonical)
        chiral = inv_cls.canonical != root.canonical
        pair = [root]
        if oriented and chiral:
            pair.append(inv_cls)
        if not oriented and root.pick_unoriented() != root.canonical:
            pair = [inv_cls]
        for cls0 in pair:
            hom = (
                hom0
                if cls0.canonical == root.canonical
                else tuple(-h for h in hom0)
            )
            k = 1
            while k * ell0 <= effective_l_max:
                word_k = (
                    cls0.canonical
                    if k == 1
                    else min_rotation(word_power(cls0.canonical, k))
                )
                cls_k = (
                    cls0 if k == 1 else canonical_class(word_k, preset_group)
                )
                ell = k * ell0
                records.append(
                    GeodesicRecord(
                        class_id=-1,
                        cls=cls_k,
                        length=ell,
                        primitive_length=ell0,
                        power=k,
                        log_det=log_poincare_det(ell),
                        homology=tuple(k * h for h in hom),
                    )
                )
                k += 1

    records.sort(key=lambda r: (r.length, word_sort_key(r.word)))
    final = [
        GeodesicRecord(
            class_id=i,
            cls=r.cls,
            length=r.length,
            primitive_length=r.primitive_length,
            power=r.power,
            log_det=r.log_det,
            homology=r.homology,
        )
        for i, r in enumerate(records)
    ]
    return LengthSpectrum(
        group=group,
        l_max=l_max,
        oriented=oriented,
        records=tuple(final),
        certificate=cert,
    )


def unoriented_primitives(spectrum: LengthSpectrum) -> list[GeodesicRecord]:
    """One primitive record per geodesic, orientation folded away.

    In an oriented spectrum each geodesic appears as a chiral pair of
    records; random-cover and Poisson models must treat the pair as one
    random object (a permutation and its inverse share fixed points), so
    the representative with the smaller canonical word is kept.
    """
    if not spectrum.oriented:
        return spectrum.primitives()
    return [
        rec
        for rec in spectrum.primitives()
        if word_sort_key(rec.cls.canonical) <= word_sort_key(rec.cls.inverse_canonical)
    ]


def truncate_spectrum(spectrum: LengthSpectrum, l_max: float) -> LengthSpectrum:
    """Restrict to classes with ell <= l_max.

    A complete spectrum stays complete under truncation, so one expensive
    enumeration can serve every shorter cutoff.
    """
    if l_max > spectrum.certified_l_max:
        raise ValueError(
            f"cannot truncate to {l_max}: certified only to {spectrum.certified_l_max}"
        )
    cert = dict(spectrum.certificate)
    cert["certified_l_max"] = l_max
    cert["truncated_from"] = spectrum.l_max
    return LengthSpectrum(
        group=spectrum.group,
        l_max=l_max,
        oriented=spectrum.oriented,
        records=tuple(r for r in spectrum.records if r.length <= l_max),
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# spectrum checks and tail sums


def anosov_power_check(spectrum: LengthSpectrum) -> dict:
    """Verify |det(I-P_{g^k})| >= e^{(k-1) ell0} |det(I-P_g)| on all records.

    In curvature -1 the contraction bound holds with C = 1, theta = 1:
    sinh(k x) >= e^{(k-1) x} sinh(x).
    """
    checked = 0
    min_margin = math.inf
    for rec in spectrum.records:
        lhs = rec.log_det
        rhs = (rec.power - 1) * rec.primitive_length + log_poincare_det(
            rec.primitive_length
        )
        min_margin = min(min_margin, lhs - rhs)
        checked += 1
    return {
        "checked": checked,
        "min_log_margin": min_margin,
        "all_pass": min_margin >= -1e-12,
    }


def exponential_tail(spectrum: LengthSpectrum, degree: int, s: float) -> float:
    """Sum of ell^degree * e^{-s*ell} / |det(I-P)| over the spectrum.

    Accumulated from log-space with compensated summation; the terms decay
    like e^{-(1+s) ell} so the value is finite and decreasing in s.
    """
    total = 0.0
    comp = 0.0
    for rec in spectrum.records:
        term = math.exp(
            degree * math.log(rec.length) - s * rec.length - rec.log_det
        )
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


# ---------------------------------------------------------------------------
# CSV round trip


_LETTERS = "abcdefgh"


def word_to_text(word: Word) -> str:
    """Compact spelling: generator i -> letter, inverse -> uppercase."""
    out = []
    for letter in word:
        idx = abs(letter) - 1
        if idx >= len(_LETTERS):
            raise InvalidParameters("word uses more generators than supported")
        ch = _LETTERS[idx]
        out.append(ch if letter > 0 else ch.upper())
    return "".join(out)


def word_from_text(text: str) -> Word:
    out = []
    for ch in text:
        idx = _LETTERS.find(ch.lower())
        if idx < 0:
            raise ValueError(f"bad word letter {ch!r}")
        out.append(idx + 1 if ch.islower() else -(idx + 1))
    return tuple(out)


def spectrum_to_csv(spectrum: LengthSpectrum, path: str) -> None:
    """Write records with full decimal precision (repr round trip)."""
    rank = spectrum.group.rank
    header = (
        ["classId", "word", "ell", "ell_sharp", "k", "log_detIminusP"]
        + [f"h{i}" for i in range(rank)]
    )
    tmp = f"{path}.tmp"
    params = ",".join(repr(p) for p in spectrum.group.params)
    with open(tmp, "w", newline="") as fh:
        fh.write(f"# preset={spectrum.group.name} params={params}\n")
        fh.write(
            f"# format_version={SPECTRUM_FORMAT_VERSION} "
            f"l_max={spectrum.l_max!r} oriented={spectrum.oriented} "
            f"certified_l_max={spectrum.certified_l_max!r}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in spectrum.records:
            writer.writerow(
                [
                    rec.class_id,
                    word_to_text(rec.word),
                    repr(rec.length),
                    repr(rec.primitive_length),
                    rec.power,
                    repr(rec.log_det),
                ]
                + [str(h) for h in rec.homology]
            )
    os.replace(tmp, path)


def spectrum_from_csv(path: str) -> tuple[list[dict], dict]:
    """Read back rows as dicts plus the meta header."""
    meta: dict = {}
    rows: list[dict] = []
    with open(path, newline="") as fh:
        header: list[str] | None = None
        for line in fh:
            if line.startswith("#"):
                for token in line[1:].strip().split():
                    if "=" in token:
                        key, val = token.split("=", 1)
                        meta[key] = val
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
                continue
            row = dict(zip(header, cells))
            rows.append(
                {
                    "classId": int(row["classId"]),
                    "word": word_from_text(row["word"]),
                    "ell": float(row["ell"]),
                    "ell_sharp": float(row["ell_sharp"]),
                    "k": int(row["k"]),
                    "log_detIminusP": float(row["log_detIminusP"]),
                    "homology": tuple(
                        int(row[k]) for k in header if k.startswith("h")
                    ),
                }
            )
    return rows, meta


def load_spectrum(path: str) -> LengthSpectrum:
    """Reconstruct a spectrum, conjugacy classes included, from its CSV."""
    rows, meta = spectrum_from_csv(path)
    if int(meta.get("format_version", -1)) != SPECTRUM_FORMAT_VERSION:
        raise InvalidParameters(
            f"unsupported spectrum format_version {meta.get('format_version')}"
        )
    params = [float(p) for p in meta.get("params", "").split(",") if p]
    group = preset(meta["preset"], *params)
    records = []
    for row in rows:
        cls = canonical_class(row["word"], group.group)
        records.append(
            GeodesicRecord(
                class_id=row["classId"],
                cls=cls,
                length=row["ell"],
                primitive_length=row["ell_sharp"],
                power=row["k"],
                log_det=row["log_detIminusP"],
                homology=row["homology"],
            )
        )
    l_max = float(meta["l_max"])
    certified_l_max = float(meta["certified_l_max"])
    certificate = {
        "method": "csv",
        "certified_l_max": certified_l_max,
        "complete": certified_l_max >= l_max,
    }
    return LengthSpectrum(
        group=group,
        l_max=l_max,
        oriented=meta["oriented"] == "True",
        records=tuple(records),
        certificate=certificate,
    )
