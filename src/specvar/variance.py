"""Limiting ensemble variance of the smoothed counting function.

The variance of the level count near frequency lambda, smoothed at scale
1/L, converges over random covers to

    Sigma^2(lambda, L) = (4/L^2) sum_{gamma in P0} sum_{k1,k2 >= 1}
                         V(k1,k2) A(gamma,k1) A(gamma,k2),

where P0 runs over unoriented primitive geodesics, V(k1,k2) is the sum of
divisors of gcd(k1,k2), and

    A(gamma,k) = (chi(g^k)+conj) cos(lambda k l) psi_hat(k l / L)
                 * l / |det(I - P_{g^k})|^{1/2}.

The psi_hat support cuts every k-sum at floor(L/l) exactly, so no
truncation is approximate.  V is positive semidefinite (V = sum_d d u_d
u_d^T with u_d the divisibility indicator), hence Sigma^2 >= 0.

A spectrum lists both orientations of every geodesic, and the sum reads
one of each pair, the rows of ``unoriented_rows``: a permutation and its
inverse fix the same points, so gamma and gamma^-1 are one random object
on every cover (the time-reversal symmetry behind the GOE constant).

Two lambda-free tables serve every consumer.  ``coefficient_table`` gives
A(gamma,k) = weight * cos(lambda * freq); a run builds it once, in one
``SigmaEvaluator``, which the Poisson surrogate and the cover bridge read.
``_divisor_table`` holds D[d-1, k-1] = [d | k], whose rows are the u_d:
V = D^T diag(1..K) D, the cover mean d(k) of F_n(gamma^k) is a column
sum, and the cycle identity sum_{d|k} d C(gamma,d) is one product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import Refused
from .characters import FluxCharacter, MatrixRep
from .fuchsian import LengthSpectrum, unoriented_rows
from .windows import Window


class SpectrumTooShort(Refused):
    """Spectrum is not certified out to the requested cutoff L."""


class DirichletNotFound(Refused):
    """No frequency met the constraints below the search ceiling."""


def _require_certified(spectrum: LengthSpectrum, needed: float, what: str = "L") -> None:
    if spectrum.certified_l_max < needed:
        raise SpectrumTooShort(
            f"spectrum certified to {spectrum.certified_l_max:.6g} < {what}={needed:.6g}"
        )


# ---------------------------------------------------------------------------
# arithmetic weights


def _divisor_table(kmax: int) -> np.ndarray:
    """D[d-1, k-1] = 1 when d divides k, else 0: every divisor sum is a product with it."""
    ks = np.arange(1, kmax + 1)
    return (ks[None, :] % ks[:, None] == 0).astype(np.int64)


def _gcd_weight_matrix(kmax: int) -> np.ndarray:
    """V[k1-1, k2-1] = sum of divisors of gcd(k1, k2)."""
    table = _divisor_table(kmax)
    return (table.T * np.arange(1, kmax + 1)) @ table


# ---------------------------------------------------------------------------
# character values on powers


def character_id(char) -> str:
    if char is None:
        return "trivial"
    if isinstance(char, FluxCharacter):
        flux = ",".join(f"{f:.12g}" for f in char.flux)
        return f"flux[{flux}]*{char.scale:.12g}"
    if isinstance(char, MatrixRep):
        return f"matrix(dim={char.dimension},n={len(char.images)})"
    raise TypeError(f"unsupported character {type(char).__name__}")


def _flux_pairing(spectrum: LengthSpectrum, rows, flux) -> np.ndarray:
    """<flux, h> on the given rows; the flux needs one entry per generator.

    The rank is read off the homology column, which has it even with no
    rows, so the check does not depend on which rows are selected.
    """
    rank = spectrum.homology.shape[1]
    if np.shape(flux) != (rank,):
        raise Refused(f"flux has {np.size(flux)} entries for rank {rank}")
    return spectrum.homology[rows] @ np.asarray(flux, dtype=float)


def _pair_values_bulk(char, spectrum: LengthSpectrum, rows, kmax: int) -> np.ndarray:
    """(kmax, len(rows)) array of (chi+conj)(g^k) for k = 1..kmax."""
    n = len(rows)
    ks = np.arange(1, kmax + 1)[:, None]
    if char is None:
        return np.full((kmax, n), 2.0)
    if isinstance(char, FluxCharacter):
        theta = char.scale * _flux_pairing(spectrum, rows, char.flux)
        return 2.0 * np.cos(ks * theta[None, :])
    if isinstance(char, MatrixRep):
        out = np.empty((kmax, n))
        for j, word in enumerate(spectrum.words(rows)):
            eig = np.linalg.eigvals(char.image_of(word))
            for k in range(1, kmax + 1):
                out[k - 1, j] = 2.0 * np.sum(eig**k).real
        return out
    raise TypeError(f"unsupported character {type(char).__name__}")


# ---------------------------------------------------------------------------
# trace-formula coefficients


def coefficient_table(
    spectrum: LengthSpectrum, rows, char, window: Window, L: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lambda-free factors of A(gamma,k) = weight * cos(lambda * freq).

    Returns (rows, weights, freqs): the given primitive rows of the
    spectrum with l <= L, in the order given, and two (kmax, len(rows))
    arrays with row k-1 for the k-th power, kmax = floor(L / min l).  The
    library passes P0, the rows of ``unoriented_rows``.  The determinant
    is evaluated in log space so long geodesics cannot overflow, and
    psi_hat zeroes every k*l > L exactly.
    """
    if not L > 0:
        raise Refused("L must be positive")
    rows = np.asarray(rows, dtype=np.int64)
    rows = rows[spectrum.primitive_length[rows] <= L]
    ells = spectrum.primitive_length[rows]
    kmax = int(L / ells.min()) if len(rows) else 1
    kl = np.arange(1, kmax + 1)[:, None] * ells[None, :]
    psi = window.psi_hat(kl / L)
    log_det = kl + 2.0 * np.log1p(-np.exp(-kl))
    chi2 = _pair_values_bulk(char, spectrum, rows, kmax)
    return rows, chi2 * psi * ells[None, :] * np.exp(-0.5 * log_det), kl


def coeff_A(
    spectrum: LengthSpectrum, row: int, k: int, char, window: Window, lam: float, L: float
) -> float:
    """A(gamma,k) of the primitive record in the given row; zero whenever k*l > L."""
    if spectrum.power[row] != 1:
        raise ValueError("record must be primitive (power 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    rows, weights, freqs = coefficient_table(spectrum, [row], char, window, L)
    a = weights * np.cos(lam * freqs)
    return float(a[k - 1, 0]) if len(rows) and k <= len(a) else 0.0


# ---------------------------------------------------------------------------
# the limiting variance


@dataclass(frozen=True)
class VarianceReport:
    sigma2: float
    smooth_part: float
    osc_part: float
    nonprimitive_tail: float


class SigmaEvaluator:
    """Sigma^2(lambda) for fixed spectrum/character/window/L.

    Holds the coefficient table of the P0 columns with l <= L (``rows``,
    ``weights``, ``freqs``), built once, so frequency sweeps (energy
    averages, Dirichlet scans, transition curves) and the samplers that
    read the same A(gamma,k) cost one cosine table per frequency.
    """

    def __init__(self, spectrum: LengthSpectrum, char, window: Window, L: float):
        _require_certified(spectrum, L)
        self.spectrum, self.window, self.L = spectrum, window, float(L)
        self.char_id = character_id(char)
        self.rows, self.weights, self.freqs = coefficient_table(
            spectrum, unoriented_rows(spectrum), char, window, L
        )
        self.kmax, self.n_classes = self.weights.shape
        self._vmat = _gcd_weight_matrix(self.kmax)

    def coefficients(self, lam: float) -> np.ndarray:
        """A(gamma,k) at lambda: row k-1, column j for spectrum row ``rows[j]``."""
        return self.weights * np.cos(lam * self.freqs)

    def report(self, lam: float) -> VarianceReport:
        if not lam > 0:
            raise Refused("lambda must be positive")
        a = self.coefficients(lam)
        cross = a @ a.T  # (kmax, kmax) of sums over classes
        total = float(np.sum(self._vmat * cross))
        primitive = float(cross[0, 0])
        scale = 4.0 / self.L**2
        w1, f1 = self.weights[0], self.freqs[0]
        smooth = 0.5 * scale * float(np.dot(w1, w1))
        osc = 0.5 * scale * float(np.dot(w1 * w1, np.cos(2.0 * lam * f1)))
        return VarianceReport(
            sigma2=scale * total,
            smooth_part=smooth,
            osc_part=osc,
            nonprimitive_tail=scale * (total - primitive),
        )

    def sigma2(self, lam: float) -> float:
        return self.report(lam).sigma2


def sigma2_limit(
    spectrum: LengthSpectrum, char, window: Window, lam: float, L: float
) -> VarianceReport:
    """Full limiting variance with its smooth/oscillating/tail split."""
    return SigmaEvaluator(spectrum, char, window, L).report(lam)


# ---------------------------------------------------------------------------
# frequency averaging


def _resolved_grid(lo: float, span: float, l_max: float) -> np.ndarray:
    """The averaging grid on [lo, lo + span]: 32 points per period of cos(2 mu l_max), at least 9."""
    if not span > 0:
        raise Refused("averaging span must be positive")
    step = (math.pi / l_max) / 32.0
    points = max(int(math.ceil(span / step)) + 1, 9)
    return np.linspace(lo, lo + span, points)


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Quadrature weights w with w @ y the composite Simpson integral of y over x.

    The coefficients of SciPy's ``integrate.simpson`` (1.11 and later):
    the rule for unequal spacings on each pair of intervals, and on an
    even number of points Cartwright's correction for the last interval.
    The sum is grouped per sample, so it agrees with SciPy to rounding,
    not bit for bit.  Needs at least 3 strictly increasing points.
    """
    n = len(x)
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    h0_over_h1 = h0 / h1
    scale = hsum / 6.0
    w = np.zeros(n)
    w[0:stop:2] += scale * (2.0 - 1.0 / h0_over_h1)
    w[1 : stop + 1 : 2] += scale * (hsum * (hsum / (h0 * h1)))
    w[2 : stop + 2 : 2] += scale * (2.0 - h0_over_h1)
    if n % 2 == 0:
        ha, hb = h[-2:]
        w[-1] += (2 * hb**2 + 3 * ha * hb) / (6 * (hb + ha))
        w[-2] += (hb**2 + 3.0 * ha * hb) / (6 * ha)
        w[-3] -= hb**3 / (6 * ha * (ha + hb))
    return w


def energy_average(evaluator: SigmaEvaluator, lam: float, delta: float) -> float:
    """(1/delta) * integral of Sigma^2 over [lam, lam+delta], Simpson rule.

    The grid resolves the fastest oscillation cos(2 mu L) of the
    evaluator's profile (``_resolved_grid`` at its cutoff L).
    """
    grid = _resolved_grid(lam, delta, evaluator.L)
    vals = np.array([evaluator.sigma2(mu) for mu in grid])
    return float(_simpson_weights(grid) @ vals) / delta


# ---------------------------------------------------------------------------
# Dirichlet oscillation search

_SEARCH_CHUNK = 1_000_000  # grid points per vectorised block
# grid points x distinct lengths one search may test (about 10 s of
# compares); the octagon's plus-mode hit at L = 5, Y = 8 takes 1.8e8
_SEARCH_BUDGET = 250_000_000
_TIE_RTOL = 1e-12  # lengths this close (relative) are one length written twice


def _distinct_lengths(lengths: Sequence[float]) -> np.ndarray:
    """Sorted lengths, each run of ties collapsed to the run's first length.

    A run continues while the gap to the previous length is at most
    _TIE_RTOL times the run's first length, so one length computed along
    different words (last-bit variants) counts once.
    """
    rs = np.sort(np.asarray(lengths, dtype=float))
    keep = np.ones(len(rs), dtype=bool)
    first = rs[0] if len(rs) else 0.0
    for i in range(1, len(rs)):
        if rs[i] - rs[i - 1] <= _TIE_RTOL * first:
            keep[i] = False
        else:
            first = rs[i]
    return rs[keep]


def dirichlet_lambda_search(
    lengths: Sequence[float],
    Y: float,
    M: float,
    lam_max: float,
    mode: str = "plus",
) -> float:
    """First frequency aligning all phases lambda*r_j at quality 1/Y.

    plus mode: |exp(i lambda r_j) - 1| <= 1/Y for every length (all
    cosines near +1, pushing the oscillating part to +smooth).  minus
    mode: |cos(lambda r_j)| <= 1/Y (cosines near zero, so cos(2 lambda r)
    is near -1 and the oscillating part approaches -smooth).

    Grid search from M up to min(lam_max, M*Y^N).  The feasible windows
    are ~2/Y wide in the phase lambda*max r, so the step keeps the phase
    increment at 1/Y: every window contains at least two grid points and
    cannot be stepped over.  The box principle guarantees a hit below
    M*Y^N only for plus mode, so NotFound reports the ceiling scanned.
    N counts tied lengths once (``_distinct_lengths``).  A search that
    would test more than _SEARCH_BUDGET grid points x lengths stops there
    with NotFound naming the last frequency scanned.
    """
    rs = _distinct_lengths(lengths)
    if len(rs) == 0:
        raise Refused("need at least one length")
    if not Y > 1:
        raise Refused("Y must exceed 1")
    if not M > 0:
        raise Refused(f"search start M must be positive, got {M:g}")
    if mode not in ("plus", "minus"):
        raise Refused(f"unknown mode {mode!r}")
    step = 1.0 / (Y * float(np.max(lengths)))  # the largest raw length, so no window is stepped over
    ceiling = min(float(lam_max), M * Y ** len(rs))
    bound = 1.0 / Y
    budget = _SEARCH_BUDGET // len(rs)  # grid points left
    start = M
    while start <= ceiling:
        if budget <= 0:
            raise DirichletNotFound(
                f"search budget of {_SEARCH_BUDGET:.3g} grid points x lengths spent: no lambda in "
                f"[{M:.9g}, {start - step:.9g}] met the {mode} constraints at Y={Y} (ceiling {ceiling:.9g})"
            )
        count = min(_SEARCH_CHUNK, budget, int((ceiling - start) / step) + 1)
        budget -= count
        grid = start + step * np.arange(count)
        if mode == "plus":
            # |e^{i l r} - 1| = 2|sin(l r / 2)|
            ok = np.all(2.0 * np.abs(np.sin(0.5 * grid[:, None] * rs[None, :])) <= bound, axis=1)
        else:
            ok = np.all(np.abs(np.cos(grid[:, None] * rs[None, :])) <= bound, axis=1)
        hits = np.nonzero(ok)[0]
        if len(hits):
            return float(grid[hits[0]])
        start = float(grid[-1]) + step
    raise DirichletNotFound(
        f"no lambda in [{M:.6g}, {ceiling:.6g}] met the {mode} constraints at Y={Y}"
    )
