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

A spectrum lists both orientations of every chiral geodesic, and A is
invariant under orientation reversal (unitary characters give chi(g^-1) =
conj chi(g)), so the variance halves its sum over all primitive records
instead of filtering them down to P0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from scipy.integrate import simpson

from .characters import FluxCharacter, MatrixRep
from .fuchsian import GeodesicRecord, LengthSpectrum
from .windows import Window


class SpectrumTooShort(ValueError):
    """Spectrum is not certified out to the requested cutoff L."""


class UnderResolved(ValueError):
    """Quadrature step too coarse for the fastest oscillation present."""


class DirichletNotFound(LookupError):
    """No frequency met the constraints below the search ceiling."""


def _require_certified(spectrum: LengthSpectrum, needed: float, what: str = "L") -> None:
    if spectrum.certified_l_max < needed:
        raise SpectrumTooShort(
            f"spectrum certified to {spectrum.certified_l_max:.6g} < {what}={needed:.6g}"
        )


# ---------------------------------------------------------------------------
# arithmetic weights


def divisor_count(k: int) -> int:
    """d(k), the number of divisors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1 for d in range(1, k + 1) if k % d == 0)


def divisor_sum(k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(d for d in range(1, k + 1) if k % d == 0)


def gcd_weight(k1: int, k2: int) -> int:
    """V(k1,k2) = sum of divisors of gcd(k1,k2); V(1,1) = 1."""
    if k1 < 1 or k2 < 1:
        raise ValueError("k must be >= 1")
    return divisor_sum(math.gcd(k1, k2))


def _gcd_weight_matrix(kmax: int) -> np.ndarray:
    v = np.empty((kmax, kmax))
    for i in range(1, kmax + 1):
        for j in range(1, kmax + 1):
            v[i - 1, j - 1] = gcd_weight(i, j)
    return v


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


def _check_flux_rank(flux, rank: int) -> None:
    """The one rule for flux vectors: a vector with one entry per generator."""
    if np.shape(flux) != (rank,):
        raise ValueError(f"flux has {np.size(flux)} entries for rank {rank}")


def _pair_values_bulk(char, records, kmax: int) -> np.ndarray:
    """(kmax, n) array of (chi+conj)(g^k) for k = 1..kmax."""
    n = len(records)
    ks = np.arange(1, kmax + 1)[:, None]
    if char is None:
        return np.full((kmax, n), 2.0)
    if isinstance(char, FluxCharacter):
        if n:
            _check_flux_rank(char.flux, len(records[0].homology))
        hom = np.array([r.homology for r in records], dtype=float).reshape(n, char.rank)
        theta = char.scale * (hom @ np.asarray(char.flux))
        return 2.0 * np.cos(ks * theta[None, :])
    if isinstance(char, MatrixRep):
        out = np.empty((kmax, n))
        for i, r in enumerate(records):
            eig = np.linalg.eigvals(char.image_of(r.word))
            for k in range(1, kmax + 1):
                out[k - 1, i] = 2.0 * np.sum(eig**k).real
        return out
    raise TypeError(f"unsupported character {type(char).__name__}")


# ---------------------------------------------------------------------------
# trace-formula coefficients


def _coefficient_factors(
    prims: Sequence[GeodesicRecord], char, window: Window, L: float, kmax: int
) -> tuple[np.ndarray, np.ndarray]:
    """The lambda-free factors of A(gamma,k) = weight * cos(lambda * freq).

    Returns (weights, freqs), each (kmax, len(prims)) with row k-1 for the
    k-th power; the determinant is evaluated in log space so long geodesics
    cannot overflow, and psi_hat zeroes every k*l > L exactly.
    """
    ells = np.array([r.primitive_length for r in prims])
    ks = np.arange(1, kmax + 1)[:, None]
    kl = ks * ells[None, :]
    psi = window.psi_hat(kl / L)
    log_det = kl + 2.0 * np.log1p(-np.exp(-kl))
    chi2 = _pair_values_bulk(char, prims, kmax)
    return chi2 * psi * ells[None, :] * np.exp(-0.5 * log_det), kl


def coeff_A(
    record: GeodesicRecord,
    k: int,
    char,
    window: Window,
    lam: float,
    L: float,
) -> float:
    """A(gamma,k): one term of the variance double sum.

    The one-record slice of the coefficient table; zero whenever k*l > L.
    """
    if record.power != 1:
        raise ValueError("record must be primitive (power 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    if lam <= 0 or L <= 0:
        raise ValueError("lambda and L must be positive")
    weights, freqs = _coefficient_factors([record], char, window, L, k)
    return float(weights[k - 1, 0] * np.cos(lam * freqs[k - 1, 0]))


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Dense A(gamma,k) values for the primitive classes of a spectrum.

    Row k-1 holds A(gamma,k); columns follow ``class_ids``.  ``weights``
    and ``freqs`` factor A = weight * cos(lambda * freq) so the same table
    can be re-evaluated across lambda without touching the spectrum.
    """

    lam: float
    L: float
    kmax: int
    window_kind: str
    char_id: str
    class_ids: np.ndarray
    weights: np.ndarray
    freqs: np.ndarray
    coeffs: np.ndarray


def coefficient_table(
    primitives: Sequence[GeodesicRecord], char, window: Window, lam: float, L: float
) -> CoefficientTable:
    """A(gamma,k) over the given primitive records with l <= L.

    The caller chooses the records: every primitive record of a spectrum
    (both orientations) or the P0 records of ``unoriented_primitives``.
    """
    if lam <= 0 or L <= 0:
        raise ValueError("lambda and L must be positive")
    prims = [r for r in primitives if r.primitive_length <= L]
    prims.sort(key=lambda r: r.class_id)
    if prims:
        kmax = int(L / min(r.primitive_length for r in prims))
    else:
        kmax = 1
    weights, freqs = _coefficient_factors(prims, char, window, L, kmax)
    return CoefficientTable(
        lam=lam,
        L=L,
        kmax=kmax,
        window_kind=window.kind,
        char_id=character_id(char),
        class_ids=np.array([r.class_id for r in prims], dtype=int),
        weights=weights,
        freqs=freqs,
        coeffs=weights * np.cos(lam * freqs),
    )


# ---------------------------------------------------------------------------
# the limiting variance


@dataclass(frozen=True)
class VarianceReport:
    sigma2: float
    smooth_part: float
    osc_part: float
    nonprimitive_tail: float
    lam: float
    L: float
    kmax: int
    n_classes: int
    certified_l_max: float
    window_kind: str
    char_id: str

    def as_dict(self) -> dict:
        return {
            "sigma2": self.sigma2,
            "smoothPart": self.smooth_part,
            "oscPart": self.osc_part,
            "nonprimitiveTail": self.nonprimitive_tail,
            "lambda": self.lam,
            "L": self.L,
            "kmax": self.kmax,
            "nClasses": self.n_classes,
            "certifiedLmax": self.certified_l_max,
            "window": self.window_kind,
            "character": self.char_id,
        }


class SigmaEvaluator:
    """Sigma^2(lambda) for fixed spectrum/character/window/L.

    Precomputes the lambda-independent weights once, so frequency sweeps
    (energy averages, Dirichlet scans, transition curves) cost one cosine
    table per evaluation.
    """

    def __init__(self, spectrum: LengthSpectrum, char, window: Window, L: float):
        _require_certified(spectrum, L)
        self.L = float(L)
        self.window = window
        self.char_id = character_id(char)
        self.certified_l_max = spectrum.certified_l_max
        table = coefficient_table(spectrum.primitives(), char, window, 1.0, L)
        self._weights = table.weights
        self._freqs = table.freqs
        self.kmax = table.kmax
        self.n_classes = self._weights.shape[1]
        self._vmat = _gcd_weight_matrix(self.kmax)

    def report(self, lam: float) -> VarianceReport:
        if lam <= 0:
            raise ValueError("lambda must be positive")
        w, f = self._weights, self._freqs
        a = w * np.cos(lam * f)
        cross = a @ a.T  # (kmax, kmax) of sums over classes
        total = float(np.sum(self._vmat * cross))
        primitive = float(cross[0, 0])
        # both orientations of each chiral geodesic are summed: halve
        scale = 2.0 / self.L**2
        w1, f1 = w[0], f[0]
        smooth = 0.5 * scale * float(np.dot(w1, w1))
        osc = 0.5 * scale * float(np.dot(w1 * w1, np.cos(2.0 * lam * f1)))
        return VarianceReport(
            sigma2=scale * total,
            smooth_part=smooth,
            osc_part=osc,
            nonprimitive_tail=scale * (total - primitive),
            lam=lam,
            L=self.L,
            kmax=self.kmax,
            n_classes=self.n_classes,
            certified_l_max=self.certified_l_max,
            window_kind=self.window.kind,
            char_id=self.char_id,
        )

    def sigma2(self, lam: float) -> float:
        return self.report(lam).sigma2

    def smooth(self) -> float:
        w1 = self._weights[0]
        return 1.0 / self.L**2 * float(np.dot(w1, w1))


def sigma2_limit(
    spectrum: LengthSpectrum, char, window: Window, lam: float, L: float
) -> VarianceReport:
    """Full limiting variance with its smooth/oscillating/tail split."""
    return SigmaEvaluator(spectrum, char, window, L).report(lam)


# ---------------------------------------------------------------------------
# frequency averaging


def _resolved_grid(
    lo: float, span: float, l_max: float, points: int | None
) -> np.ndarray:
    if span <= 0:
        raise ValueError("averaging span must be positive")
    if points is None:
        # 32 points per period of the fastest oscillation cos(2 mu l_max)
        step = (math.pi / l_max) / 32.0
        points = max(int(math.ceil(span / step)) + 1, 9)
    if points < 3:
        raise ValueError("need at least 3 quadrature points")
    step = span / (points - 1)
    if step > math.pi / (2.0 * l_max):
        raise UnderResolved(
            f"quadrature step {step:.4g} exceeds pi/(2*l_max) = "
            f"{math.pi / (2 * l_max):.4g}"
        )
    return np.linspace(lo, lo + span, points)


def energy_average(
    fn: Callable[[float], float],
    lam: float,
    delta: float,
    l_max: float,
    points: int | None = None,
) -> float:
    """(1/delta) * integral of fn over [lam, lam+delta], Simpson rule.

    The grid must resolve the fastest oscillation cos(2 mu l_max) present
    in variance profiles; coarser steps raise UnderResolved rather than
    silently aliasing.
    """
    grid = _resolved_grid(lam, delta, l_max, points)
    vals = np.array([fn(mu) for mu in grid])
    return float(simpson(vals, x=grid)) / delta


# ---------------------------------------------------------------------------
# Dirichlet oscillation search


def dirichlet_lambda_search(
    lengths: Sequence[float],
    Y: float,
    M: float,
    lam_max: float,
    mode: str = "plus",
    chunk: int = 1_000_000,
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
    """
    rs = np.asarray(sorted(set(float(r) for r in lengths)))
    if len(rs) == 0:
        raise ValueError("need at least one length")
    if Y <= 1:
        raise ValueError("Y must exceed 1")
    if mode not in ("plus", "minus"):
        raise ValueError(f"unknown mode {mode!r}")
    step = 1.0 / (Y * float(rs.max()))
    ceiling = min(float(lam_max), M * Y ** len(rs))
    bound = 1.0 / Y
    start = M
    while start <= ceiling:
        count = min(chunk, int((ceiling - start) / step) + 1)
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
