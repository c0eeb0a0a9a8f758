"""The degree-infinity surrogate: independent Poisson cycle counts.

In the large-degree limit the cycle counts C(gamma, d) of a random cover
become independent Poisson variables Z_{gamma,d} with mean 1/d, one per
unoriented primitive class and cycle length.  The smoothed count
fluctuation collapses to a weighted sum of centered Poissons,

    N_tilde = sum_{gamma, d} c_{gamma,d} (Z_{gamma,d} - 1/d),
    c_{gamma,d} = (2/L) d sum_j A(gamma, d j),

whose cumulants are exact finite sums: kappa_m = sum c^m / d.  That makes
the surrogate both a sampler (CLT, ergodicity experiments) and an oracle
(kappa_2 must reproduce the limiting variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.stats import kstest

from .characters import breaks_time_reversal
from .fuchsian import LengthSpectrum, unoriented_primitives
from .rng import stream
from .variance import (
    _require_certified,
    _resolved_grid,
    character_id,
    coefficient_table,
    sigma2_limit,
)
from .windows import Window, sigma2_goe, sigma2_gue


class VarianceTooSmall(ValueError):
    """The CLT hypothesis margin sigma2 >= 10/L^2 fails."""


_POISSON_CDF_TERMS = 30
_cdf_cache: dict[int, np.ndarray] = {}


def _poisson_cdf(d: int) -> np.ndarray:
    if d not in _cdf_cache:
        mu = 1.0 / d
        j = np.arange(_POISSON_CDF_TERMS)
        from scipy.special import gammaln

        pmf = np.exp(-mu + j * math.log(mu) - gammaln(j + 1))
        _cdf_cache[d] = np.cumsum(pmf)
    return _cdf_cache[d]


def _invert_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Number of CDF entries <= u, per uniform draw u.

    Counts thresholds directly instead of a binary search: only the few
    entries up to max(u) can be hit, and each costs one vector compare.
    A uint8 count cannot overflow: the table has _POISSON_CDF_TERMS entries.
    """
    z = np.zeros(len(u), dtype=np.uint8)
    for c in cdf[cdf <= u.max(initial=0.0)]:
        z += u >= c
    return z.astype(np.int64)


def _poisson_draws(seed: int, class_id: int, d: int, draws: int) -> np.ndarray:
    """Z_{gamma,d} for consecutive draw indices, by CDF inversion.

    One counter-based stream per (seed, classId, d); the draw index is the
    position in the stream, so prefixes are stable and any partition of
    the (classId, d) grid reproduces bit-identically.
    """
    return _invert_cdf(_poisson_cdf(d), stream(seed, class_id, d).random(draws))


class PoissonSurrogate:
    """Sampler for N_tilde at fixed (spectrum, character, window, lambda, L).

    Precomputes the pair coefficients c_{gamma,d} over unoriented
    primitives; zero-support pairs are dropped so every retained pair has
    its own Poisson stream keyed by (seed, classId, d).
    """

    def __init__(
        self,
        spectrum: LengthSpectrum,
        char,
        window: Window,
        lam: float,
        L: float,
        seed: int,
    ) -> None:
        _require_certified(spectrum, L)
        self.spectrum = spectrum
        self.char = char
        self.window = window
        self.lam = float(lam)
        self.L = float(L)
        self.seed = int(seed)
        self._table = coefficient_table(unoriented_primitives(spectrum), char, window, lam, L)

        t = self._table
        n = len(t.class_ids)
        ells = t.freqs[0, :] if n else np.empty(0)
        pair_class, pair_d, pair_c = [], [], []
        for i in range(n):
            ki = int(self.L / ells[i])
            for d in range(1, ki + 1):
                s = float(t.coeffs[d - 1 :: d, i][: ki // d].sum())
                c = (2.0 / self.L) * d * s
                if c != 0.0:
                    pair_class.append(int(t.class_ids[i]))
                    pair_d.append(d)
                    pair_c.append(c)
        self.pair_class_ids = np.array(pair_class, dtype=np.int64)
        self.pair_d = np.array(pair_d, dtype=np.int64)
        self.pair_c = np.array(pair_c)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_c)

    def sample(self, draws: int) -> np.ndarray:
        """N_tilde for draw indices 0..draws-1 (prefix-stable in draws)."""
        if draws < 1:
            raise ValueError("draws must be >= 1")
        vals = np.zeros(draws)
        for cid, d, c in zip(self.pair_class_ids, self.pair_d, self.pair_c):
            z = _poisson_draws(self.seed, int(cid), int(d), draws)
            vals += c * (z - 1.0 / d)
        return vals

    def _z_matrix(self, draws: int) -> np.ndarray:
        """Centered Z draws for all retained pairs, (draws, n_pairs)."""
        out = np.empty((draws, self.n_pairs))
        for j, (cid, d) in enumerate(zip(self.pair_class_ids, self.pair_d)):
            out[:, j] = _poisson_draws(self.seed, int(cid), int(d), draws) - 1.0 / d
        return out


# ---------------------------------------------------------------------------
# exact cumulants


@dataclass(frozen=True)
class CumulantReport:
    """kappa_m for m = 2..mmax, with the coarse bounds sum |c|^m / d.

    kappa_2 must reproduce the limiting variance: the double sum over
    (k1, k2) with V(gcd) weights regroups exactly into sum_d d S_d^2.
    """

    mmax: int
    kappa: np.ndarray
    bounds: np.ndarray
    sigma2_ref: float
    lam: float
    L: float
    window_kind: str
    char_id: str

    @property
    def kappa2_rel_err(self) -> float:
        scale = max(abs(self.sigma2_ref), 1e-300)
        return float(abs(self.kappa[0] - self.sigma2_ref) / scale)

    @property
    def kappa2_matches(self) -> bool:
        return bool(self.kappa2_rel_err <= 1e-9)

    def as_dict(self) -> dict:
        return {
            "mmax": self.mmax,
            "kappa": self.kappa.tolist(),
            "bounds": self.bounds.tolist(),
            "sigma2Ref": self.sigma2_ref,
            "kappa2RelErr": self.kappa2_rel_err,
            "kappa2Matches": self.kappa2_matches,
            "lambda": self.lam,
            "L": self.L,
            "window": self.window_kind,
            "character": self.char_id,
        }


def exact_cumulants(surrogate: PoissonSurrogate, mmax: int = 4) -> CumulantReport:
    """kappa_m = sum_pairs c^m / d for m = 2..mmax, exactly.

    Every cumulant of Poisson(mu) equals mu and cumulants add over
    independent summands, so the full cumulant is a finite sum cut off by
    the window support.
    """
    if mmax < 2:
        raise ValueError("mmax must be >= 2")
    ms = np.arange(2, mmax + 1)
    c, d = surrogate.pair_c, surrogate.pair_d
    kappa = np.array([float(np.sum(c**m / d)) for m in ms])
    bounds = np.array([float(np.sum(np.abs(c) ** m / d)) for m in ms])
    ref = sigma2_limit(
        surrogate.spectrum, surrogate.char, surrogate.window, surrogate.lam, surrogate.L
    ).sigma2
    return CumulantReport(
        mmax=mmax,
        kappa=kappa,
        bounds=bounds,
        sigma2_ref=ref,
        lam=surrogate.lam,
        L=surrogate.L,
        window_kind=surrogate.window.kind,
        char_id=character_id(surrogate.char),
    )


# ---------------------------------------------------------------------------
# central limit test


@dataclass(frozen=True)
class CltReport:
    draws: int
    sigma2: float
    skewness: float
    skewness_target: float
    skewness_se: float
    excess_kurtosis: float
    kurtosis_target: float
    kurtosis_se: float
    ks_stat: float
    ks_pvalue: float
    mean: float
    mean_se: float

    @property
    def skewness_pass(self) -> bool:
        return abs(self.skewness - self.skewness_target) <= 3.0 * self.skewness_se

    @property
    def kurtosis_pass(self) -> bool:
        return abs(self.excess_kurtosis - self.kurtosis_target) <= 3.0 * self.kurtosis_se

    def as_dict(self) -> dict:
        return {
            "draws": self.draws,
            "sigma2": self.sigma2,
            "mean": self.mean,
            "meanSE": self.mean_se,
            "skewness": self.skewness,
            "skewnessTarget": self.skewness_target,
            "skewnessSE": self.skewness_se,
            "skewnessPass": self.skewness_pass,
            "excessKurtosis": self.excess_kurtosis,
            "kurtosisTarget": self.kurtosis_target,
            "kurtosisSE": self.kurtosis_se,
            "kurtosisPass": self.kurtosis_pass,
            "ksStat": self.ks_stat,
            "ksPvalue": self.ks_pvalue,
        }


def clt_test(surrogate: PoissonSurrogate, draws: int) -> CltReport:
    """Standardize N_tilde by the exact sigma and test near-normality.

    Requires sigma2 >= 10/L^2: below that margin the limit theorem gives
    no guarantee and a single Poisson summand can dominate.
    """
    if draws < 8:
        raise ValueError("need at least 8 draws")
    rep = exact_cumulants(surrogate, mmax=4)
    sigma2 = rep.kappa[0]
    if sigma2 < 10.0 / surrogate.L**2:
        raise VarianceTooSmall(
            f"sigma2={sigma2:.3g} < 10/L^2={10.0 / surrogate.L**2:.3g}"
        )
    vals = surrogate.sample(draws)
    std = vals / math.sqrt(sigma2)
    from scipy.stats import kurtosis, skew

    ks = kstest(std, "norm")
    return CltReport(
        draws=draws,
        sigma2=sigma2,
        skewness=float(skew(std)),
        skewness_target=rep.kappa[1] / sigma2**1.5,
        skewness_se=math.sqrt(6.0 / draws),
        excess_kurtosis=float(kurtosis(std)),
        kurtosis_target=rep.kappa[2] / sigma2**2,
        kurtosis_se=math.sqrt(24.0 / draws),
        ks_stat=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        mean=float(std.mean()),
        mean_se=float(std.std(ddof=1) / math.sqrt(draws)),
    )


# ---------------------------------------------------------------------------
# ergodicity in the energy window


@dataclass(frozen=True)
class ErgodicityReport:
    fraction: float
    fraction_se: float
    draws: int
    eps: float
    target: float
    lam: float
    span: float
    energy_points: int
    mean_average: float

    def as_dict(self) -> dict:
        return {
            "violationFraction": self.fraction,
            "fractionSE": self.fraction_se,
            "draws": self.draws,
            "epsilon": self.eps,
            "target": self.target,
            "lambda": self.lam,
            "span": self.span,
            "energyPoints": self.energy_points,
            "meanAverage": self.mean_average,
        }


def ergodicity_experiment(
    surrogate: PoissonSurrogate,
    lam: float,
    span: float,
    energy_points: int | None,
    draws: int,
    eps: float,
) -> ErgodicityReport:
    """Fraction of draws whose energy-averaged N_tilde^2 leaves the eps band.

    One Z-draw is shared across the whole energy window (the randomness is
    the cover; the integral is over energy), so each draw yields
    (1/span) integral of N_tilde(mu)^2 over [lam, lam+span], compared to
    the GOE constant (GUE when the character breaks time reversal).
    """
    L = surrogate.L
    if eps**2 < 10.0 * (1.0 / L + 1.0 / span):
        raise ValueError(
            f"eps^2={eps**2:.3g} below the margin 10*(1/L + 1/span)="
            f"{10.0 * (1.0 / L + 1.0 / span):.3g}"
        )
    if draws < 1:
        raise ValueError("draws must be >= 1")
    mu = _resolved_grid(lam, span, L, energy_points)

    if breaks_time_reversal(surrogate.char):
        target = sigma2_gue(surrogate.window)
    else:
        target = sigma2_goe(surrogate.window)

    # pair coefficients as functions of energy: c_{gamma,d}(mu)
    t = surrogate._table
    cid_to_col = {int(c): i for i, c in enumerate(t.class_ids)}
    coeff = np.zeros((len(mu), surrogate.n_pairs))
    for j, (cid, d) in enumerate(zip(surrogate.pair_class_ids, surrogate.pair_d)):
        i = cid_to_col[int(cid)]
        ki = int(L / t.freqs[0, i])
        w = t.weights[d - 1 :: d, i][: ki // d]
        f = t.freqs[d - 1 :: d, i][: ki // d]
        coeff[:, j] = (2.0 / L) * d * (np.cos(np.outer(mu, f)) @ w)

    z = surrogate._z_matrix(draws)
    averages = simpson((z @ coeff.T) ** 2, x=mu, axis=1) / span
    viol = np.abs(averages - target) > eps
    frac = float(viol.mean())
    return ErgodicityReport(
        fraction=frac,
        fraction_se=math.sqrt(max(frac * (1.0 - frac), 1.0 / draws) / draws),
        draws=draws,
        eps=eps,
        target=target,
        lam=lam,
        span=span,
        energy_points=len(mu),
        mean_average=float(averages.mean()),
    )
