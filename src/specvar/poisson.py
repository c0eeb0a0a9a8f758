"""The degree-infinity surrogate: independent Poisson cycle counts.

In the large-degree limit the cycle counts C(gamma, d) of a random cover
become independent Poisson variables Z_{gamma,d} with mean 1/d, one per
unoriented primitive class and cycle length.  The smoothed count
fluctuation collapses to a weighted sum of centered Poissons,

    N_tilde = sum_{gamma, d} c_{gamma,d} (Z_{gamma,d} - 1/d),
    c_{gamma,d} = (2/L) d sum_j A(gamma, d j),

whose cumulants are exact finite sums: kappa_m = sum c^m / d.  That makes
the surrogate both a sampler (CLT, ergodicity experiments) and an oracle:
kappa_2 must reproduce the limiting variance, which the surrogate reads
from the same ``SigmaEvaluator`` its pair coefficients come from, so one
run builds one coefficient table.  ``exact_cumulants``, ``clt_test`` and
``ergodicity_experiment`` return their artifact mapping, JSON-ready, with
the keys of docs/artifact-schemas.md.
"""

from __future__ import annotations

import math
from itertools import compress

import numpy as np

from . import Refused
from .characters import ensemble_target
from .fuchsian import LengthSpectrum
from .ks import ks_normal
from .rng import streams
from .variance import SigmaEvaluator, _resolved_grid, _simpson_weights
from .windows import Window


class VarianceTooSmall(Refused):
    """The CLT hypothesis margin sigma2 >= 10/L^2 fails."""


_POISSON_CDF_TERMS = 30
_LOG_FACTORIALS = np.array([math.lgamma(j + 1) for j in range(_POISSON_CDF_TERMS)])
_cdf_cache: dict[int, np.ndarray] = {}
_ENERGY_BLOCK = 1024  # energies per cosine block of the ergodicity Gram matrix


def _poisson_cdf(d: int) -> np.ndarray:
    if d not in _cdf_cache:
        mu = 1.0 / d
        j = np.arange(_POISSON_CDF_TERMS)
        pmf = np.exp(-mu + j * math.log(mu) - _LOG_FACTORIALS)
        _cdf_cache[d] = np.cumsum(pmf)
    return _cdf_cache[d]


def _invert_cdf(cdf: np.ndarray, u: np.ndarray, count: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Number of CDF entries <= u, per uniform draw u, counted into ``count``.

    Counts thresholds directly instead of a binary search: only the few
    entries up to max(u) can be hit, each one vector compare into ``hit``.
    A uint8 count cannot overflow: the table has _POISSON_CDF_TERMS entries.
    """
    count.fill(0)
    for c in cdf[cdf <= u.max(initial=0.0)]:
        count += np.greater_equal(u, c, out=hit)
    return count


def _draw_buffers(draws: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Buffers ``_poisson_draws`` reuses across pairs: uniforms, uint8 counts, a compare."""
    return np.empty(draws), np.empty(draws, dtype=np.uint8), np.empty(draws, dtype=bool)


def _poisson_draws(g: np.random.Generator, d: int, buffers: tuple) -> np.ndarray:
    """Z_{gamma,d} - 1/d by CDF inversion, over the uniforms of ``buffers``; Z in its counts.

    ``g`` is the pair's own (seed, classId, d) stream; the draw index is
    the position in the stream, so prefixes are stable and any partition
    of the (classId, d) grid reproduces bit-identically.
    """
    u, count, hit = buffers
    g.random(out=u)
    return np.subtract(_invert_cdf(_poisson_cdf(d), u, count, hit), 1.0 / d, out=u)


def _ranks(counts: np.ndarray) -> np.ndarray:
    """1..counts[i] for each i in turn, concatenated."""
    total = int(counts.sum())
    return np.arange(1, total + 1) - np.repeat(np.cumsum(counts) - counts, counts)


class PoissonSurrogate:
    """Sampler for N_tilde at fixed (spectrum, character, window, lambda, L).

    Each pair coefficient is a cosine sum over frequencies k l of the
    coefficient table of ``sigma``, the run's one ``SigmaEvaluator``:
    c_{gamma,d}(mu) = sum_j (2/L) d A-weight(gamma, d j) cos(mu d j l) for
    d j <= floor(L / l).  ``_freqs`` holds the distinct
    frequencies (tied lengths give bit-identical k l, so an arithmetic
    group reads far fewer frequencies than pairs) and ``_pair_terms`` each
    pair's (frequency indices, factors).  Zero-support pairs are dropped so
    every retained pair has its own Poisson stream keyed by (seed, classId, d).
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
        self.sigma = t = SigmaEvaluator(spectrum, char, window, L)
        self.spectrum = spectrum
        self.char = char
        self.window = window
        self.lam = float(lam)
        self.L = float(L)
        self.seed = int(seed)

        # candidate pairs (col, d), d = 1..floor(L / l), in column order,
        # and their terms k = d j, j = 1..floor(kcut / d)
        kcut = (self.L / t.freqs[0]).astype(np.int64)
        pair_col = np.repeat(np.arange(len(t.rows)), kcut)
        pair_d = _ranks(kcut)
        terms = kcut[pair_col] // pair_d
        term_pair = np.repeat(np.arange(len(pair_d)), terms)
        term_col = pair_col[term_pair]
        term_k = pair_d[term_pair] * _ranks(terms)
        freqs, term_f = np.unique(t.freqs[term_k - 1, term_col], return_inverse=True)
        term_c = (2.0 / self.L) * pair_d[term_pair] * t.weights[term_k - 1, term_col]

        at_lam = np.cos(self.lam * freqs)[term_f] * term_c
        pair_c = np.bincount(term_pair, weights=at_lam, minlength=len(pair_d))
        keep = pair_c != 0.0
        split = np.cumsum(terms)[:-1]
        self._freqs = freqs
        self._pair_terms = list(compress(zip(np.split(term_f, split), np.split(term_c, split)), keep))
        self.pair_class_ids = t.rows[pair_col[keep]]
        self.pair_d = pair_d[keep]
        self.pair_c = pair_c[keep]

    @property
    def n_pairs(self) -> int:
        return len(self.pair_c)

    def sample(self, draws: int) -> np.ndarray:
        """N_tilde for draw indices 0..draws-1 (prefix-stable in draws)."""
        if draws < 1:
            raise Refused("draws must be >= 1")
        vals = np.zeros(draws)
        buffers = _draw_buffers(draws)
        for g, d, c in zip(self._pair_streams(), self.pair_d, self.pair_c):
            z = _poisson_draws(g, int(d), buffers)
            vals += np.multiply(z, c, out=z)
        return vals

    def _pair_streams(self):
        """One counter-based stream per retained pair, keyed by (seed, classId, d)."""
        return streams(self.seed, np.column_stack([self.pair_class_ids, self.pair_d]))


# ---------------------------------------------------------------------------
# exact cumulants


def exact_cumulants(surrogate: PoissonSurrogate, mmax: int = 4) -> dict:
    """kappa_m = sum_pairs c^m / d for m = 2..mmax, exactly, as the
    ``cumulants`` mapping of the ``poisson`` artifact.

    Every cumulant of Poisson(mu) equals mu and cumulants add over
    independent summands, so the full cumulant is a finite sum cut off by
    the window support.  ``bounds`` holds the coarse bounds sum |c|^m / d.
    kappa_2 must reproduce the limiting variance: the double sum over
    (k1, k2) with V(gcd) weights regroups exactly into sum_d d S_d^2.
    """
    if mmax < 2:
        raise Refused("mmax must be >= 2")
    ms = np.arange(2, mmax + 1)
    c, d = surrogate.pair_c, surrogate.pair_d
    kappa = [float(np.sum(c**m / d)) for m in ms]
    sigma2_ref = surrogate.sigma.report(surrogate.lam).sigma2
    rel_err = abs(kappa[0] - sigma2_ref) / max(abs(sigma2_ref), 1e-300)
    return {
        "mmax": mmax,
        "kappa": kappa,
        "bounds": [float(np.sum(np.abs(c) ** m / d)) for m in ms],
        "sigma2Ref": sigma2_ref,
        "kappa2RelErr": rel_err,
        "kappa2Matches": rel_err <= 1e-9,
        "lambda": surrogate.lam,
        "L": surrogate.L,
        "window": surrogate.window.kind,
        "character": surrogate.sigma.char_id,
    }


# ---------------------------------------------------------------------------
# central limit test


def _require_clt_draws(draws: int) -> None:
    if draws < 8:
        raise Refused("need at least 8 draws")


def clt_test(surrogate: PoissonSurrogate, draws: int) -> dict:
    """Standardize N_tilde by the exact sigma and test near-normality.

    Requires sigma2 >= 10/L^2: below that margin the limit theorem gives
    no guarantee and a single Poisson summand can dominate.  Returns the
    ``clt`` mapping of the ``poisson`` artifact; the pass flags apply a
    3-standard-error band around the exact shape targets.
    """
    _require_clt_draws(draws)
    kappa = exact_cumulants(surrogate, mmax=4)["kappa"]
    sigma2 = kappa[0]
    if sigma2 < 10.0 / surrogate.L**2:
        raise VarianceTooSmall(
            f"sigma2={sigma2:.3g} < 10/L^2={10.0 / surrogate.L**2:.3g}"
        )
    vals = surrogate.sample(draws)
    std = vals / math.sqrt(sigma2)
    # biased sample moments; Fisher's excess kurtosis
    dev = std - std.mean()
    sq = dev * dev
    m2 = sq.mean()
    skewness = float((sq * dev).mean() / m2**1.5)
    skewness_target = kappa[1] / sigma2**1.5
    skewness_se = math.sqrt(6.0 / draws)
    kurtosis = float((sq * sq).mean() / m2**2.0 - 3.0)
    kurtosis_target = kappa[2] / sigma2**2
    kurtosis_se = math.sqrt(24.0 / draws)
    ks_stat, ks_pvalue = ks_normal(std)
    return {
        "draws": draws,
        "sigma2": sigma2,
        "mean": float(std.mean()),
        "meanSE": float(std.std(ddof=1) / math.sqrt(draws)),
        "skewness": skewness,
        "skewnessTarget": skewness_target,
        "skewnessSE": skewness_se,
        "skewnessPass": abs(skewness - skewness_target) <= 3.0 * skewness_se,
        "excessKurtosis": kurtosis,
        "kurtosisTarget": kurtosis_target,
        "kurtosisSE": kurtosis_se,
        "kurtosisPass": abs(kurtosis - kurtosis_target) <= 3.0 * kurtosis_se,
        "ksStat": ks_stat,
        "ksPvalue": ks_pvalue,
    }


# ---------------------------------------------------------------------------
# ergodicity in the energy window


def _energy_integrals(surrogate: PoissonSurrogate, mu: np.ndarray, draws: int) -> np.ndarray:
    """Simpson integral of N_tilde(mu)^2 over the grid mu, per draw.

    N_tilde(mu) = sum_f y_f cos(mu F_f), where y_f collects the centered
    counts z of every pair with a term at frequency F_f, so with Simpson
    weights w the integral is the quadratic form y^T H y,
    H = cos(mu F)^T diag(w) cos(mu F).  H is accumulated over blocks of
    energies, so memory stays at (block x frequencies) and
    (frequencies x frequencies) plus y, whatever the grid.
    """
    freqs, w = surrogate._freqs, _simpson_weights(mu)
    gram = np.zeros((len(freqs), len(freqs)))
    for lo in range(0, len(mu), _ENERGY_BLOCK):
        c = np.cos(np.outer(mu[lo : lo + _ENERGY_BLOCK], freqs))
        gram += c.T @ (w[lo : lo + _ENERGY_BLOCK, None] * c)
    y = np.zeros((len(freqs), draws))
    buffers = _draw_buffers(draws)
    for g, d, (f, c) in zip(surrogate._pair_streams(), surrogate.pair_d, surrogate._pair_terms):
        y[f] += np.outer(c, _poisson_draws(g, int(d), buffers))
    return np.einsum("ij,ij->j", gram @ y, y)


def ergodicity_experiment(
    surrogate: PoissonSurrogate,
    span: float,
    draws: int,
    eps: float | None = None,
) -> dict:
    """Fraction of draws whose energy average of N_tilde^2 misses the target by more than eps.

    One Z-draw is shared across the whole energy window (the randomness is
    the cover; the integral is over energy), so each draw yields
    (1/span) integral of N_tilde(mu)^2 over [lam, lam+span] (lam and L the
    surrogate's), compared to the character's ``ensemble_target``: a draw
    violates when |average - target| > eps, where eps^2 must clear the
    almost-sure bound's margin 10 (1/L + 1/span); the default eps sits just
    above it.  The Simpson integral on ``_resolved_grid`` is one quadratic
    form (``_energy_integrals``).  Returns the ``ergodicity`` artifact's mapping.
    """
    L = surrogate.L
    mu = _resolved_grid(surrogate.lam, span, L)
    margin = 10.0 * (1.0 / L + 1.0 / span)
    if eps is None:
        eps = math.sqrt(margin) * 1.0001
    if not eps**2 >= margin:
        raise Refused(f"eps^2={eps**2:.3g} below the margin 10*(1/L + 1/span)={margin:.3g}")
    if draws < 1:
        raise Refused("draws must be >= 1")

    target = ensemble_target(surrogate.char, surrogate.window)
    averages = _energy_integrals(surrogate, mu, draws) / span
    frac = float(np.mean(np.abs(averages - target) > eps))
    return {
        "violationFraction": frac,
        "fractionSE": math.sqrt(max(frac * (1.0 - frac), 1.0 / draws) / draws),
        "draws": draws,
        "epsilon": eps,
        "target": target,
        "lambda": surrogate.lam,
        "span": span,
        "energyPoints": len(mu),
        "meanAverage": float(averages.mean()),
    }
