"""Random covers: uniform homomorphisms to S_n and their count statistics.

A degree-n cover is a uniform independent choice of one permutation per
generator.  Everything measured here reduces to fixed points of word
images: F_n(gamma^k) depends on the image of the primitive word only
through its cycle structure, F_n(gamma^k) = sum_{d | k} d * C_n(gamma, d),
so each sampled cover costs one permutation product per class and a few
vectorized power compositions.

Sampling is restricted to free presets: uniform sampling of surface-group
homomorphisms has no known efficient exact sampler, and the fixed-point
asymptotics being tested hold in both models.  Reports carry a
``model: free`` marker for this reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fuchsian import LengthSpectrum, unoriented_primitives
from .rng import stream
from .variance import (
    _require_certified,
    character_id,
    coefficient_table,
    divisor_count,
    gcd_weight,
    sigma2_limit,
)
from .windows import Window
from .words import Word


class NotFreePreset(ValueError):
    """Cover sampling requires a free (Schottky) preset."""


def _cycle_scan(perm, dmax: int) -> np.ndarray:
    p = perm.tolist()
    counts = np.zeros(dmax, dtype=np.int64)
    seen = [False] * len(p)
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        if length <= dmax:
            counts[length - 1] += 1
    return counts


# ---------------------------------------------------------------------------
# batch machinery: vectorized over samples, per-sample streams kept intact


def _batch_images(rank: int, n: int, samples: int, seed: int) -> list[np.ndarray]:
    """Stacked generator images, one (samples, n) array per generator.

    Each row still comes from its own (seed, sampleIndex, generatorIndex)
    stream, so results are bit-identical to a per-sample draw and
    independent of any batching or parallel split.
    """
    out = [np.empty((samples, n), dtype=np.int64) for _ in range(rank)]
    for s in range(samples):
        for g in range(rank):
            out[g][s] = stream(seed, s, g).permutation(n)
    return out


def _word_images(images: Sequence[np.ndarray], word: Word) -> np.ndarray:
    samples, n = images[0].shape
    inverses: dict[int, np.ndarray] = {}
    out = np.tile(np.arange(n), (samples, 1))
    for letter in word:
        g = abs(letter) - 1
        if letter > 0:
            p = images[g]
        else:
            if g not in inverses:
                inverses[g] = np.argsort(images[g], axis=1)
            p = inverses[g]
        out = np.take_along_axis(out, p, axis=1)
    return out


def _power_fixed_counts(word_img: np.ndarray, kmax: int) -> np.ndarray:
    """F(gamma^k) for k = 1..kmax on every row, by iterated composition."""
    samples, n = word_img.shape
    ident = np.arange(n)
    out = np.empty((samples, kmax), dtype=np.int64)
    q = word_img
    out[:, 0] = np.count_nonzero(q == ident, axis=1)
    for k in range(1, kmax):
        q = np.take_along_axis(q, word_img, axis=1)
        out[:, k] = np.count_nonzero(q == ident, axis=1)
    return out


# ---------------------------------------------------------------------------
# moment experiment


@dataclass(frozen=True)
class CoverStatistics:
    """Empirical F_n and cycle-count moments for primitive classes.

    ``cov`` indexes the flattened (class, k) grid; its target is V(k1, k2)
    within a class and 0 across classes.  Mean targets are d(k) for F and
    1/d for cycle counts.  Pass flags apply a 3-standard-error band.
    """

    n: int
    samples: int
    kmax: int
    class_words: tuple[Word, ...]
    f_mean: np.ndarray
    f_mean_se: np.ndarray
    f_mean_target: np.ndarray
    cov: np.ndarray
    cov_se: np.ndarray
    cov_target: np.ndarray
    cycle_mean: np.ndarray
    cycle_mean_se: np.ndarray
    cycle_mean_target: np.ndarray
    mean_pass: np.ndarray
    cov_pass: np.ndarray

    @property
    def passed(self) -> bool:
        return bool(self.mean_pass.all() and self.cov_pass.all())

    def as_dict(self) -> dict:
        return {
            "model": "free",
            "n": self.n,
            "samples": self.samples,
            "kmax": self.kmax,
            "fMean": self.f_mean.tolist(),
            "fMeanSE": self.f_mean_se.tolist(),
            "fMeanTarget": self.f_mean_target.tolist(),
            "cov": self.cov.tolist(),
            "covSE": self.cov_se.tolist(),
            "covTarget": self.cov_target.tolist(),
            "cycleMean": self.cycle_mean.tolist(),
            "cycleMeanSE": self.cycle_mean_se.tolist(),
            "cycleMeanTarget": self.cycle_mean_target.tolist(),
            "meanPass": self.mean_pass.tolist(),
            "covPass": self.cov_pass.tolist(),
            "passed": self.passed,
        }


def _as_words(records) -> tuple[Word, ...]:
    return tuple(r.word if hasattr(r, "word") else tuple(r) for r in records)


def moment_experiment(
    records,
    n: int,
    samples: int,
    seed: int,
    kmax: int = 6,
    rank: int | None = None,
) -> CoverStatistics:
    """Empirical F_n moments against their n -> infinity laws.

    Classes must be primitive and pairwise non-inverse for the
    cross-class decorrelation target to apply.  F is counted from powers
    of the word image and cycle counts from an independent cycle scan;
    F(gamma^k) = sum_{d|k} d*C(gamma,d) is asserted on every sample.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    words = _as_words(records)
    if rank is None:
        rank = max(abs(l) for w in words for l in w)
    images = _batch_images(rank, n, samples, seed)

    nc = len(words)
    f = np.empty((samples, nc, kmax), dtype=np.int64)
    cycles = np.empty((samples, nc, kmax), dtype=np.int64)
    divisors = [[d for d in range(1, k + 1) if k % d == 0] for k in range(1, kmax + 1)]
    for i, w in enumerate(words):
        img = _word_images(images, w)
        f[:, i, :] = _power_fixed_counts(img, kmax)
        for s in range(samples):
            cycles[s, i] = _cycle_scan(img[s], kmax)
    # hard consistency: the divisor identity must hold on every sample
    for k in range(1, kmax + 1):
        lhs = f[:, :, k - 1]
        rhs = sum(d * cycles[:, :, d - 1] for d in divisors[k - 1])
        if not np.array_equal(lhs, rhs):
            raise RuntimeError(
                f"fixed-point/cycle-count identity violated at k={k}"
            )

    flat = f.reshape(samples, -1).astype(float)
    mean = flat.mean(axis=0)
    centered = flat - mean
    cov = centered.T @ centered / (samples - 1)
    mean_se = flat.std(axis=0, ddof=1) / math.sqrt(samples)
    # SE of a covariance entry: sqrt((E[x^2 y^2] - cov^2) / samples)
    sq = centered**2
    second = sq.T @ sq / samples
    cov_se = np.sqrt(np.maximum(second - cov**2, 0.0) / samples)

    cyc = cycles.reshape(samples, -1).astype(float)
    cycle_mean = cyc.mean(axis=0)
    cycle_se = cyc.std(axis=0, ddof=1) / math.sqrt(samples)

    f_target = np.tile([divisor_count(k) for k in range(1, kmax + 1)], nc).astype(float)
    cov_target = np.zeros((nc * kmax, nc * kmax))
    for i in range(nc):
        for k1 in range(1, kmax + 1):
            for k2 in range(1, kmax + 1):
                cov_target[i * kmax + k1 - 1, i * kmax + k2 - 1] = gcd_weight(k1, k2)
    cycle_target = np.tile([1.0 / d for d in range(1, kmax + 1)], nc)

    mean_pass = np.abs(mean - f_target) <= 3.0 * mean_se
    cov_pass = np.abs(cov - cov_target) <= 3.0 * cov_se
    shape = (nc, kmax)
    return CoverStatistics(
        n=n,
        samples=samples,
        kmax=kmax,
        class_words=words,
        f_mean=mean.reshape(shape),
        f_mean_se=mean_se.reshape(shape),
        f_mean_target=f_target.reshape(shape),
        cov=cov,
        cov_se=cov_se,
        cov_target=cov_target,
        cycle_mean=cycle_mean.reshape(shape),
        cycle_mean_se=cycle_se.reshape(shape),
        cycle_mean_target=cycle_target.reshape(shape),
        mean_pass=mean_pass.reshape(shape),
        cov_pass=cov_pass,
    )


# ---------------------------------------------------------------------------
# empirical ensemble variance


@dataclass(frozen=True)
class CoverVarianceReport:
    estimate: float
    se: float
    ci_low: float
    ci_high: float
    sigma2_limit: float
    n: int
    samples: int
    lam: float
    L: float
    centering: str
    window_kind: str
    char_id: str

    @property
    def agrees(self) -> bool:
        return abs(self.estimate - self.sigma2_limit) <= 3.0 * self.se

    def as_dict(self) -> dict:
        return {
            "model": "free",
            "estimate": self.estimate,
            "bootstrapSE": self.se,
            "ci95": [self.ci_low, self.ci_high],
            "sigma2Limit": self.sigma2_limit,
            "agrees": self.agrees,
            "n": self.n,
            "samples": self.samples,
            "lambda": self.lam,
            "L": self.L,
            "centering": self.centering,
            "window": self.window_kind,
            "character": self.char_id,
        }


def _require_free(spectrum: LengthSpectrum) -> int:
    if spectrum.group.cocompact:
        raise NotFreePreset("cover sampling is defined for free presets only")
    return spectrum.group.rank


def empirical_cover_variance(
    spectrum: LengthSpectrum,
    char,
    window: Window,
    lam: float,
    L: float,
    n: int,
    samples: int,
    seed: int,
    centering: str = "batch",
    bootstrap: int = 1000,
) -> CoverVarianceReport:
    """Variance of the smoothed count fluctuation over sampled covers.

    Per sample, N_tilde = (2/L) sum_{gamma in P0} sum_k F_tilde(gamma^k)
    * A(gamma, k) over unoriented primitives.  Batch centering removes
    the O(1/n) mean bias; ``centering="dk"`` subtracts the asymptotic
    mean d(k) instead.
    """
    rank = _require_free(spectrum)
    _require_certified(spectrum, L)
    if centering not in ("batch", "dk"):
        raise ValueError(f"unknown centering {centering!r}")
    if samples < 2:
        raise ValueError("need at least 2 samples")

    sub = replace(spectrum, records=tuple(unoriented_primitives(spectrum)))
    table = coefficient_table(sub, char, window, lam, L)
    by_id = {r.class_id: r for r in sub.records}
    recs = [by_id[int(c)] for c in table.class_ids]
    kmaxes = [max(1, int(L / r.primitive_length)) for r in recs]
    coeffs = [table.coeffs[:km, i] for i, km in enumerate(kmaxes)]

    images = _batch_images(rank, n, samples, seed)
    vals = np.zeros(samples)
    for r, km, a in zip(recs, kmaxes, coeffs):
        f = _power_fixed_counts(_word_images(images, r.word), km).astype(float)
        if centering == "batch":
            f -= f.mean(axis=0)
        else:
            f -= np.array([divisor_count(k) for k in range(1, km + 1)], dtype=float)
        vals += f @ a
    vals *= 2.0 / L

    estimate = float(np.var(vals, ddof=1))
    g = stream(seed, 0xB00)
    boots = np.empty(bootstrap)
    for b in range(bootstrap):
        idx = g.integers(0, samples, samples)
        boots[b] = np.var(vals[idx], ddof=1)
    se = float(boots.std(ddof=1))
    lo, hi = np.percentile(boots, [2.5, 97.5])
    limit = sigma2_limit(spectrum, char, window, lam, L).sigma2
    return CoverVarianceReport(
        estimate=estimate,
        se=se,
        ci_low=float(lo),
        ci_high=float(hi),
        sigma2_limit=limit,
        n=n,
        samples=samples,
        lam=lam,
        L=L,
        centering=centering,
        window_kind=window.kind,
        char_id=character_id(char),
    )
