"""Random covers: uniform homomorphisms to S_n and their count statistics.

A degree-n cover is a uniform independent choice of one permutation per
generator.  Everything measured here reduces to fixed points of word
images: F_n(gamma^k) depends on the image of the primitive word only
through its cycle structure, F_n(gamma^k) = sum_{d | k} d * C_n(gamma, d),
so each sampled cover costs one permutation product per class and a few
vectorized power compositions.

A run draws its batch of covers once (``_batch_images``) and hands the
same images to the moment test and to the variance bridge.  The images
are flat absolute indices: sample s owns the points s*n .. s*n + n - 1
and each generator maps them among themselves, so composing two images
is one gather ``p.take(q)`` across many samples and an inverse is one
scatter.  The experiments walk the batch in blocks of whole samples
sized to stay in cache; no count depends on the block size.  Cycle
counts come from a pointer-doubling scan that never reads the power
images, so the divisor identity between the two is a real check.

Sampling is restricted to free presets: uniform sampling of surface-group
homomorphisms has no known efficient exact sampler, and the fixed-point
asymptotics being tested hold in both models.  Reports carry a
``model: free`` marker for this reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# Points per block of samples: a block's word images, powers and cycle
# labels (a few int64 arrays of this length) stay in a core's L2 cache
# instead of streaming through memory on every composition.
_BLOCK_POINTS = 1 << 15


# ---------------------------------------------------------------------------
# batch machinery: vectorized over samples, per-sample streams kept intact


def _batch_images(rank: int, n: int, samples: int, seed: int) -> np.ndarray:
    """Generator images of a batch of covers, shape (rank, samples, n).

    Entry [g, s, i] is s*n + pi(i), where pi is the permutation that
    generator g + 1 takes in sample s, drawn from its own
    (seed, sampleIndex, generatorIndex) stream.  Results are therefore
    bit-identical to a per-sample draw and independent of any batching
    or parallel split.  A run draws its batch once and every experiment
    of the run reads it.
    """
    out = np.empty((rank, samples, n), dtype=np.int64)
    for s in range(samples):
        for g in range(rank):
            out[g, s] = stream(seed, s, g).permutation(n)
    out += (np.arange(samples, dtype=np.int64) * n)[:, None]
    return out


def _sample_blocks(images: np.ndarray):
    """Split a batch into blocks of whole samples, each re-based to start at 0.

    Yields (rows, block): ``block`` holds the generator images of the
    samples ``rows`` in the flat layout of ``_batch_images``.
    """
    _, samples, n = images.shape
    step = max(1, _BLOCK_POINTS // n)
    for a in range(0, samples, step):
        yield slice(a, a + step), images[:, a : a + step] - a * n


def _check_batch(images: np.ndarray, n: int, samples: int) -> None:
    if n < 1:
        raise ValueError(f"cover degree must be at least 1, got {n}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if images.shape[1:] != (samples, n):
        raise ValueError(
            f"batch images have shape {images.shape[1:]}, expected ({samples}, {n})"
        )


def _word_images(images: np.ndarray, word: Word) -> np.ndarray:
    """Batch image of a word, composed left to right like ``eval_perm``."""
    rank = images.shape[0]
    for letter in word:
        if letter == 0 or abs(letter) > rank:
            raise ValueError(f"letter {letter} out of range for rank {rank}")
    if not word:
        return np.arange(images[0].size).reshape(images[0].shape)
    inverses: dict[int, np.ndarray] = {}
    out = None
    for letter in word:
        g = abs(letter) - 1
        if letter > 0:
            p = images[g]
        else:
            if g not in inverses:
                inv = np.empty_like(images[g])
                np.put(inv, images[g], np.arange(inv.size))
                inverses[g] = inv
            p = inverses[g]
        out = p if out is None else out.take(p)
    return out


def _power_fixed_counts(word_img: np.ndarray, kmax: int) -> np.ndarray:
    """F(gamma^k) for k = 1..kmax on every row, by iterated composition."""
    samples, n = word_img.shape
    ident = np.arange(word_img.size).reshape(samples, n)
    out = np.empty((samples, kmax), dtype=np.int64)
    q = word_img
    for k in range(kmax):
        if k:
            q = q.take(word_img)
        out[:, k] = np.count_nonzero(q == ident, axis=1)
    return out


def _cycle_scan(word_img: np.ndarray, dmax: int) -> np.ndarray:
    """C(gamma, d) for d = 1..dmax on every row: the number of d-cycles.

    An independent witness of the power counts: pointer doubling labels
    every point with the least point of its cycle, and a cycle's length
    is the number of points that carry its label.  After r rounds a label
    is the least point among the next 2**r points, so ceil(log2 n) rounds
    cover every cycle.
    """
    samples, n = word_img.shape
    step = word_img.reshape(-1)
    point = np.arange(step.size)
    label = point.copy()
    for r in range((n - 1).bit_length()):
        if r:
            step = step.take(step)
        np.minimum(label, label.take(step), out=label)
    leader = np.flatnonzero(label == point)
    length = np.bincount(label, minlength=step.size)[leader]
    short = length <= dmax
    cell = leader[short] // n * dmax + length[short] - 1
    return np.bincount(cell, minlength=samples * dmax).reshape(samples, dmax)


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


def moment_experiment(
    records: list[Word],
    images: np.ndarray,
    n: int,
    samples: int,
    kmax: int = 6,
) -> CoverStatistics:
    """Empirical F_n moments against their n -> infinity laws.

    ``records`` holds one class word per class (``bench/tracer.py``
    binds the argument by this name).  ``images`` is a batch from
    ``_batch_images`` of ``samples`` covers of degree ``n``.  The words'
    classes must be primitive and pairwise non-inverse for the
    cross-class decorrelation target to apply.  F is
    counted from powers of the word image and cycle counts from an
    independent cycle scan; F(gamma^k) = sum_{d|k} d*C(gamma,d) is
    asserted on every sample.
    """
    _check_batch(images, n, samples)

    nc = len(records)
    f = np.empty((samples, nc, kmax), dtype=np.int64)
    cycles = np.empty((samples, nc, kmax), dtype=np.int64)
    divisors = [[d for d in range(1, k + 1) if k % d == 0] for k in range(1, kmax + 1)]
    for rows, block in _sample_blocks(images):
        for i, w in enumerate(records):
            img = _word_images(block, w)
            f[rows, i, :] = _power_fixed_counts(img, kmax)
            cycles[rows, i, :] = _cycle_scan(img, kmax)
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
        class_words=tuple(records),
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
    images: np.ndarray,
    n: int,
    samples: int,
    seed: int,
    centering: str = "batch",
    bootstrap: int = 1000,
) -> CoverVarianceReport:
    """Variance of the smoothed count fluctuation over sampled covers.

    ``images`` is a batch from ``_batch_images`` of ``samples`` covers of
    degree ``n``; ``seed`` keys the bootstrap stream.  Per sample,
    N_tilde = (2/L) sum_{gamma in P0} sum_k F_tilde(gamma^k) * A(gamma, k)
    over unoriented primitives.  Batch centering removes the O(1/n) mean
    bias; ``centering="dk"`` subtracts the asymptotic mean d(k) instead.
    """
    _require_free(spectrum)
    _require_certified(spectrum, L)
    if centering not in ("batch", "dk"):
        raise ValueError(f"unknown centering {centering!r}")
    _check_batch(images, n, samples)

    prims = unoriented_primitives(spectrum)
    table = coefficient_table(prims, char, window, lam, L)
    by_id = {r.class_id: r for r in prims}
    recs = [by_id[int(c)] for c in table.class_ids]
    kmaxes = [max(1, int(L / r.primitive_length)) for r in recs]
    coeffs = [table.coeffs[:km, i] for i, km in enumerate(kmaxes)]

    counts = [np.empty((samples, km), dtype=np.int64) for km in kmaxes]
    for rows, block in _sample_blocks(images):
        for r, km, f in zip(recs, kmaxes, counts):
            f[rows] = _power_fixed_counts(_word_images(block, r.word), km)
    vals = np.zeros(samples)
    for km, a, f in zip(kmaxes, coeffs, counts):
        f = f.astype(float)
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
