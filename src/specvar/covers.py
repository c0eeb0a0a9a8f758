"""Random covers: uniform homomorphisms to S_n and their count statistics.

A degree-n cover is a uniform independent choice of one permutation per
generator.  Everything measured here reduces to fixed points of word
images: F_n(gamma^k) depends on the image of the primitive word only
through its cycle structure, F_n(gamma^k) = sum_{d | k} d * C_n(gamma, d),
so each sampled cover costs one permutation product per class and a few
vectorized power compositions.

A run draws its batch of covers once (``_batch_images``) and hands the
same images to the moment test and to the variance bridge.  The batch
stores each permutation as it is, values 0 .. n - 1 in the narrowest
unsigned dtype that holds n - 1 (2 bytes a point up to n = 65,536).
The experiments walk it in blocks of whole samples sized to stay in
cache, and ``_sample_blocks`` widens each block to flat absolute int64
indices: sample s of the block owns the points s*n .. s*n + n - 1 and
each generator maps them among themselves, so composing two images is
one gather ``p.take(q)`` across many samples and an inverse is one
scatter.  No count depends on the block size.  Cycle counts come from
a pointer-doubling scan that never reads the power images, so the
divisor identity between the two is a real check.

Sampling is restricted to free presets: uniform sampling of surface-group
homomorphisms has no known efficient exact sampler, and the fixed-point
asymptotics being tested hold in both models.  Both experiments return
their artifact mapping, JSON-ready, with a ``model: free`` marker for
this reason.
"""

from __future__ import annotations

import math

import numpy as np

from . import Refused
from .fuchsian import LengthSpectrum
from .rng import stream, streams
from .variance import SigmaEvaluator, _divisor_table, _gcd_weight_matrix
from .windows import Window
from .words import Word


class NotFreePreset(Refused):
    """Cover sampling requires a free (Schottky) preset."""


# Points per block of samples: a block's word images, powers and cycle
# labels (a few int64 arrays of this length) stay in a core's L2 cache
# instead of streaming through memory on every composition.
_BLOCK_POINTS = 1 << 15

_BOOTSTRAP_DRAWS = 1000  # resamples behind the cover variance's standard error


# ---------------------------------------------------------------------------
# batch machinery: vectorized over samples, per-sample streams kept intact


def _batch_images(rank: int, n: int, samples: int, seed: int) -> np.ndarray:
    """Generator images of a batch of covers, shape (rank, samples, n).

    Entry [g, s, i] is pi(i), where pi is the permutation that generator
    g + 1 takes in sample s, drawn from its own (seed, sampleIndex,
    generatorIndex) stream.  Results are therefore bit-identical to a
    per-sample draw and independent of any batching or parallel split.
    The dtype is the narrowest unsigned one that holds n - 1; arithmetic
    on it wraps, so only ``_sample_blocks`` reads it, widening first.  A
    run draws its batch once and every experiment of the run reads it.
    """
    _check_sizes(n, samples)
    out = np.empty((rank, samples, n), dtype=np.min_scalar_type(n - 1))
    keys = np.column_stack(divmod(np.arange(samples * rank), rank))
    for (s, g), rg in zip(np.ndindex(samples, rank), streams(seed, keys)):
        out[g, s] = rg.permutation(n)
    return out


def _sample_blocks(images: np.ndarray):
    """Split a batch into blocks of whole samples in flat int64 indices.

    Yields (rows, block): ``block`` holds the generator images of the
    samples ``rows``, row s of the block offset by s*n, so the block is
    one permutation of its own points.
    """
    _, samples, n = images.shape
    step = max(1, _BLOCK_POINTS // n)
    for a in range(0, samples, step):
        rows = slice(a, a + step)
        block = images[:, rows].astype(np.int64)
        block += (np.arange(block.shape[1]) * n)[:, None]
        yield rows, block


def _check_sizes(n: int, samples: int) -> None:
    if n < 1:
        raise Refused(f"cover degree must be at least 1, got {n}")
    if samples < 2:
        raise Refused(f"need at least 2 samples, got {samples}")


def _check_batch(images: np.ndarray, n: int, samples: int) -> None:
    _check_sizes(n, samples)
    if images.shape[1:] != (samples, n):
        raise ValueError(
            f"batch images have shape {images.shape[1:]}, expected ({samples}, {n})"
        )
    if images.dtype.kind != "u":
        raise ValueError(
            f"batch images have dtype {images.dtype}; _batch_images stores "
            "relative permutations in an unsigned dtype"
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


def _class_counts(records: list[Word], images: np.ndarray, kmax: int):
    """F(gamma^k) and C(gamma, d) for k, d = 1..kmax, each (samples, classes, kmax).

    The block loop lives here so its last block and word image are freed
    on return, before the caller's statistics allocate.
    """
    shape = (images.shape[1], len(records), kmax)
    f = np.empty(shape, dtype=np.int64)
    cycles = np.empty(shape, dtype=np.int64)
    for rows, block in _sample_blocks(images):
        for i, w in enumerate(records):
            img = _word_images(block, w)
            f[rows, i, :] = _power_fixed_counts(img, kmax)
            cycles[rows, i, :] = _cycle_scan(img, kmax)
    return f, cycles


def moment_experiment(
    records: list[Word],
    images: np.ndarray,
    n: int,
    samples: int,
    kmax: int = 6,
) -> dict:
    """Empirical F_n moments against their n -> infinity laws.

    ``records`` holds one class word per class (``bench/tracer.py``
    binds the argument by this name).  ``images`` is a batch from
    ``_batch_images`` of ``samples`` covers of degree ``n``.  The words'
    classes must be primitive and pairwise non-inverse for the
    cross-class decorrelation target to apply.  F is
    counted from powers of the word image and cycle counts from an
    independent cycle scan; F(gamma^k) = sum_{d|k} d*C(gamma,d) is
    asserted on every sample.

    Returns the ``moments`` mapping of the ``covers`` artifact.  ``cov``
    indexes the flattened (class, k) grid; its target is V(k1, k2)
    within a class and 0 across classes.  Mean targets are d(k) for F
    and 1/d for cycle counts.  Pass flags apply a 3-standard-error band.
    """
    _check_batch(images, n, samples)

    nc = len(records)
    f, cycles = _class_counts(records, images, kmax)
    # hard consistency: the divisor identity must hold on every sample
    divisors = _divisor_table(kmax)
    weighted = np.arange(1, kmax + 1)[:, None] * divisors  # entry [d-1, k-1] = d if d | k
    bad = np.flatnonzero((f != cycles @ weighted).any(axis=(0, 1)))
    if len(bad):
        raise RuntimeError(f"fixed-point/cycle-count identity violated at k={bad[0] + 1}")

    # one float copy of the counts at a time, centered and squared in place
    cyc = cycles.reshape(samples, -1).astype(float)
    del cycles
    cycle_mean = cyc.mean(axis=0)
    cycle_se = cyc.std(axis=0, ddof=1) / math.sqrt(samples)
    flat = f.reshape(samples, -1).astype(float)
    del f, cyc
    mean = flat.mean(axis=0)
    mean_se = flat.std(axis=0, ddof=1) / math.sqrt(samples)
    centered = np.subtract(flat, mean, out=flat)
    cov = centered.T @ centered / (samples - 1)
    # SE of a covariance entry: sqrt((E[x^2 y^2] - cov^2) / samples)
    sq = np.square(centered, out=centered)
    second = sq.T @ sq / samples
    cov_se = np.sqrt(np.maximum(second - cov**2, 0.0) / samples)

    f_target = np.tile(divisors.sum(axis=0), nc).astype(float)
    cov_target = np.kron(np.eye(nc), _gcd_weight_matrix(kmax))
    cycle_target = np.tile([1.0 / d for d in range(1, kmax + 1)], nc)

    mean_pass = np.abs(mean - f_target) <= 3.0 * mean_se
    cov_pass = np.abs(cov - cov_target) <= 3.0 * cov_se
    shape = (nc, kmax)
    return {
        "model": "free",
        "n": n,
        "samples": samples,
        "kmax": kmax,
        "fMean": mean.reshape(shape).tolist(),
        "fMeanSE": mean_se.reshape(shape).tolist(),
        "fMeanTarget": f_target.reshape(shape).tolist(),
        "cov": cov.tolist(),
        "covSE": cov_se.tolist(),
        "covTarget": cov_target.tolist(),
        "cycleMean": cycle_mean.reshape(shape).tolist(),
        "cycleMeanSE": cycle_se.reshape(shape).tolist(),
        "cycleMeanTarget": cycle_target.reshape(shape).tolist(),
        "meanPass": mean_pass.reshape(shape).tolist(),
        "covPass": cov_pass.tolist(),
        "passed": bool(mean_pass.all() and cov_pass.all()),
    }


# ---------------------------------------------------------------------------
# empirical ensemble variance


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
) -> dict:
    """Variance of the smoothed count fluctuation over sampled covers.

    ``images`` is a batch from ``_batch_images`` of ``samples`` covers of
    degree ``n``; ``seed`` keys the bootstrap stream.  Per sample,
    N_tilde = (2/L) sum_{gamma in P0} sum_k F_tilde(gamma^k) * A(gamma, k)
    over unoriented primitives.  Batch centering removes the O(1/n) mean
    bias; ``centering="dk"`` subtracts the asymptotic mean d(k) instead.
    Returns the ``bridge`` mapping of the ``covers`` artifact.
    """
    _require_free(spectrum)
    ev = SigmaEvaluator(spectrum, char, window, L)
    if centering not in ("batch", "dk"):
        raise Refused(f"unknown centering {centering!r}")
    _check_batch(images, n, samples)

    words = [spectrum.records[i].word for i in ev.rows]
    kmaxes = [max(1, int(L / ell)) for ell in spectrum.primitive_length[ev.rows]]
    coeffs = ev.coefficients(lam)
    dk = _divisor_table(ev.kmax).sum(axis=0).astype(float)

    counts = [np.empty((samples, km), dtype=np.int64) for km in kmaxes]
    for rows, block in _sample_blocks(images):
        for word, km, f in zip(words, kmaxes, counts):
            f[rows] = _power_fixed_counts(_word_images(block, word), km)
    vals = np.zeros(samples)
    for i, (km, f) in enumerate(zip(kmaxes, counts)):
        f = f.astype(float)
        f -= f.mean(axis=0) if centering == "batch" else dk[:km]
        vals += f @ coeffs[:km, i]
    vals *= 2.0 / L

    estimate = float(np.var(vals, ddof=1))
    g = stream(seed, 0xB00)
    boots = np.empty(_BOOTSTRAP_DRAWS)
    for b in range(_BOOTSTRAP_DRAWS):
        idx = g.integers(0, samples, samples)
        boots[b] = np.var(vals[idx], ddof=1)
    se = float(boots.std(ddof=1))
    lo, hi = np.percentile(boots, [2.5, 97.5])
    limit = ev.report(lam).sigma2
    return {
        "model": "free",
        "estimate": estimate,
        "bootstrapSE": se,
        "ci95": [float(lo), float(hi)],
        "sigma2Limit": limit,
        "agrees": abs(estimate - limit) <= 3.0 * se,
        "n": n,
        "samples": samples,
        "lambda": lam,
        "L": L,
        "centering": centering,
        "window": window.kind,
        "character": ev.char_id,
    }
