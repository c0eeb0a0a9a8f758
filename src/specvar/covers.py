"""Random covers: uniform homomorphisms to S_n and their count statistics.

A degree-n cover is a uniform independent choice of one permutation per
generator.  Everything measured here reduces to fixed points of word
images: F_n(gamma^k) depends on the image of the primitive word only
through its cycle structure, F_n(gamma^k) = sum_{d | k} d * C_n(gamma, d),
so each sampled cover costs one permutation product per class and a few
vectorized power compositions.

A run draws its batch of covers once (``_batch_images``) and counts it
once (``count_covers``) for the moment test and the variance bridge
together.  The batch stores each permutation as it is, values
0 .. n - 1 in the narrowest unsigned dtype that holds n - 1 (2 bytes a
point up to n = 65,536).  The counting pass walks it in blocks of whole
samples sized to stay in cache, and ``_sample_blocks`` widens each
block to flat absolute int64 indices: sample s of the block owns the
points s*n .. s*n + n - 1 and each generator maps them among
themselves, so composing two images is one gather ``p.take(q)`` across
many samples and an inverse is one scatter.  Per block, each letter's
image is built once and the words are walked in prefix-trie order, so a
shared prefix is composed once.  No count depends on the block size.
Cycle counts come from a pointer-doubling scan that stops once its
window covers the longest cycle it reports; a closure check rejects the
points that lead only a window of a longer cycle.  The scan never reads
the power images, so the divisor identity between the two is a real
check.

Sampling is restricted to free presets: uniform sampling of surface-group
homomorphisms has no known efficient exact sampler, and the fixed-point
asymptotics being tested hold in both models.  Both experiments return
their artifact mapping, JSON-ready, with a ``model: free`` marker for
this reason.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import Refused
from .fuchsian import LengthSpectrum
from .rng import stream, streams
from .variance import SigmaEvaluator, _divisor_table, _gcd_weight_matrix
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
    run draws its batch once and counts it once, in ``count_covers``.
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


def _letter_images(block: np.ndarray, letters: set[int], ident: np.ndarray) -> dict[int, np.ndarray]:
    """Image of each letter on a block, shaped like ``ident``; an inverse is one scatter."""
    gens = {}
    for letter in letters:
        p = block[abs(letter) - 1].reshape(ident.shape)
        if letter < 0:
            inv = np.empty_like(p)
            np.put(inv, p, ident)
            p = inv
        gens[letter] = p
    return gens


def _power_fixed_counts(word_img: np.ndarray, kmax: int, ident: np.ndarray) -> np.ndarray:
    """F(gamma^k) for k = 1..kmax on every row, by iterated composition.

    ``ident`` is the identity of the block, ``np.arange(word_img.size)``
    in the image's shape.
    """
    samples, n = word_img.shape
    out = np.empty((samples, kmax), dtype=np.int64)
    q = word_img
    for k in range(kmax):
        if k:
            q = q.take(word_img)
        out[:, k] = np.bincount(np.flatnonzero(q == ident) // n, minlength=samples)
    return out


def _cycle_scan(word_img: np.ndarray, dmax: int) -> np.ndarray:
    """C(gamma, d) for d = 1..dmax on every row: the number of d-cycles.

    An independent witness of the power counts: pointer doubling labels
    every point with the least point of its window, the next 2**r points
    after r rounds, and stops once the window holds min(dmax, n) points.
    A cycle no longer than the window then labels all its points with its
    least point, its leader, and its length is the number of points that
    carry that label.  A point p of a longer cycle can also be its own
    label, but the window of its successor then ends before the cycle
    comes back to p, so the successor carries another label; that closure
    check, one gather on the candidate leaders, rejects p.  The scan never
    reads the power images, so the divisor identity remains a real check.
    """
    samples, n = word_img.shape
    base = word_img.reshape(-1)
    step = base
    point = np.arange(step.size)
    label = point.copy()
    for r in range((min(dmax, n) - 1).bit_length()):
        if r:
            step = step.take(step)
        np.minimum(label, label.take(step), out=label)
    leader = np.flatnonzero(label == point)
    leader = leader[label.take(base.take(leader)) == leader]
    length = np.bincount(label, minlength=step.size)[leader]
    short = length <= dmax
    cell = leader[short] // n * dmax + length[short] - 1
    return np.bincount(cell, minlength=samples * dmax).reshape(samples, dmax)


class CoverCounts(NamedTuple):
    """Integer counts of one batch, per word: the input of both experiments.

    ``samples`` covers of degree ``n``.  ``fixed[w]`` is F(w^k) for
    k = 1.. (samples, highest k asked), and ``cycles[w]`` is C(w, d) for
    d = 1..dmax, for the scanned words only.
    """

    n: int
    samples: int
    fixed: dict[Word, np.ndarray]
    cycles: dict[Word, np.ndarray]


def _counted(table: dict[Word, np.ndarray], word: Word, k: int) -> np.ndarray:
    """Columns 1..k of a word's counts; refuses counts that stop short of them."""
    if word not in table or table[word].shape[1] < k:
        raise ValueError(f"the counts do not reach word {word} at k = {k}; pass it to count_covers")
    return table[word][:, :k]


def _bridge_powers(ev: SigmaEvaluator) -> list[tuple[Word, int]]:
    """The bridge's class words in ``ev.rows`` order, each with its highest power."""
    spectrum = ev.spectrum
    kmaxes = [max(1, int(ev.L / ell)) for ell in spectrum.primitive_length[ev.rows]]
    return list(zip(spectrum.words(ev.rows), kmaxes))


def count_covers(
    images: np.ndarray, records: list[Word], kmax: int, ev: SigmaEvaluator | None = None
) -> CoverCounts:
    """Count a batch once for the moment test and, given ``ev``, the bridge.

    The moment words ``records`` get F(w^k) and C(w, d) up to ``kmax``;
    the bridge words of ``ev`` get F(w^k) up to their own cutoff; a word
    both need is counted once, to the higher k.  Per block of samples
    each letter's image is built once and the words are walked in
    prefix-trie (sorted) order, so a shared prefix is composed once and
    one root-to-leaf path of images is alive at a time.  The counts are
    stored in the narrowest dtype that holds n.  ``images`` is a batch
    from ``_batch_images``, of shape (rank, samples, n).
    """
    rank, samples, n = images.shape
    _check_sizes(n, samples)
    if images.dtype.kind != "u":
        raise ValueError(
            f"batch images have dtype {images.dtype}; _batch_images stores "
            "relative permutations in an unsigned dtype"
        )
    powers = dict.fromkeys(records, kmax)
    for word, km in [] if ev is None else _bridge_powers(ev):
        powers[word] = max(km, powers.get(word, 0))
    letters = {letter for word in powers for letter in word}
    for letter in letters:
        if letter == 0 or abs(letter) > rank:
            raise ValueError(f"letter {letter} out of range for rank {rank}")
    dtype = np.min_scalar_type(n)
    counts = CoverCounts(
        n,
        samples,
        {w: np.empty((samples, k), dtype) for w, k in powers.items()},
        {w: np.empty((samples, kmax), dtype) for w in records},
    )
    for rows, block in _sample_blocks(images):
        ident = np.arange(block[0].size).reshape(-1, n)
        gens = _letter_images(block, letters, ident)
        path: list[np.ndarray] = []  # images of the prefixes of the last word
        last: Word = ()
        for word in sorted(powers):
            shared = next(
                (i for i, (a, b) in enumerate(zip(last, word)) if a != b), min(len(last), len(word))
            )
            del path[shared:]
            for letter in word[shared:]:
                path.append(path[-1].take(gens[letter]) if path else gens[letter])
            img = path[-1] if path else ident
            counts.fixed[word][rows] = _power_fixed_counts(img, powers[word], ident)
            if word in counts.cycles:
                counts.cycles[word][rows] = _cycle_scan(img, kmax)
            last = word
    return counts


# ---------------------------------------------------------------------------
# moment experiment


def moment_experiment(
    records: list[Word], counts: CoverCounts, n: int, samples: int, kmax: int = 6
) -> dict:
    """Empirical F_n moments against their n -> infinity laws.

    ``counts`` is the run's counting pass (``count_covers``), which must
    hold ``records`` (one class word per class) to ``kmax``, of
    ``samples`` covers of degree ``n``: both sizes repeat the counts'
    and are checked against them, but stay, since ``bench/tracer.py``
    binds ``records`` and ``samples`` by name.  F is counted from powers
    of the word image and cycle counts from an independent cycle scan;
    F(gamma^k) = sum_{d|k} d*C(gamma,d) is asserted on every sample.

    Returns the ``moments`` mapping of the ``covers`` artifact.  ``cov``
    indexes the flattened (class, k) grid; its target is V(k1, k2)
    within a class and 0 across classes.  That target holds for
    primitive, pairwise non-inverse classes only.  The ``covers``
    subcommand passes every record up to its cutoff, both orientations
    included, and F(gamma^-1) = F(gamma) on every cover, so its inverse
    pairs fail their cross-class entries (ROADMAP item 6(a)).  Mean
    targets are d(k) for F and 1/d for cycle counts.  Pass flags apply a
    3-standard-error band.
    """
    if (counts.n, counts.samples) != (n, samples):
        raise ValueError(
            f"the counts are of {counts.samples} covers of degree {counts.n}, "
            f"expected {samples} of degree {n}"
        )
    fixed = [_counted(counts.fixed, w, kmax) for w in records]
    cycles = [_counted(counts.cycles, w, kmax) for w in records]

    nc = len(records)
    # hard consistency: the divisor identity must hold on every sample
    divisors = _divisor_table(kmax)
    weighted = np.arange(1, kmax + 1)[:, None] * divisors  # entry [d-1, k-1] = d if d | k
    bad = np.zeros(kmax, dtype=bool)
    for f, c in zip(fixed, cycles):
        bad |= (f != c @ weighted).any(axis=0)
    if bad.any():
        raise RuntimeError(f"fixed-point/cycle-count identity violated at k={np.flatnonzero(bad)[0] + 1}")

    # one float copy of the counts at a time, centered and squared in place
    cyc = np.concatenate(cycles, axis=1, dtype=float)
    cycle_mean = cyc.mean(axis=0)
    cycle_se = cyc.std(axis=0, ddof=1) / math.sqrt(samples)
    del cyc
    flat = np.concatenate(fixed, axis=1, dtype=float)
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
    ev: SigmaEvaluator, lam: float, counts: CoverCounts, seed: int, centering: str = "batch"
) -> dict:
    """Variance of the smoothed count fluctuation over sampled covers.

    ``ev`` is the run's evaluator: its spectrum, character, window and L
    fix the classes and their coefficients.  ``counts`` is the run's
    counting pass (``count_covers`` given ``ev``), which must hold the
    bridge words of ``ev``; ``seed`` keys the bootstrap stream.  Per sample,
    N_tilde = (2/L) sum_{gamma in P0} sum_k F_tilde(gamma^k) * A(gamma, k)
    over unoriented primitives.  Batch centering removes the O(1/n) mean
    bias; ``centering="dk"`` subtracts the asymptotic mean d(k) instead.
    Returns the ``bridge`` mapping of the ``covers`` artifact.
    """
    _require_free(ev.spectrum)
    if centering not in ("batch", "dk"):
        raise Refused(f"unknown centering {centering!r}")
    n, samples = counts.n, counts.samples

    L = ev.L
    coeffs = ev.coefficients(lam)
    dk = _divisor_table(ev.kmax).sum(axis=0).astype(float)
    vals = np.zeros(samples)
    for i, (word, km) in enumerate(_bridge_powers(ev)):
        f = _counted(counts.fixed, word, km).astype(float)
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
        "window": ev.window.kind,
        "character": ev.char_id,
    }
