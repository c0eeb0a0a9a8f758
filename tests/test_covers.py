"""Random-cover sampling, fixed-point statistics, and the variance bridge."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specvar.covers as covers
import specvar.fuchsian as F
from oracles import (
    PermutationRep,
    cycle_counts,
    divisor_count,
    eval_perm,
    exact_cover_moment,
    fixed_points,
    fixed_points_of_powers,
    sample_rep,
)
from specvar.covers import (
    NotFreePreset,
    _batch_images,
    _cycle_scan,
    _power_fixed_counts,
    _sample_blocks,
    _word_images,
    empirical_cover_variance,
    moment_experiment,
)
from specvar.characters import FluxCharacter
from specvar.variance import SpectrumTooShort, sigma2_limit
from specvar.windows import window


@pytest.fixture(scope="module")
def pants():
    return F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 9.0)


def moments(words, n, samples, seed, kmax, rank=2):
    return moment_experiment(words, _batch_images(rank, n, samples, seed), n, samples, kmax)


def bridge(spectrum, char, win, lam, L, n, samples, seed, **kw):
    images = _batch_images(spectrum.group.rank, n, samples, seed)
    return empirical_cover_variance(spectrum, char, win, lam, L, images, n, samples, seed, **kw)


# ---------------------------------------------------------------------------
# sampling


def test_sample_rep_deterministic():
    a = sample_rep(2, 50, seed=7, sample_index=3)
    b = sample_rep(2, 50, seed=7, sample_index=3)
    for pa, pb in zip(a.images, b.images):
        assert np.array_equal(pa, pb)
    c = sample_rep(2, 50, seed=7, sample_index=4)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.images, c.images))
    assert not np.array_equal(a.images[0], a.images[1])


def test_sample_rep_degree_one_is_identity():
    rep = sample_rep(3, 1, seed=0)
    for p in rep.images:
        assert np.array_equal(p, np.array([0]))


def test_sample_rep_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_rep(2, 0, seed=1)
    with pytest.raises(ValueError):
        sample_rep(0, 5, seed=1)


def test_permutation_rep_validates_images():
    with pytest.raises(ValueError):
        PermutationRep(n=3, images=(np.array([0, 0, 2]),), seed=0)


def test_sample_rep_uniform_on_s3():
    # all 6 permutations of S_3 equally likely: multinomial 3-SE band per
    # cell.  Row s of the batch is sample_rep(1, 3, seed=99, sample_index=s)
    # (test_batch_matches_scalar_rows), so one batch draws the same
    # permutations as 100,000 single streams
    n_samples = 100_000
    perms = _batch_images(1, 3, n_samples, 99)[0]
    codes = {p: i for i, p in enumerate(
        [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    )}
    counts = np.bincount([codes[tuple(p)] for p in perms.tolist()], minlength=6)
    p = 1.0 / 6.0
    se = math.sqrt(n_samples * p * (1 - p))
    assert np.all(np.abs(counts - n_samples * p) <= 3 * se), counts


# ---------------------------------------------------------------------------
# word evaluation and cycle structure


def test_eval_perm_three_cycle_example():
    rep = PermutationRep(n=3, images=(np.array([1, 2, 0]),), seed=0)
    assert fixed_points(rep, (1,)) == 0
    assert fixed_points(rep, (1, 1, 1)) == 3
    c = cycle_counts(rep, (1,), 3)
    assert c.tolist() == [0, 0, 1]
    assert sum(d * c[d - 1] for d in (1, 3)) == 3


def test_eval_perm_identity_word_and_inverse():
    rep = sample_rep(2, 17, seed=5)
    assert fixed_points(rep, ()) == 17
    assert fixed_points(rep, (1, -1)) == 17
    p = eval_perm(rep, (1, 2))
    q = eval_perm(rep, (-2, -1))
    assert np.array_equal(p[q], np.arange(17))


def test_eval_perm_composition_order():
    # word (1, 2) applies generator 1 then generator 2
    a = np.array([1, 0, 2])
    b = np.array([0, 2, 1])
    rep = PermutationRep(n=3, images=(a, b), seed=0)
    expect = a[b]  # out = (arange[a])[b]
    assert np.array_equal(eval_perm(rep, (1, 2)), expect)


def test_eval_perm_rejects_out_of_range_letters():
    rep = sample_rep(2, 5, seed=1)
    with pytest.raises(ValueError):
        eval_perm(rep, (3,))
    with pytest.raises(ValueError):
        eval_perm(rep, (0,))


def test_fixed_points_equals_one_cycles():
    rep = sample_rep(2, 40, seed=8)
    for w in [(1,), (2,), (1, 2), (1, -2, 1)]:
        assert fixed_points(rep, w) == cycle_counts(rep, w, 1)[0]


def test_divisor_identity_on_samples():
    # F(g^k) = sum_{d|k} d*C(g,d) exactly, via independent power counting
    rep = sample_rep(2, 60, seed=3)
    for w in [(1,), (1, 2), (2, -1, 2)]:
        f = fixed_points_of_powers(rep, w, 8)
        perm = eval_perm(rep, w)
        q = np.arange(60)
        for k in range(1, 9):
            q = q[perm] if k > 1 else perm
            assert f[k - 1] == np.count_nonzero(q == np.arange(60))


def test_class_function_on_samples():
    rep = sample_rep(2, 35, seed=12)
    for u in [(1,), (2, 1), (-1, 2, 2)]:
        w = (1, 2, -1, 2)
        conj = tuple(u) + w + tuple(-l for l in reversed(u))
        assert fixed_points(rep, conj) == fixed_points(rep, w)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=1000),
)
def test_inverse_word_same_cycle_type(letters, seed):
    rep = sample_rep(2, 12, seed=seed)
    w = tuple(letters)
    inv = tuple(-l for l in reversed(letters))
    assert np.array_equal(cycle_counts(rep, w, 12), cycle_counts(rep, inv, 12))


# ---------------------------------------------------------------------------
# batch path agrees bit-exactly with the scalar path


def test_batch_matches_scalar_rows():
    # row s of a widened block holds sample s's permutation offset by s*n
    rank, n, samples, seed = 2, 23, 15, 77
    ((_, block),) = _sample_blocks(_batch_images(rank, n, samples, seed))
    for w in [(1,), (1, 2), (-2, 1, 1)]:
        batch = _word_images(block, w)
        fbatch = _power_fixed_counts(batch, 5)
        cbatch = _cycle_scan(batch, 5)
        for s in range(samples):
            rep = sample_rep(rank, n, seed, sample_index=s)
            assert np.array_equal(batch[s] - s * n, eval_perm(rep, w))
            assert np.array_equal(fbatch[s], fixed_points_of_powers(rep, w, 5))
            assert np.array_equal(cbatch[s], cycle_counts(rep, w, 5))


@pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16), (65_537, np.uint32)])
def test_batch_dtype_is_narrowest_unsigned(n, dtype):
    assert _batch_images(1, n, 2, seed=3).dtype == dtype


def test_batch_rows_are_permutations():
    images = _batch_images(2, 300, 40, seed=5)
    assert np.array_equal(np.sort(images, axis=-1), np.broadcast_to(np.arange(300), images.shape))


def test_batch_footprint_two_bytes_per_point():
    # the benchmark's batch: rank 2, 5,000 covers of degree 300 in uint16
    assert _batch_images(2, 300, 5000, 0).nbytes == 6_000_000


def test_sample_blocks_widen_and_offset(monkeypatch):
    # blocks of 3 samples: each block is int64, row s offset by s*n
    n, samples = 256, 7
    images = _batch_images(2, n, samples, seed=6)
    monkeypatch.setattr(covers, "_BLOCK_POINTS", 3 * n)
    blocks = list(_sample_blocks(images))
    assert len(blocks) == 3
    for rows, block in blocks:
        assert block.dtype == np.int64
        stored = images[:, rows]
        offsets = np.arange(stored.shape[1])[:, None] * n
        assert np.array_equal(block, stored + offsets)


def test_batch_must_be_unsigned():
    # the old absolute int64 layout would count wrongly, so it is refused
    images = _batch_images(2, 5, 4, seed=1)
    absolute = images.astype(np.int64) + (np.arange(4) * 5)[:, None]
    with pytest.raises(ValueError, match="unsigned"):
        moment_experiment([(1,)], absolute, 5, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=4)
))
def test_cycle_scan_matches_walk(rows):
    # pointer doubling against the plain cycle walk, every cycle length
    n = len(rows[0])
    batch = np.array(rows, dtype=np.int64) + np.arange(len(rows))[:, None] * n
    scan = _cycle_scan(batch, n)
    for s, row in enumerate(rows):
        rep = PermutationRep(n=n, images=(np.array(row),), seed=0)
        assert np.array_equal(scan[s], cycle_counts(rep, (1,), n))


def test_word_images_rejects_out_of_range_letters():
    images = _batch_images(2, 5, 3, seed=1)
    for letter in (0, 3, -3):
        with pytest.raises(ValueError):
            _word_images(images, (1, letter))
    with pytest.raises(ValueError):
        moment_experiment([(0,)], images, 5, 3)


def test_sample_blocks_do_not_change_results(monkeypatch, pants):
    # blocks of 2 samples (the last one short) against a single block
    n, samples, seed = 23, 15, 4
    images = _batch_images(2, n, samples, seed)
    tri = window("triangle")
    whole_m = moment_experiment([(1,), (1, -2)], images, n, samples, kmax=5)
    whole_b = empirical_cover_variance(pants, None, tri, 100.0, 6.0, images, n, samples, seed)
    monkeypatch.setattr(covers, "_BLOCK_POINTS", 2 * n)
    assert len(list(covers._sample_blocks(images))) == 8
    blocked_m = moment_experiment([(1,), (1, -2)], images, n, samples, kmax=5)
    blocked_b = empirical_cover_variance(pants, None, tri, 100.0, 6.0, images, n, samples, seed)
    assert blocked_m == whole_m
    assert blocked_b == whole_b


def test_batch_shape_must_match_degree_and_samples():
    images = _batch_images(2, 5, 4, seed=1)
    with pytest.raises(ValueError):
        moment_experiment([(1,)], images, 6, 4)
    with pytest.raises(ValueError):
        moment_experiment([(1,)], images, 5, 3)
    with pytest.raises(ValueError):
        moment_experiment([(1,)], _batch_images(2, 0, 4, seed=1), 0, 4)


# ---------------------------------------------------------------------------
# exhaustive oracle and moment experiment


def test_exact_cover_moment_small_degrees():
    # E[F(g^k)] = #{d | k : d <= n} exactly for a uniform permutation
    for n in (1, 2, 3, 4):
        for w in [(1,), (1, 2)]:
            ex = exact_cover_moment(w, n, kmax=6)
            want = [
                sum(1 for d in range(1, k + 1) if k % d == 0 and d <= n)
                for k in range(1, 7)
            ]
            assert np.allclose(ex, want), (n, w, ex)
    with pytest.raises(ValueError):
        exact_cover_moment((1,), 5)


def test_moment_experiment_matches_exhaustive_oracle():
    st_ = moments([(1, 2)], n=3, samples=8000, seed=5, kmax=4)
    ex = exact_cover_moment((1, 2), 3, kmax=4)
    assert np.all(np.abs(np.asarray(st_["fMean"][0]) - ex) <= 3 * np.asarray(st_["fMeanSE"][0]))


def test_moment_experiment_named_asymptotics(pants):
    prim = F.unoriented_primitives(pants)
    words = [prim[0].word, prim[2].word]
    st_ = moments(words, n=100, samples=4000, seed=11, kmax=6)
    # E[F(g)] -> d(1) = 1, E[F(g^6)] -> d(6) = 4
    assert abs(st_["fMean"][0][0] - 1.0) <= 3 * st_["fMeanSE"][0][0]
    assert abs(st_["fMean"][0][5] - 4.0) <= 3 * st_["fMeanSE"][0][5]
    # Var[F(g)] -> V(1,1) = 1
    assert abs(st_["cov"][0][0] - 1.0) <= 3 * st_["covSE"][0][0]
    # cross-class covariance -> 0
    assert abs(st_["cov"][0][6]) <= 3 * st_["covSE"][0][6]
    assert st_["fMeanTarget"][0] == [divisor_count(k) for k in range(1, 7)]
    assert st_["covTarget"][0][6] == 0.0
    assert st_["covTarget"][1][3] == 3.0  # V(2,4) = sigma(2)
    assert st_["model"] == "free"


def test_moment_experiment_cycle_means(pants):
    st_ = moments([(1,)], n=100, samples=4000, seed=2, kmax=4, rank=1)
    # C(g,d) -> Poisson(1/d) means
    assert np.all(
        np.abs(np.asarray(st_["cycleMean"][0]) - st_["cycleMeanTarget"][0])
        <= 3 * np.asarray(st_["cycleMeanSE"][0]) + 1e-12
    )


# ---------------------------------------------------------------------------
# empirical ensemble variance


def test_cover_variance_requires_free_preset():
    oct3 = F.build_spectrum(F.preset("octagon_genus2"), 3.0)
    with pytest.raises(NotFreePreset):
        bridge(oct3, None, window("triangle"), 100.0, 3.0, 10, 10, seed=1)


def test_cover_variance_requires_complete_spectrum(pants):
    with pytest.raises(SpectrumTooShort):
        bridge(pants, None, window("triangle"), 100.0, 10.0, 10, 10, seed=1)


def test_cover_variance_degree_one_is_zero(pants):
    rep = bridge(pants, None, window("triangle"), 100.0, 6.0, n=1, samples=50, seed=4)
    assert rep["estimate"] == 0.0
    assert rep["bootstrapSE"] == 0.0


def test_cover_variance_matches_limit(pants):
    tri = window("triangle")
    rep = bridge(pants, None, tri, lam=100.0, L=6.0, n=100, samples=4000, seed=21)
    assert rep["sigma2Limit"] == sigma2_limit(pants, None, tri, 100.0, 6.0).sigma2
    assert abs(rep["estimate"] - rep["sigma2Limit"]) <= 3 * rep["bootstrapSE"]
    assert rep["agrees"]
    low, high = rep["ci95"]
    assert low <= rep["estimate"] <= high


def test_cover_variance_flux_character(pants):
    tri = window("triangle")
    chi = FluxCharacter(flux=(0.7, 0.3))
    rep = bridge(pants, chi, tri, lam=100.0, L=6.0, n=100, samples=4000, seed=31)
    assert abs(rep["estimate"] - rep["sigma2Limit"]) <= 3 * rep["bootstrapSE"]


def test_cover_variance_centering_shift_invariance(pants):
    tri = window("triangle")
    kw = dict(lam=100.0, L=6.0, n=50, samples=500, seed=9)
    a = bridge(pants, None, tri, **kw, centering="batch")
    b = bridge(pants, None, tri, **kw, centering="dk")
    # centering shifts every sample by the same constant; variance unmoved
    assert a["estimate"] == b["estimate"]
    with pytest.raises(ValueError):
        bridge(pants, None, tri, **kw, centering="median")


def test_cover_variance_deterministic(pants):
    tri = window("triangle")
    kw = dict(lam=100.0, L=6.0, n=50, samples=500, seed=9)
    a = bridge(pants, None, tri, **kw)
    b = bridge(pants, None, tri, **kw)
    assert a == b
