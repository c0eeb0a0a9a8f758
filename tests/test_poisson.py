"""Poisson surrogate: cumulants, CLT behavior, and energy-window ergodicity."""

import math
import tracemalloc

import numpy as np
import pytest

import specvar.fuchsian as F
from oracles import (
    dense_energy_integrals,
    divisor_count,
    gcd_weight,
    invert_cdf,
    sample_Ninfty,
    sample_cycle_counts,
    surrogate_pairs,
    truncate_spectrum,
)
from specvar.characters import FluxCharacter
from specvar.poisson import (
    PoissonSurrogate,
    VarianceTooSmall,
    _energy_integrals,
    _poisson_cdf,
    clt_test,
    ergodicity_experiment,
    exact_cumulants,
)
from specvar.variance import (
    SpectrumTooShort,
    UnderResolved,
    _resolved_grid,
    sigma2_limit,
)
from specvar.windows import Window, sigma2_goe, sigma2_gue, window


@pytest.fixture(scope="module")
def pants():
    return F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 9.0)


@pytest.fixture(scope="module")
def pants_sur(pants):
    return PoissonSurrogate(pants, None, window("triangle"), lam=1e4, L=8.0, seed=3)


# ---------------------------------------------------------------------------
# Poisson inversion


def test_poisson_cdf_matches_scipy():
    poisson_dist = pytest.importorskip("scipy.stats").poisson
    for d in (1, 2, 3, 7):
        cdf = _poisson_cdf(d)
        want = poisson_dist.cdf(np.arange(len(cdf)), 1.0 / d)
        assert np.allclose(cdf, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_invert_cdf_matches_searchsorted(d):
    cdf = _poisson_cdf(d)
    # 1e5 uniform draws, then every CDF value exactly (ties), its
    # neighbours, and both ends of [0, 1)
    ties = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
    for u in (
        np.random.default_rng(d).random(100_000),
        np.concatenate([ties[ties < 1.0], [0.0, np.nextafter(1.0, 0.0)]]),
        np.empty(0),
    ):
        z = invert_cdf(cdf, u)
        assert z.dtype == np.int64
        assert np.array_equal(z, np.searchsorted(cdf, u, side="right"))


def test_cycle_count_draws_match_poisson_moments():
    draws = 40000
    z = sample_cycle_counts(seed=5, class_id=9, dmax=4, draws=draws)
    for d in range(1, 5):
        mu = 1.0 / d
        se = math.sqrt(mu / draws)
        assert abs(z[:, d - 1].mean() - mu) <= 3 * se
        # Poisson variance equals the mean
        var_se = math.sqrt((mu + 2 * mu**2) / draws)
        assert abs(z[:, d - 1].var(ddof=1) - mu) <= 4 * var_se


def test_cycle_count_draws_deterministic():
    a = sample_cycle_counts(seed=5, class_id=9, dmax=3, draws=100)
    b = sample_cycle_counts(seed=5, class_id=9, dmax=3, draws=100)
    assert np.array_equal(a, b)
    c = sample_cycle_counts(seed=5, class_id=10, dmax=3, draws=100)
    assert not np.array_equal(a, c)


def test_f_infty_moments_match_limit_law():
    # the surrogate IS the large-degree law: means d(k), covariances V(k1,k2)
    draws, kmax = 60000, 6
    z = sample_cycle_counts(seed=11, class_id=42, dmax=kmax, draws=draws)
    f = np.zeros((draws, kmax))
    for k in range(1, kmax + 1):
        for d in range(1, k + 1):
            if k % d == 0:
                f[:, k - 1] += d * z[:, d - 1]
    means = f.mean(axis=0)
    ses = f.std(axis=0, ddof=1) / math.sqrt(draws)
    for k in range(1, kmax + 1):
        assert abs(means[k - 1] - divisor_count(k)) <= 3 * ses[k - 1]
    cov = np.cov(f.T)
    for k1, k2 in [(1, 1), (1, 2), (2, 4), (6, 6), (2, 3)]:
        se = math.sqrt(
            np.mean(
                (f[:, k1 - 1] - means[k1 - 1]) ** 2 * (f[:, k2 - 1] - means[k2 - 1]) ** 2
            )
            / draws
        )
        assert abs(cov[k1 - 1, k2 - 1] - gcd_weight(k1, k2)) <= 3 * se + 1e-12


# ---------------------------------------------------------------------------
# surrogate construction and sampling


def test_surrogate_requires_complete_spectrum(pants):
    with pytest.raises(SpectrumTooShort):
        PoissonSurrogate(pants, None, window("triangle"), 100.0, 10.0, seed=1)


CHARACTERS_AND_WINDOWS = [
    (None, Window("triangle")),
    (None, Window("smooth_bump", amplitude=2.0)),
    (FluxCharacter(flux=(0.8, 0.4)), Window("triangle")),
    (FluxCharacter(flux=(0.8, 0.4)), Window("smooth_bump", amplitude=2.0)),
]


@pytest.mark.parametrize("char,win", CHARACTERS_AND_WINDOWS)
def test_pairs_match_per_pair_oracle(pants, char, win):
    # the terms over distinct frequencies give the per-(class, d) loop's
    # pairs and coefficients; only the summation order differs
    sur = PoissonSurrogate(pants, char, win, lam=1e4, L=8.0, seed=1)
    ids, ds, cs = surrogate_pairs(sur)
    assert np.array_equal(sur.pair_class_ids, ids)
    assert np.array_equal(sur.pair_d, ds)
    np.testing.assert_allclose(sur.pair_c, cs, rtol=1e-12, atol=0)


def test_sample_mean_and_variance(pants_sur):
    vals = pants_sur.sample(30000)
    k = exact_cumulants(pants_sur, 4)["kappa"]
    assert abs(vals.mean()) <= 3 * vals.std() / math.sqrt(len(vals))
    var_se = math.sqrt((k[2] + 2 * k[0] ** 2) / len(vals))
    assert abs(vals.var(ddof=1) - k[0]) <= 3 * var_se


def test_sample_prefix_stable(pants_sur):
    long = pants_sur.sample(50)
    short = pants_sur.sample(7)
    assert np.array_equal(short, long[:7])
    # a longer run reaches CDF thresholds its prefix never hits
    assert np.array_equal(pants_sur.sample(20_000)[:50], long)
    assert sample_Ninfty(pants_sur) == long[0]
    with pytest.raises(ValueError):
        pants_sur.sample(0)


def test_sample_deterministic_across_instances(pants):
    a = PoissonSurrogate(pants, None, window("triangle"), 1e4, 8.0, seed=3)
    b = PoissonSurrogate(pants, None, window("triangle"), 1e4, 8.0, seed=3)
    assert np.array_equal(a.sample(20), b.sample(20))
    c = PoissonSurrogate(pants, None, window("triangle"), 1e4, 8.0, seed=4)
    assert not np.array_equal(a.sample(20), c.sample(20))


# ---------------------------------------------------------------------------
# exact cumulants


@pytest.mark.parametrize(
    "char,win",
    [
        (None, Window("triangle")),
        (None, Window("smooth_bump", amplitude=2.0)),
        (FluxCharacter(flux=(0.8, 0.4)), Window("triangle")),
    ],
)
def test_kappa2_equals_limiting_variance(pants, char, win):
    sur = PoissonSurrogate(pants, char, win, lam=1e4, L=8.0, seed=1)
    rep = exact_cumulants(sur, mmax=4)
    assert rep["kappa2Matches"], rep["kappa2RelErr"]
    assert rep["kappa2RelErr"] <= 1e-9
    assert rep["sigma2Ref"] == sigma2_limit(pants, char, win, 1e4, 8.0).sigma2


def test_single_class_single_k_cumulants(pants):
    # only the 1.9-geodesic survives below L=2; kmax=1 so kappa_m = c^m
    short = truncate_spectrum(pants, 2.0)
    sur = PoissonSurrogate(short, None, window("triangle"), lam=50.0, L=2.0, seed=1)
    assert sur.n_pairs == 1
    rep = exact_cumulants(sur, mmax=5)
    c = sur.pair_c[0]
    assert np.allclose(rep["kappa"], [c**2, c**3, c**4, c**5], rtol=1e-14)


def test_cumulant_bounds_dominate(pants_sur):
    rep = exact_cumulants(pants_sur, mmax=5)
    assert np.all(np.abs(rep["kappa"]) <= np.asarray(rep["bounds"]) + 1e-15)
    assert rep["mmax"] == 5
    assert len(rep["kappa"]) == 4
    with pytest.raises(ValueError):
        exact_cumulants(pants_sur, mmax=1)
    assert rep["kappa2Matches"] is True


# ---------------------------------------------------------------------------
# central limit test


def test_clt_refuses_small_variance(pants):
    short = truncate_spectrum(pants, 2.0)
    sur = PoissonSurrogate(short, None, window("triangle"), lam=50.0, L=2.0, seed=1)
    with pytest.raises(VarianceTooSmall):
        clt_test(sur, draws=1000)


def test_clt_moments_match_cumulant_targets(pants_sur):
    rep = clt_test(pants_sur, draws=20000)
    assert rep["skewnessPass"]
    assert rep["kurtosisPass"]
    assert abs(rep["mean"]) <= 3 * rep["meanSE"]
    assert 0.0 <= rep["ksStat"] <= 1.0
    assert rep["draws"] == 20000
    with pytest.raises(ValueError):
        clt_test(pants_sur, draws=4)


# ---------------------------------------------------------------------------
# ergodicity experiment


def test_ergodicity_rejects_small_eps(pants_sur):
    with pytest.raises(ValueError):
        ergodicity_experiment(pants_sur, 100.0, 50.0, None, 10, eps=0.5)


def test_ergodicity_underresolved(pants_sur):
    eps = math.sqrt(10.0 * (1 / 8.0 + 1 / 50.0)) + 0.01
    with pytest.raises(UnderResolved):
        ergodicity_experiment(pants_sur, 100.0, 50.0, 20, 10, eps=eps)


def test_ergodicity_huge_eps_never_violates(pants_sur):
    rep = ergodicity_experiment(pants_sur, 100.0, 25.0, None, 50, eps=100.0)
    assert rep["violationFraction"] == 0.0
    assert rep["target"] == sigma2_goe(window("triangle"))


def test_ergodicity_gue_target_under_flux(pants):
    chi = FluxCharacter(flux=(math.pi / 2, 0.0))
    sur = PoissonSurrogate(pants, chi, window("triangle"), 1e4, 8.0, seed=5)
    rep = ergodicity_experiment(sur, 1e4, 25.0, None, 50, eps=100.0)
    assert rep["target"] == sigma2_gue(window("triangle"))


def test_ergodicity_fraction_nonincreasing(octagon12):
    # fixed eps (binding precondition at the smallest span); identical Z
    # draws across spans make the comparison paired
    sur = PoissonSurrogate(octagon12, None, window("triangle"), 1e4, 10.0, seed=17)
    eps = math.sqrt(10.0 * (1 / 10.0 + 1 / 25.0)) * 1.0001
    fracs = [
        ergodicity_experiment(sur, 1e4, span, None, 400, eps)["violationFraction"]
        for span in (25.0, 50.0, 100.0)
    ]
    assert all(f <= 0.1 for f in fracs)
    assert fracs[0] >= fracs[1] >= fracs[2]


@pytest.mark.parametrize("points", [201, 200])
@pytest.mark.parametrize("char,win", CHARACTERS_AND_WINDOWS)
def test_energy_integrals_match_dense_oracle(pants, char, win, points):
    # the quadratic form regroups the dense Simpson sum of N_tilde^2
    sur = PoissonSurrogate(pants, char, win, lam=1e4, L=8.0, seed=3)
    span, draws = 25.0, 400
    mu = _resolved_grid(1e4, span, sur.L, points)
    want = dense_energy_integrals(sur, mu, draws)
    np.testing.assert_allclose(_energy_integrals(sur, mu, draws), want, rtol=1e-12, atol=0)
    eps = math.sqrt(10.0 * (1 / sur.L + 1 / span)) * 1.0001
    rep = ergodicity_experiment(sur, 1e4, span, points, draws, eps)
    assert rep["energyPoints"] == points
    assert rep["violationFraction"] == float(np.mean(np.abs(want / span - rep["target"]) > eps))
    assert rep["meanAverage"] == pytest.approx(float(np.mean(want / span)), rel=1e-12)


def test_octagon_tied_frequencies_match_dense_oracle(octagon12):
    # the arithmetic octagon's tied lengths share one frequency per k l
    sur = PoissonSurrogate(octagon12, None, window("bump"), lam=1e4, L=9.0, seed=0)
    assert len(sur._freqs) < sur.n_pairs
    ids, ds, cs = surrogate_pairs(sur)
    assert np.array_equal(sur.pair_class_ids, ids) and np.array_equal(sur.pair_d, ds)
    np.testing.assert_allclose(sur.pair_c, cs, rtol=1e-12, atol=0)
    mu = _resolved_grid(1e4, 10.0, sur.L, None)
    want = dense_energy_integrals(sur, mu, 200)
    np.testing.assert_allclose(_energy_integrals(sur, mu, 200), want, rtol=1e-12, atol=0)


def test_ergodicity_memory_independent_of_grid_and_draws(pants_sur):
    # about 8,150 energies and 1,000 draws: a (draws x energies) array
    # alone would take 65 MB
    tracemalloc.start()
    try:
        rep = ergodicity_experiment(pants_sur, 1e4, 100.0, None, 1000, eps=100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["energyPoints"] > 8000
    assert peak < 16 * 2**20, peak


def test_ergodicity_report_fields(pants_sur):
    rep = ergodicity_experiment(pants_sur, 500.0, 25.0, None, 20, eps=50.0)
    assert rep["draws"] == 20
    assert rep["epsilon"] == 50.0
    assert rep["energyPoints"] >= 9
