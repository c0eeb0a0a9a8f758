"""The numpy replacements of SciPy routines, checked against SciPy itself.

The runtime needs numpy only; these tests skip where SciPy is missing.
"""

import math

import numpy as np
import pytest

integrate = pytest.importorskip("scipy.integrate")
special = pytest.importorskip("scipy.special")
stats = pytest.importorskip("scipy.stats")

import specvar.fuchsian as F  # noqa: E402
from oracles import _simpson, window_mass  # noqa: E402
from specvar.dynamics import _half_mass, sum_rule_check, transition_curve  # noqa: E402
from specvar.ks import kstwo_sf, ks_normal  # noqa: E402
from specvar.poisson import PoissonSurrogate, _poisson_cdf, clt_test  # noqa: E402
from specvar.variance import _resolved_grid, _simpson_weights  # noqa: E402
from specvar.windows import sigma2_goe, sigma2_gue, window  # noqa: E402

# the CLI's default transition grid
S_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)
KINDS = ("triangle", "bump")


def _quad(f, a=0.0, b=1.0):
    value, _ = integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=400)
    return value


# ---------------------------------------------------------------------------
# Gauss-Legendre against quad


@pytest.mark.parametrize("kind", KINDS)
def test_window_constants_match_quad(kind):
    w = window(kind, amplitude=1.7)
    assert sigma2_goe(w) == pytest.approx(4.0 * _quad(lambda t: t * w.psi_hat(t) ** 2), rel=1e-14)


@pytest.mark.parametrize("kind", KINDS)
def test_masses_match_quad(kind):
    w = window(kind)
    assert _half_mass(w.kind) == pytest.approx(_quad(w.psi_hat), rel=1e-14)
    assert window_mass(w) == pytest.approx(_quad(w.psi_hat, -1.0, 1.0), rel=1e-14)


def test_sum_rule_target_is_the_half_mass():
    spectrum = F.build_spectrum(F.preset("octagon_genus2"), 6.0)
    w = window("bump", amplitude=2.5)
    assert sum_rule_check(spectrum, w, 6.0)["target"] == pytest.approx(_quad(w.psi_hat), rel=1e-14)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("variance", [0.1686, 1.0, 5.0, 1e3, 1e5])
def test_transition_curve_matches_quad(kind, variance):
    # damping rates 2 variance s^2 from 0 to 3.2e6: above 40 the nodes
    # cover [0, 40/rate] only
    w = window(kind)
    curve = transition_curve(w, variance, S_GRID)
    for s, got in zip(S_GRID, curve):
        rate = 2.0 * variance * s * s
        # split where the damping has faded, so quad sees the peak
        cut = min(1.0, 50.0 / rate) if rate else 1.0
        f = lambda t: math.exp(-rate * t) * t * w.psi_hat(t) ** 2  # noqa: E731
        value = _quad(f, 0.0, cut) + (_quad(f, cut, 1.0) if cut < 1.0 else 0.0)
        assert got == pytest.approx(sigma2_gue(w) + 2.0 * value, rel=1e-14)


# ---------------------------------------------------------------------------
# composite Simpson


@pytest.mark.parametrize("points", [3, 4, 9, 10, 101, 1000, 1001])
def test_simpson_matches_on_resolved_grids(points):
    grid = _resolved_grid(1e4, 2.0, 1.0, points)
    rng = np.random.default_rng(points)
    y = rng.standard_normal((5, points))
    assert np.array_equal(_simpson(y, grid), integrate.simpson(y, x=grid, axis=1))
    assert _simpson(y[0], grid) == integrate.simpson(y[0], x=grid)


@pytest.mark.parametrize("points", [3, 4, 11, 12])
def test_simpson_matches_on_irregular_grids(points):
    rng = np.random.default_rng(points)
    x = np.cumsum(rng.uniform(0.1, 1.0, points))
    y = np.sin(x) + rng.standard_normal(points)
    assert _simpson(y, x) == pytest.approx(integrate.simpson(y, x=x), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("points", [3, 4, 9, 10, 11, 12, 101, 1000, 1001])
@pytest.mark.parametrize("irregular", [False, True], ids=["resolved", "irregular"])
def test_simpson_weights_match_scipy(points, irregular):
    # the library's one Simpson rule, grouped per sample: equal to SciPy
    # to rounding, relative to the integral of |y| since y's may cancel
    rng = np.random.default_rng(points)
    if irregular:
        x = np.cumsum(rng.uniform(0.1, 1.0, points))
    else:
        x = _resolved_grid(1e4, 2.0, 1.0, points)
    y = np.sin(x) + rng.standard_normal((5, points))
    w = _simpson_weights(x)
    scale = integrate.simpson(np.abs(y), x=x, axis=1)
    assert np.all(np.abs(y @ w - integrate.simpson(y, x=x, axis=1)) <= 1e-14 * scale)


# ---------------------------------------------------------------------------
# Poisson CDF, sample moments


@pytest.mark.parametrize("d", [1, 2, 3, 7, 40])
def test_poisson_cdf_matches_gammaln(d):
    mu = 1.0 / d
    j = np.arange(len(_poisson_cdf(d)))
    want = np.cumsum(np.exp(-mu + j * math.log(mu) - special.gammaln(j + 1)))
    np.testing.assert_allclose(_poisson_cdf(d), want, rtol=1e-15, atol=0)


def test_clt_moments_and_ks_match_scipy():
    spectrum = F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 9.0)
    sur = PoissonSurrogate(spectrum, None, window("triangle"), lam=1e4, L=8.0, seed=3)
    rep = clt_test(sur, 5000)
    std = sur.sample(5000) / math.sqrt(rep["sigma2"])
    assert rep["skewness"] == pytest.approx(float(stats.skew(std)), rel=1e-12)
    assert rep["excessKurtosis"] == pytest.approx(float(stats.kurtosis(std)), rel=1e-12)
    ks = stats.kstest(std, "norm")
    assert rep["ksStat"] == pytest.approx(ks.statistic, rel=1e-12)
    assert rep["ksPvalue"] == pytest.approx(ks.pvalue, rel=1e-9)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


@pytest.mark.parametrize("n", [8, 100, 1_000, 20_000, 100_000])
@pytest.mark.parametrize("shift", [0.0, 1.0, 3.0])
def test_ks_normal_matches_kstest(n, shift):
    x = np.random.default_rng(n).standard_normal(n) + shift / math.sqrt(n)
    stat, pvalue = ks_normal(x)
    want = stats.kstest(x, "norm")
    assert stat == pytest.approx(want.statistic, rel=1e-12)
    assert pvalue == pytest.approx(want.pvalue, rel=1e-9)


@pytest.mark.parametrize("n", [8, 100, 1_000, 20_000, 100_000])
def test_kstwo_sf_matches_scipy_on_every_branch(n):
    # z = sqrt(n) d from near 0 to far in the tail crosses every rule
    for z in np.linspace(0.05, 6.5, 27):
        d = z / math.sqrt(n)
        if d >= 1.0:
            continue
        want = float(stats.kstwo.sf(d, n))
        assert kstwo_sf(n, d) == pytest.approx(want, rel=1e-9, abs=1e-300), (n, d)
