import numpy as np
import pytest

import oracles
from specvar import windows as W

# Independent oracle for the smooth bump: composite 40-point Gauss-Legendre
# over dyadic refinements of [0,1] (8/16/32/64 pieces) cross-checked against
# adaptive quadrature at 1e-14; successive refinements agreed to 2.8e-17.
BUMP_GOE = 0.5546855324471096
BUMP_GUE = 0.2773427662235548
BUMP_GSE = 0.1386713831117774


def test_triangle_constants():
    w = W.window("triangle")
    assert W.sigma2_goe(w) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert W.sigma2_gue(w) == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert oracles.sigma2_gse(w) == pytest.approx(1.0 / 12.0, abs=1e-10)


def test_bump_constants_frozen():
    w = W.window("bump")
    assert W.sigma2_goe(w) == pytest.approx(BUMP_GOE, abs=1e-12)
    assert W.sigma2_gue(w) == pytest.approx(BUMP_GUE, abs=1e-12)
    assert oracles.sigma2_gse(w) == pytest.approx(BUMP_GSE, abs=1e-12)


def test_ensemble_ratios_exact():
    for kind in W.KINDS:
        w = W.window(kind)
        goe = W.sigma2_goe(w)
        assert W.sigma2_gue(w) == goe / 2.0
        assert oracles.sigma2_gse(w) == goe / 4.0


def test_amplitude_scales_quadratically():
    base = W.sigma2_goe(W.window("bump"))
    scaled = W.sigma2_goe(W.window("bump", amplitude=3.0))
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_psi_hat_support_exact():
    for kind in W.KINDS:
        w = W.window(kind)
        assert w.psi_hat(1.0) == 0.0
        assert w.psi_hat(-1.0) == 0.0
        assert w.psi_hat(1.0001) == 0.0
        assert w.psi_hat(-17.0) == 0.0


def test_psi_hat_even_and_normalized():
    t = np.linspace(-0.999, 0.999, 201)
    for kind in W.KINDS:
        w = W.window(kind)
        vals = w.psi_hat(t)
        assert np.allclose(vals, vals[::-1], atol=0)
        assert w.psi_hat(0.0) == 1.0
        assert np.all(vals >= 0.0)


def test_psi_hat_scalar_and_array_agree():
    w = W.window("bump")
    t = np.array([0.0, 0.3, 0.9, 1.2])
    arr = w.psi_hat(t)
    assert arr.shape == t.shape
    for ti, vi in zip(t, arr):
        assert w.psi_hat(float(ti)) == vi


def _bump_goe_integrand(t):
    return t * W.window("bump").psi_hat(t) ** 2


def test_tolerance_refinement_consistent():
    loose = 4.0 * W._unit_integral(_bump_goe_integrand, 1e-8)
    tight = 4.0 * W._unit_integral(_bump_goe_integrand, 1e-12)
    assert loose == pytest.approx(tight, abs=1e-8)
    assert tight == pytest.approx(W.sigma2_goe(W.window("bump")), abs=1e-8)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        W.window("hann")


def test_tolerance_bounds_the_node_count_difference():
    # the 128- and 256-node values of the bump constant differ by ~1e-16
    W._unit_integral(_bump_goe_integrand, 1e-14)
    with pytest.raises(RuntimeError, match="quadrature error"):
        W._unit_integral(_bump_goe_integrand, 1e-18)
