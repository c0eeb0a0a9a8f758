"""Orbit-sum checks: sum rules, cluster sums, the orbit CLT, the transition."""

import math

import numpy as np
import pytest

import specvar.fuchsian as F
from specvar.characters import FluxCharacter
from specvar.cli import EXIT_INVALID, main
from oracles import cluster_sum, window_mass
from specvar.dynamics import (
    EmptyEnsemble,
    NonCompactPreset,
    OrbitEnsemble,
    empirical_transition,
    orbit_clt_experiment,
    sum_rule_check,
    transition_curve,
    unit_mass_bump,
    variance_estimator,
)
from specvar import Refused
from specvar.variance import SpectrumTooShort
from specvar.windows import sigma2_goe, sigma2_gue, window

# integral of the unit-amplitude bump over [0, 1]; frozen from two
# independent quadratures (adaptive and 40-point composite Gauss-Legendre)
# that agree to 1.1e-16
BUMP_HALF_MASS = 0.6034501612189380

FLUX1 = (1.0, 0.0, 0.0, 0.0)
TRI = window("triangle")
GOE, GUE = sigma2_goe(TRI), sigma2_gue(TRI)


@pytest.fixture(scope="module")
def pants():
    return F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 6.0)


# ---------------------------------------------------------------------------
# window masses


def test_bump_half_mass_frozen():
    quad = pytest.importorskip("scipy.integrate").quad
    w = window("bump")
    val, _ = quad(w.psi_hat, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    assert abs(val - BUMP_HALF_MASS) < 1e-14


def test_unit_mass_bump_has_unit_mass():
    assert window_mass(unit_mass_bump()) == 1.0


def test_triangle_mass():
    # 2 * integral of (1 - t) over [0, 1]
    assert abs(window_mass(window("triangle")) - 1.0) < 1e-12


def test_mass_scales_with_amplitude():
    assert window_mass(window("bump", 3.0)) == 3.0 * window_mass(window("bump"))


# ---------------------------------------------------------------------------
# sum rules


def test_sum_rule_trivial_target(octagon12):
    rep = sum_rule_check(octagon12, window("bump"), 8.0)
    assert abs(rep["target"] - BUMP_HALF_MASS) < 1e-13
    assert rep["gap"] == abs(rep["value"] - rep["target"])
    assert rep["gap"] <= 0.15 * rep["target"]


def test_sum_rule_gap_decreases_in_L(octagon12):
    gaps = [
        sum_rule_check(octagon12, window("bump"), L)["gap"] for L in (8.0, 9.5, 11.0)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_sum_rule_flux_target_zero(octagon12):
    chi = FluxCharacter(flux=FLUX1, scale=math.pi / 2)
    rep = sum_rule_check(octagon12, window("bump"), 8.0, char=chi)
    assert rep["target"] == 0.0
    assert math.isfinite(rep["value"])
    # a flux with every phase in 2*pi*Z is the trivial character in disguise
    wrapped = FluxCharacter(flux=FLUX1, scale=2.0 * math.pi)
    assert sum_rule_check(octagon12, window("bump"), 8.0, char=wrapped)["target"] > 0.0


def test_sum_rule_linear_in_phi(octagon12):
    one = sum_rule_check(octagon12, window("bump"), 8.0)
    two = sum_rule_check(octagon12, window("bump", 2.0), 8.0)
    assert two["value"] == 2.0 * one["value"]
    assert two["target"] == 2.0 * one["target"]


def test_sum_rule_short_spectrum(octagon12):
    with pytest.raises(SpectrumTooShort):
        sum_rule_check(octagon12, window("bump"), 12.5)


@pytest.mark.parametrize("L", [0.0, -3.0])
def test_sum_rule_refuses_nonpositive_cutoff(octagon12, L):
    # L = 0 divided by zero, and a negative L wrote a row
    with pytest.raises(Refused, match="L must be positive"):
        sum_rule_check(octagon12, window("bump"), L)


@pytest.mark.parametrize("grid", [["--L", "0,8"], ["--L=-3,8"]], ids=["zero", "negative"])
def test_sumrule_cli_refuses_nonpositive_cutoff(tmp_path, capsys, octagon_csv, grid):
    out = tmp_path / "sumrule.csv"
    assert main(["sumrule", *grid, "--spectrum-file", octagon_csv, "--out", str(out)]) == EXIT_INVALID
    assert "L must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_sum_rule_warns_off_cocompact(pants):
    with pytest.warns(NonCompactPreset):
        sum_rule_check(pants, window("bump"), 5.0)


def test_sum_rule_rejects_other_characters(octagon12):
    with pytest.raises(TypeError):
        sum_rule_check(octagon12, window("bump"), 8.0, char=0.5)


# ---------------------------------------------------------------------------
# cluster sums


def test_cluster_below_systole(octagon12):
    # shortest octagon class is 2.2568, outside the window (0, 2)
    rep = cluster_sum(octagon12, unit_mass_bump(), 1.0)
    assert rep.value == 0.0
    assert rep.unit_window_sum == 0.0
    assert rep.mass == 1.0


def test_cluster_near_unit_mass(octagon12):
    rep = cluster_sum(octagon12, unit_mass_bump(), 9.0)
    assert abs(rep.value - rep.mass) <= 0.25 * rep.mass


def test_cluster_linear_in_omega(octagon12):
    one = cluster_sum(octagon12, window("bump"), 9.0)
    two = cluster_sum(octagon12, window("bump", 2.0), 9.0)
    assert two.value == 2.0 * one.value


def test_cluster_sums_stay_bounded(octagon12):
    for T in (5.0, 7.0, 9.0, 11.0):
        rep = cluster_sum(octagon12, unit_mass_bump(), T)
        assert rep.unit_window_sum <= 4.0


def test_cluster_validation(octagon12):
    with pytest.raises(ValueError):
        cluster_sum(octagon12, unit_mass_bump(), -1.0)
    with pytest.raises(SpectrumTooShort):
        cluster_sum(octagon12, unit_mass_bump(), 11.5)


# ---------------------------------------------------------------------------
# the orbit ensemble


def test_ensemble_weights(octagon12):
    ens = OrbitEnsemble(octagon12, 9.0)
    assert abs(ens.probs.sum() - 1.0) < 1e-12
    assert (ens.probs > 0).all()
    assert all(abs(octagon12.records[i].length - 9.0) < 1.0 for i in ens.rows)


def test_ensemble_empty_window(octagon12):
    with pytest.raises(EmptyEnsemble):
        OrbitEnsemble(octagon12, 1.0)


def test_ensemble_draw_validation(octagon12):
    ens = OrbitEnsemble(octagon12, 9.0)
    with pytest.raises(ValueError):
        ens.sample_indices(0, seed=1)


def test_ensemble_sampling_deterministic(pants):
    ens = OrbitEnsemble(pants, 4.0)
    a = ens.sample_indices(500, seed=11)
    b = ens.sample_indices(500, seed=11)
    assert (a == b).all()
    assert (a != ens.sample_indices(500, seed=12)).any()


def test_alias_frequencies_chi_square(pants):
    chi2 = pytest.importorskip("scipy.stats").chi2
    # lump classes with tiny expected counts into one bin, then chi-square
    draws = 100000
    ens = OrbitEnsemble(pants, 4.0)
    counts = np.bincount(ens.sample_indices(draws, seed=5), minlength=len(ens.probs))
    big = ens.probs * draws >= 10.0
    observed = counts[big].astype(float)
    expected = ens.probs[big] * draws
    if (~big).any():
        observed = np.append(observed, counts[~big].sum())
        expected = np.append(expected, ens.probs[~big].sum() * draws)
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.999, len(observed) - 1)


# ---------------------------------------------------------------------------
# orbit CLT


def test_orbit_clt_zero_flux(octagon12):
    rep = orbit_clt_experiment(octagon12, (0.0, 0.0, 0.0, 0.0), 9.0, 2000, seed=1)
    assert rep["mean"] == 0.0
    assert rep["variance"] == 0.0
    assert rep["skewness"] == 0.0
    assert rep["excess_kurtosis"] == 0.0
    assert rep["exact_variance"] == 0.0


def test_orbit_clt_mean_vanishes(octagon12):
    rep = orbit_clt_experiment(octagon12, FLUX1, 9.0, 20000, seed=7)
    # orientation pairs cancel exactly in the ensemble expectation
    assert abs(rep["exact_mean"]) < 1e-12
    assert abs(rep["mean"]) <= 3.0 * rep["mean_se"]


def test_orbit_clt_moments_match_ensemble(octagon12):
    draws = 20000
    rep = orbit_clt_experiment(octagon12, FLUX1, 9.0, draws, seed=7)
    assert abs(rep["variance"] - rep["exact_variance"]) <= 3.0 * rep["variance_se"]

    ens = OrbitEnsemble(octagon12, 9.0)
    x = np.array([np.dot(FLUX1, octagon12.records[i].homology) for i in ens.rows]) / 3.0
    m2 = float(ens.probs @ x**2)
    exact_kurt = float(ens.probs @ x**4) / m2**2 - 3.0
    assert abs(rep["skewness"]) <= 4.0 * math.sqrt(6.0 / draws)
    assert abs(rep["excess_kurtosis"] - exact_kurt) <= 4.0 * math.sqrt(24.0 / draws)


def test_orbit_clt_refuses_fewer_than_two_draws(octagon12, tmp_path):
    # one draw has no sample variance: refused, not written as nan
    with pytest.raises(ValueError, match="draws must be >= 2"):
        orbit_clt_experiment(octagon12, FLUX1, 9.0, 1, seed=3)
    out = tmp_path / "clt.csv"
    argv = ["orbit-clt", "--preset", "octagon_genus2", "--Lmax", "5", "--T", "4",
            "--draws", "1", "--out", str(out)]
    assert main(argv) == EXIT_INVALID
    assert not out.exists()


def test_orbit_clt_refuses_epsilon_before_any_draw(tmp_path, capsys, monkeypatch):
    def no_draws(self, draws, seed):
        raise AssertionError("drew the ensemble before refusing epsilon")

    monkeypatch.setattr(OrbitEnsemble, "sample_indices", no_draws)
    out = tmp_path / "clt.csv"
    argv = ["orbit-clt", "--preset", "octagon_genus2", "--Lmax", "5", "--T", "4",
            "--epsilon", "0", "--out", str(out)]
    assert main(argv) == EXIT_INVALID
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_orbit_clt_refuses_flux_of_wrong_rank(octagon12):
    # a flux vector is neither padded nor cut to the rank
    for flux in ((1.0,), FLUX1 + (0.0,)):
        with pytest.raises(ValueError, match=f"flux has {len(flux)} entries for rank 4"):
            orbit_clt_experiment(octagon12, flux, 9.0, 1000, seed=3)
        with pytest.raises(ValueError, match=f"flux has {len(flux)} entries for rank 4"):
            variance_estimator(octagon12, flux, 9.0)


def test_orbit_clt_accepts_flux_character(octagon12):
    chi = FluxCharacter(flux=FLUX1, scale=0.7)
    a = orbit_clt_experiment(octagon12, chi, 9.0, 1000, seed=3)
    b = orbit_clt_experiment(octagon12, FLUX1, 9.0, 1000, seed=3)
    assert a["variance"] == b["variance"]


# ---------------------------------------------------------------------------
# variance estimator


def test_estimator_zero_flux(octagon12):
    assert variance_estimator(octagon12, (0.0, 0.0, 0.0, 0.0), 9.0) == 0.0


def test_estimator_quadratic_in_flux(octagon12):
    one = variance_estimator(octagon12, FLUX1, 9.0)
    two = variance_estimator(octagon12, (2.0, 0.0, 0.0, 0.0), 9.0)
    assert two == 4.0 * one


def test_estimator_validation(octagon12):
    with pytest.raises(ValueError):
        variance_estimator(octagon12, FLUX1, 9.0, eps=0.0)
    with pytest.raises(ValueError):
        variance_estimator(octagon12, FLUX1, 9.0, eps=1.5)
    with pytest.raises(ValueError):
        variance_estimator(octagon12, FLUX1, 0.0)
    with pytest.raises(SpectrumTooShort):
        variance_estimator(octagon12, FLUX1, 11.5)


def test_estimator_stable_in_T(octagon12):
    v9 = variance_estimator(octagon12, FLUX1, 9.0)
    v10 = variance_estimator(octagon12, FLUX1, 10.0)
    assert v9 > 0 and v10 > 0
    assert abs(v10 - v9) <= 0.3 * v9


def test_estimator_consistent_with_ensemble_variance(octagon12):
    # two views of the same diffusion variance: the [T, T+1] window sum and
    # the smooth-bump ensemble second moment; their finite-T offsets are
    # covered by the estimator's own sweep spread
    draws = 20000
    rep = orbit_clt_experiment(octagon12, FLUX1, 9.0, draws, seed=7)
    est = variance_estimator(octagon12, FLUX1, 9.0)
    sweep = [variance_estimator(octagon12, FLUX1, T) for T in (8.0, 9.0, 10.0)]
    band = 3.0 * rep["variance_se"] + 0.5 * (max(sweep) - min(sweep))
    assert abs(rep["variance"] - est) <= band
    assert (rep["estimator"], rep["joint_band"]) == (est, band)


# ---------------------------------------------------------------------------
# transition curve


@pytest.mark.parametrize("kind", ["triangle", "bump"])
def test_transition_goe_endpoint_exact(kind):
    w = window(kind)
    curve = transition_curve(w, 0.17, [0.0, 1.0])
    assert curve[0] == sigma2_goe(w)


def test_transition_zero_variance_constant():
    w = window("triangle")
    curve = transition_curve(w, 0.0, [0.0, 1.0, 5.0])
    assert (curve == sigma2_goe(w)).all()


def test_transition_large_s_reaches_gue():
    w = window("triangle")
    curve = transition_curve(w, 1.0, [50.0])
    assert abs(curve[0] - sigma2_gue(w)) < 1e-5


def test_transition_monotone_and_bracketed():
    w = window("bump")
    curve = transition_curve(w, 0.17, np.linspace(0.0, 4.0, 9))
    assert (np.diff(curve) <= 1e-12).all()
    assert (curve >= sigma2_gue(w) - 1e-12).all()
    assert (curve <= sigma2_goe(w) + 1e-12).all()


def test_transition_rejects_negative_variance():
    with pytest.raises(ValueError):
        transition_curve(window("triangle"), -0.1, [0.0])


def test_transition_refuses_variance_before_any_sum(tmp_path, capsys, monkeypatch):
    import specvar.dynamics

    def no_sums(*args, **kwargs):
        raise AssertionError("built the coefficient table before refusing the variance")

    monkeypatch.setattr(specvar.dynamics, "SigmaEvaluator", no_sums)
    out = tmp_path / "transition.csv"
    argv = ["transition", "--preset", "schottky_pants", "--L", "5", "--lambda", "1e4",
            "--variance=-1", "--out", str(out)]
    assert main(argv) == EXIT_INVALID
    assert "variance" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# empirical transition


def _deepest_variance(spectrum):
    # the CLI's default: the estimator at the deepest certified window
    return variance_estimator(spectrum, FLUX1, spectrum.certified_l_max - 1.0)


@pytest.fixture(scope="module")
def transition_cmp(octagon12):
    table = empirical_transition(
        octagon12, FLUX1, [0.0, 0.5, 1.0, 2.0, 4.0], lam=1e4, L=10.0, delta=2.0,
        w=TRI, variance=_deepest_variance(octagon12),
    )
    return {key: np.asarray(column) for key, column in table.items()}


def test_empirical_transition_endpoints(transition_cmp):
    cmp_ = transition_cmp
    assert cmp_["sigma2_pred"][0] == GOE
    assert abs(cmp_["sigma2_emp"][0] - GOE) <= 0.05
    assert cmp_["sigma2_emp"][-1] - GUE <= 0.15 * GOE


def test_empirical_transition_monotone_within_band(transition_cmp):
    emp = transition_cmp["sigma2_emp"]
    band = 0.1 * GOE
    assert (np.diff(emp) <= band).all()
    assert (emp >= GUE - band).all()
    assert (emp <= GOE + band).all()


def test_empirical_tracks_predicted(transition_cmp):
    gaps = np.abs(transition_cmp["sigma2_emp"] - transition_cmp["sigma2_pred"])
    assert (gaps <= 0.1 * GOE).all()


def test_energy_average_tracks_displayed_sum(transition_cmp):
    # the direct energy average carries the O(1/L^2) + finite-lambda
    # residual on top of the displayed sum; at L = 10 that is under
    # 0.15 * GOE pointwise
    gaps = np.abs(transition_cmp["sigma2_avg"] - transition_cmp["sigma2_emp"])
    assert np.isfinite(transition_cmp["sigma2_avg"]).all()
    assert (gaps <= 0.15 * GOE).all()


def test_empirical_transition_alpha_scaling(transition_cmp):
    assert transition_cmp["alpha"][0] == 0.0
    assert abs(transition_cmp["alpha"][-1] - 4.0 / math.sqrt(10.0)) < 1e-15


def test_empirical_transition_no_average(octagon12):
    cmp_ = empirical_transition(
        octagon12, FLUX1, [0.0, 1.0], lam=1e4, L=10.0, delta=2.0,
        w=TRI, variance=_deepest_variance(octagon12), with_average=False,
    )
    assert np.isnan(cmp_["sigma2_avg"]).all()
    assert np.isfinite(cmp_["sigma2_emp"]).all()


def test_empirical_transition_short_spectrum(octagon12):
    with pytest.raises(SpectrumTooShort):
        empirical_transition(
            octagon12, FLUX1, [0.0], lam=1e4, L=12.5, delta=2.0,
            w=TRI, variance=_deepest_variance(octagon12),
        )
