import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import p0_rows, primitives, spectrum_rows, take_rows, truncate_spectrum
from specvar import fuchsian as F
from specvar import variance as V
from specvar.characters import FluxCharacter, MatrixRep
from specvar.windows import window


@pytest.fixture(scope="module")
def pants():
    return F.preset("schottky_pants", 1.9, 2.1, 2.4)


@pytest.fixture(scope="module")
def pants_spec(pants):
    return F.build_spectrum(pants, 7.0)


@pytest.fixture(scope="module")
def tri():
    return window("triangle")


@pytest.fixture(scope="module")
def bump():
    return window("bump")


# ---------------------------------------------------------------------------
# arithmetic weights


def test_divisor_functions():
    assert oracles.divisor_count(1) == 1
    assert oracles.divisor_count(6) == 4
    assert oracles.divisor_count(12) == 6
    assert oracles.divisor_sum(1) == 1
    assert oracles.divisor_sum(6) == 12


def test_gcd_weight():
    assert oracles.gcd_weight(1, 1) == 1
    assert oracles.gcd_weight(4, 6) == 1 + 2
    for k in range(1, 9):
        assert oracles.gcd_weight(k, k) == oracles.divisor_sum(k)
    assert oracles.gcd_weight(3, 5) == 1


@pytest.mark.parametrize("kmax", [1, 2, 7, 30])
def test_divisor_table_matches_scalar_oracles(kmax):
    # d(k), V and the cycle map d * D all come from the one table
    table = V._divisor_table(kmax)
    ks = range(1, kmax + 1)
    assert table.shape == (kmax, kmax)
    assert table.sum(axis=0).tolist() == [oracles.divisor_count(k) for k in ks]
    assert V._gcd_weight_matrix(kmax).tolist() == [[oracles.gcd_weight(a, b) for b in ks] for a in ks]
    weighted = np.arange(1, kmax + 1)[:, None] * table
    assert weighted.sum(axis=0).tolist() == [oracles.divisor_sum(k) for k in ks]
    assert weighted.tolist() == [[d if k % d == 0 else 0 for k in ks] for d in ks]


def test_gcd_weight_matrix_psd():
    m = V._gcd_weight_matrix(8)
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() > -1e-12


# ---------------------------------------------------------------------------
# coefficients


def test_coeff_support(pants_spec, tri):
    r = min(primitives(pants_spec), key=lambda p: p.length)
    k_over = int(7.0 / r.primitive_length) + 1
    assert V.coeff_A(pants_spec, r.class_id, k_over, None, tri, 50.0, 7.0) == 0.0


def test_coeff_trivial_char_at_aligned_frequency(pants_spec, tri):
    r = min(primitives(pants_spec), key=lambda p: p.length)
    ell = r.primitive_length
    lam = 2.0 * math.pi * round(50.0 * ell / (2 * math.pi)) / ell
    got = V.coeff_A(pants_spec, r.class_id, 1, None, tri, lam, 7.0)
    expect = 2.0 * tri.psi_hat(ell / 7.0) * ell / (2.0 * math.sinh(ell / 2.0))
    assert got == pytest.approx(expect, rel=1e-12)


def test_coeff_flux_pi_sign_flip(pants_spec, tri):
    recs = [r for r in primitives(pants_spec) if r.homology == (1, 0)]
    r = recs[0]
    ch = FluxCharacter(flux=(math.pi, 0.0))
    plain = V.coeff_A(pants_spec, r.class_id, 1, None, tri, 37.0, 7.0)
    flipped = V.coeff_A(pants_spec, r.class_id, 1, ch, tri, 37.0, 7.0)
    assert flipped == pytest.approx(-plain, rel=1e-12)


def test_coeff_requires_primitive(pants_spec, tri):
    power = next(r for r in spectrum_rows(pants_spec) if r.power > 1)
    with pytest.raises(ValueError):
        V.coeff_A(pants_spec, power.class_id, 1, None, tri, 50.0, 7.0)


def test_coeff_bound_dominates(pants_spec, tri, bump):
    for w in (tri, bump):
        for r in list(primitives(pants_spec))[:20]:
            for k in (1, 2, 3):
                a = V.coeff_A(pants_spec, r.class_id, k, None, w, 123.456, 7.0)
                assert abs(a) <= oracles.coeff_bound(r, k, None, w) + 1e-15


def primitive_ids(spec):
    return [r.class_id for r in primitives(spec)]


def test_coefficient_table_matches_scalar(pants_spec, tri):
    lam, L = 61.3, 7.0
    rows, weights, freqs = V.coefficient_table(pants_spec, primitive_ids(pants_spec), None, tri, L)
    coeffs = weights * np.cos(lam * freqs)
    records = spectrum_rows(pants_spec)
    for j, row in enumerate(rows):
        for k in range(1, len(coeffs) + 1):
            assert coeffs[k - 1, j] == pytest.approx(
                oracles.coeff_A(records[row], k, None, tri, lam, L), abs=1e-14
            )


def test_coefficient_table_matrix_char(pants_spec, tri):
    theta = 0.73
    u = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    v = np.diag([np.exp(0.31j), np.exp(-0.31j)])
    rep = MatrixRep(images=(u, v), preset=pants_spec.group.group)
    lam, L = 41.0, 7.0
    rows, weights, freqs = V.coefficient_table(pants_spec, primitive_ids(pants_spec), rep, tri, L)
    coeffs = weights * np.cos(lam * freqs)
    records = spectrum_rows(pants_spec)
    for j, row in enumerate(rows[:10]):
        for k in (1, 2):
            assert coeffs[k - 1, j] == pytest.approx(
                oracles.coeff_A(records[row], k, rep, tri, lam, L), abs=1e-12
            )


# ---------------------------------------------------------------------------
# limiting variance


def brute_sigma2(spec, char, w, lam, L):
    total = 0.0
    for p in primitives(spec):
        if p.primitive_length > L:
            continue
        kmax = int(L / p.primitive_length) + 1
        for k1 in range(1, kmax + 1):
            for k2 in range(1, kmax + 1):
                total += (
                    oracles.gcd_weight(k1, k2)
                    * oracles.coeff_A(p, k1, char, w, lam, L)
                    * oracles.coeff_A(p, k2, char, w, lam, L)
                )
    # both orientations of each chiral geodesic are summed: halve
    return 4.0 * 0.5 / L**2 * total


def test_sigma2_matches_brute_force(pants_spec, tri):
    rep = V.sigma2_limit(pants_spec, None, tri, 83.0, 7.0)
    assert rep.sigma2 == pytest.approx(
        brute_sigma2(pants_spec, None, tri, 83.0, 7.0), rel=1e-12
    )
    assert rep.sigma2 >= 0.0
    assert rep.sigma2 == pytest.approx(
        rep.smooth_part + rep.osc_part + rep.nonprimitive_tail, rel=1e-12
    )
    assert abs(rep.osc_part) <= rep.smooth_part + 1e-15


def test_sigma2_flux_char_matches_brute_force(pants_spec, tri):
    ch = FluxCharacter(flux=(1.2, -0.7), scale=0.9)
    rep = V.sigma2_limit(pants_spec, ch, tri, 83.0, 7.0)
    assert rep.sigma2 == pytest.approx(
        brute_sigma2(pants_spec, ch, tri, 83.0, 7.0), rel=1e-11
    )


@pytest.mark.parametrize("surface", ["pants", "octagon"])
def test_sigma_columns_are_p0(surface, pants_spec, tri):
    # one column per unoriented geodesic with l <= L; the brute force
    # sums both orientations and halves, an orientation rule of its own
    if surface == "pants":
        spec, L, lam = pants_spec, 7.0, 83.0
    else:
        spec, L, lam = F.build_spectrum(F.preset("octagon_genus2"), 6.0), 6.0, 41.0
    p0 = F.unoriented_rows(spec)
    p0 = p0[spec.primitive_length[p0] <= L]
    ev = V.SigmaEvaluator(spec, None, tri, L)
    assert ev.n_classes == len(p0) > 0
    assert 2 * ev.n_classes == sum(1 for p in primitives(spec) if p.primitive_length <= L)
    rows, weights, freqs = V.coefficient_table(spec, p0, None, tri, L)
    assert np.array_equal(ev.rows, rows) and np.array_equal(ev.weights, weights)
    assert np.array_equal(ev.coefficients(lam), weights * np.cos(lam * freqs))
    assert ev.sigma2(lam) == pytest.approx(brute_sigma2(spec, None, tri, lam, L), rel=1e-12)


def test_sigma2_single_class_oracle(pants, tri):
    # spectrum truncated below twice the systole: single unoriented class
    spec = F.build_spectrum(pants, 2.0)
    assert len(F.unoriented_primitives(spec)) == 1
    (r,) = p0_rows(spec)
    lam = 17.0
    rep = V.sigma2_limit(spec, None, tri, lam, 2.0)
    a = V.coeff_A(spec, r.class_id, 1, None, tri, lam, 2.0)
    assert rep.sigma2 == pytest.approx(a * a, rel=1e-12)
    assert rep.nonprimitive_tail == 0.0


def test_sigma2_empty_spectrum(pants, tri):
    spec = F.build_spectrum(pants, 1.5)
    assert len(spec.length) == 0
    rep = V.sigma2_limit(spec, None, tri, 9.0, 1.5)
    assert rep.sigma2 == 0.0
    assert rep.smooth_part == 0.0


def test_sigma2_requires_certified_length(pants_spec, tri):
    with pytest.raises(V.SpectrumTooShort):
        V.sigma2_limit(pants_spec, None, tri, 9.0, 7.5)


def test_sigma2_reorder_invariant(pants_spec, tri):
    shuffled = list(range(len(pants_spec.length)))
    random.Random(5).shuffle(shuffled)
    other = take_rows(pants_spec, shuffled)
    a = V.sigma2_limit(pants_spec, None, tri, 83.0, 7.0).sigma2
    b = V.sigma2_limit(other, None, tri, 83.0, 7.0).sigma2
    assert b == pytest.approx(a, rel=1e-9)


def test_smooth_part_lambda_independent(pants_spec, tri):
    reps = [V.sigma2_limit(pants_spec, None, tri, lam, 7.0) for lam in (11.0, 97.0, 1234.5)]
    smooths = {r.smooth_part for r in reps}
    assert max(smooths) - min(smooths) < 1e-14


def test_osc_sign_structure_single_class(pants, tri):
    spec = F.build_spectrum(pants, 2.0)
    (r,) = p0_rows(spec)
    ell = r.primitive_length
    lam = 40.0
    a = V.sigma2_limit(spec, None, tri, lam, 2.0)
    # pi/(2 ell) flips cos(2 lambda ell), hence the oscillating part
    b = V.sigma2_limit(spec, None, tri, lam + math.pi / (2 * ell), 2.0)
    assert b.osc_part == pytest.approx(-a.osc_part, rel=1e-6)
    assert b.smooth_part == pytest.approx(a.smooth_part, rel=1e-12)
    # pi/ell flips the coefficient A itself
    a1 = V.coeff_A(spec, r.class_id, 1, None, tri, lam, 2.0)
    b1 = V.coeff_A(spec, r.class_id, 1, None, tri, lam + math.pi / ell, 2.0)
    assert b1 == pytest.approx(-a1, rel=1e-6)


def test_nonprimitive_tail_bounded(pants_spec, tri):
    lam, L = 83.0, 7.0
    rep = V.sigma2_limit(pants_spec, None, tri, lam, L)
    bound = 0.0
    for p in primitives(pants_spec):
        kmax = int(L / p.primitive_length)
        for k1 in range(1, kmax + 1):
            for k2 in range(1, kmax + 1):
                if k1 + k2 < 3:
                    continue
                bound += (
                    oracles.gcd_weight(k1, k2)
                    * oracles.coeff_bound(p, k1, None, tri)
                    * oracles.coeff_bound(p, k2, None, tri)
                )
    bound *= 4.0 * 0.5 / L**2
    assert abs(rep.nonprimitive_tail) <= bound + 1e-15


def test_evaluator_matches_limit(pants_spec, tri):
    ev = V.SigmaEvaluator(pants_spec, None, tri, 7.0)
    for lam in (13.0, 55.5, 301.0):
        assert ev.sigma2(lam) == V.sigma2_limit(pants_spec, None, tri, lam, 7.0).sigma2


def test_smooth_part_approaches_goe(octagon12, tri):
    # equidistribution: smooth part tends to 4*int t psihat^2 = 1/3 on a
    # co-compact preset (convex co-compact spectra are too sparse for this)
    target = 1.0 / 3.0
    ratios = []
    for L in (6.0, 9.0, 12.0):
        ev = V.SigmaEvaluator(truncate_spectrum(octagon12, L), None, tri, L)
        ratios.append(ev.report(1.0).smooth_part / target)  # smooth part is lambda-free
    for r in ratios:
        assert abs(r - 1.0) < 0.15
    assert abs(ratios[-1] - 1.0) < 0.08


# ---------------------------------------------------------------------------
# averaging


def _profile(fn, L):
    """An evaluator stand-in: ``energy_average`` reads only sigma2 and L."""
    return SimpleNamespace(sigma2=fn, L=L)


def test_energy_average_constant():
    assert V.energy_average(_profile(lambda m: 3.7, 7.0), 100.0, 2.0) == pytest.approx(3.7, rel=1e-12)


def test_energy_average_oscillation_suppressed():
    ell = 2.1
    got = V.energy_average(_profile(lambda m: math.cos(2 * m * ell), 7.0), 100.0, 2.0)
    assert abs(got) <= 1.0 / (2.0 * ell)  # |int cos| <= 1/(delta * 2 ell) * delta


@pytest.mark.parametrize("points", [3, 4, 9, 10, 1000, 1001])
@pytest.mark.parametrize("irregular", [False, True], ids=["resolved", "irregular"])
def test_simpson_weights_match_simpson(points, irregular):
    # even counts reach Cartwright's last-interval correction; the error
    # is relative to the integral of |y|, since y's integral may cancel
    rng = np.random.default_rng(points)
    if irregular:
        x = np.cumsum(rng.uniform(0.1, 1.0, points))
    else:
        x = np.linspace(1e4, 1e4 + 2.0, points)
    y = np.sin(x) + rng.standard_normal((5, points))
    w = V._simpson_weights(x)
    assert w.shape == (points,)
    scale = np.abs(y) @ np.abs(w)
    assert np.all(np.abs(y @ w - oracles._simpson(y, x)) <= 1e-14 * scale)


def test_quadratic_average_constant():
    got = oracles.quadratic_average(lambda m: 2.0, 50.0, 3.0, 0.5, 7.0)
    assert got == pytest.approx(2.25, rel=1e-12)


def test_averaged_osc_small_relative_to_smooth(pants_spec, tri):
    # averaging over delta suppresses the oscillating part by ~1/(delta L)
    ev = V.SigmaEvaluator(pants_spec, None, tri, 7.0)
    lam, delta = 200.0, 4.0
    avg_osc = V.energy_average(_profile(lambda m: ev.report(m).osc_part, 7.0), lam, delta)
    smooth = ev.report(lam).smooth_part
    assert abs(avg_osc) <= 3.0 * smooth / (delta * 7.0)


# ---------------------------------------------------------------------------
# Dirichlet search


def test_dirichlet_single_length_exact():
    lam = V.dirichlet_lambda_search([2.0], 8.0, 50.0, 1e7)
    assert 2.0 * abs(math.sin(lam)) <= 1.0 / 8.0
    assert lam >= 50.0


def test_dirichlet_rationally_dependent():
    lam = V.dirichlet_lambda_search([1.0, 2.0, 4.0], 10.0, 20.0, 1e8)
    for r in (1.0, 2.0, 4.0):
        assert abs(np.exp(1j * lam * r) - 1.0) <= 1.0 / 10.0


def test_dirichlet_spectrum_lengths(pants_spec):
    lengths = sorted({round(p.primitive_length, 9) for p in primitives(pants_spec)})[:5]
    assert len(lengths) == 5
    lam = V.dirichlet_lambda_search(lengths, 8.0, 100.0, 1e12, mode="plus")
    for r in lengths:
        assert abs(np.exp(1j * lam * r) - 1.0) <= 1.0 / 8.0
    # minus mode on an incommensurate pair (the three boundary lengths are
    # commensurate, which makes their minus-mode box genuinely empty)
    pair = [lengths[0], lengths[3]]
    lam2 = V.dirichlet_lambda_search(pair, 8.0, 100.0, 1e12, mode="minus")
    for r in pair:
        assert abs(math.cos(lam2 * r)) <= 1.0 / 8.0


def test_dirichlet_counts_tied_lengths_once():
    # the octagon's P0 lengths <= 5 are 18 distinct floats but 6 lengths
    octagon = F.build_spectrum(F.preset("octagon_genus2"), 5.0)
    raw = octagon.primitive_length[F.unoriented_rows(octagon)]
    raw = raw[raw <= 5.0]
    assert len(set(raw.tolist())) == 18
    assert len(V._distinct_lengths(raw)) == 6
    Y = 4.0
    lam = V.dirichlet_lambda_search(raw, Y, 100.0, 1e9, mode="plus")
    assert np.all(2.0 * np.abs(np.sin(0.5 * lam * raw)) <= 1.0 / Y + 1e-9)


@pytest.mark.parametrize("M", [0.0, -5.0])
def test_dirichlet_refuses_nonpositive_start(M):
    # M = 0 found lambda = 0; a negative M searched down from M
    with pytest.raises(V.Refused, match="search start M must be positive"):
        V.dirichlet_lambda_search([2.0, 3.0], 8.0, M, 1e7)


def test_dirichlet_not_found():
    with pytest.raises(V.DirichletNotFound):
        V.dirichlet_lambda_search([1.0, math.sqrt(2)], 50.0, 10.0, 11.0)


def test_dirichlet_budget_bounds_the_grid(monkeypatch):
    # 3 lengths, first hit at grid point 206: a budget of 206 points
    # finds it, one of 205 stops after the last point it may scan
    lengths, Y, M = [1.0, 2.0, 4.0], 10.0, 20.0
    unbounded = V.dirichlet_lambda_search(lengths, Y, M, 1e8)
    monkeypatch.setattr(V, "_SEARCH_BUDGET", 3 * 206)
    assert V.dirichlet_lambda_search(lengths, Y, M, 1e8) == unbounded
    monkeypatch.setattr(V, "_SEARCH_BUDGET", 3 * 205)
    last = M + 204 / (Y * 4.0)
    with pytest.raises(V.DirichletNotFound, match=re.escape("budget of 615 grid points x lengths")) as err:
        V.dirichlet_lambda_search(lengths, Y, M, 1e8)
    assert f"[20, {last:.9g}]" in str(err.value)


def test_dirichlet_budget_covers_octagon_plus_hit():
    # the default CLI search (octagon, L = 5, Y = 8, M = 100) hits at
    # 745,520.771488: its grid points x distinct lengths fit the budget
    octagon = F.build_spectrum(F.preset("octagon_genus2"), 5.0)
    raw = octagon.primitive_length[F.unoriented_rows(octagon)]
    raw = raw[raw <= 5.0]
    points = (745_520.771488 - 100.0) * 8.0 * raw.max() + 1
    assert points * len(V._distinct_lengths(raw)) < V._SEARCH_BUDGET
