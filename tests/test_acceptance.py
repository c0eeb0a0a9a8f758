"""Acceptance gate: fourteen end-to-end checks, one verdict line each.

Every test prints ``criterion NN PASS|FAIL detail`` before asserting, so a
plain ``pytest -v`` run yields one line per criterion either way.  Monte
Carlo checks pin their seeds; the quoted numbers are reproducible exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import specvar.fuchsian as F
from oracles import cluster_sum, exact_cover_moment, record_det, sigma2_gse, spectrum_rows
from specvar.characters import FluxCharacter, haar_sigma_constant
from specvar.covers import _batch_images, count_covers, empirical_cover_variance, moment_experiment
from specvar.dynamics import (
    empirical_transition,
    orbit_clt_experiment,
    sum_rule_check,
    transition_curve,
    unit_mass_bump,
    variance_estimator,
)
from specvar.poisson import PoissonSurrogate, clt_test, ergodicity_experiment, exact_cumulants
from specvar.variance import SigmaEvaluator, dirichlet_lambda_search, energy_average
from specvar.windows import sigma2_goe, sigma2_gue, window

SEED = 20260815
TRI = window("triangle")
BUMP = window("bump")
FLUX1 = (1.0, 0.0, 0.0, 0.0)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def pants12():
    return F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 12.0)


@pytest.fixture(scope="module")
def p222_12():
    return F.build_spectrum(F.preset("schottky_pants", 2.0, 2.0, 2.0), 12.0)


@pytest.fixture(scope="module")
def torus12():
    # the free-group certification tops out near ell = 6 at the default
    # word-length budget, so the cusped preset ships capped
    return F.build_spectrum(F.preset("punctured_torus"), 12.0, allow_incomplete=True)


def test_criterion_01_hyperbolic_identities(octagon12, pants12, p222_12, torus12):
    worst = 0.0
    violations = 0
    checked = 0
    for spectrum in (octagon12, pants12, p222_12, torus12):
        rows = spectrum_rows(spectrum)
        roots = {r.word: r for r in rows if r.power == 1}
        for r in rows:
            target = 4.0 * math.sinh(r.length / 2.0) ** 2
            worst = max(worst, abs(record_det(r) - target) / target)
            if r.power >= 2:
                root = roots[r.word[: len(r.word) // r.power]]
                checked += 1
                if record_det(r) < math.exp((r.power - 1) * r.primitive_length) * record_det(root):
                    violations += 1
    ok = worst <= 1e-10 and violations == 0 and checked > 0
    _verdict(1, ok, f"det rel err {worst:.2e} <= 1e-10, power bound {violations}/{checked} violations")


def test_criterion_02_window_constants():
    pairs = (
        (sigma2_goe(TRI), 1.0 / 3.0),
        (sigma2_gue(TRI), 1.0 / 6.0),
        (sigma2_gse(TRI), 1.0 / 12.0),
    )
    worst = max(abs(got - want) / want for got, want in pairs)
    _verdict(2, worst <= 1e-10, f"triangle GOE/GUE/GSE constants rel err {worst:.2e} <= 1e-10")


def test_criterion_03_haar_moments():
    zs = []
    for kind, dim, target in (("U1", 1, 2.0), ("SU2", 2, 4.0), ("UN", 5, 2.0)):
        est, se = haar_sigma_constant(kind, 1_000_000, SEED, dim=dim)
        zs.append((kind, abs(est - target) / se))
    worst_kind, worst_z = max(zs, key=lambda kz: kz[1])
    _verdict(3, worst_z <= 3.0, f"Haar variance constants, worst |z| {worst_z:.2f} ({worst_kind}) <= 3")


def test_criterion_04_cover_moments(pants12):
    # distinct primitives: the two free generators; targets d(k), V(k1,k2), 0
    words = pants12.words()
    rows = [words.index((2,)), words.index((1,))]
    counts = count_covers(_batch_images(2, 300, 20000, 7), pants12, rows, 6)
    stats = moment_experiment(rows, counts, 300, 20000, kmax=6)
    checks = {
        "E[F(g)]": (stats["fMean"][0][0], 1.0, stats["fMeanSE"][0][0]),
        "E[F(g^6)]": (stats["fMean"][0][5], 4.0, stats["fMeanSE"][0][5]),
        "Var[F(g)]": (stats["cov"][0][0], 1.0, stats["covSE"][0][0]),
        "Cov[F(g),F(h)]": (stats["cov"][0][6], 0.0, stats["covSE"][0][6]),
    }
    zmax = max(abs(got - want) / se for got, want, se in checks.values())
    exact_err = 0.0
    for n in range(1, 5):
        got = exact_cover_moment((1,), n, kmax=4)
        want = np.array([sum(1 for d in range(1, k + 1) if k % d == 0 and d <= n) for k in range(1, 5)], float)
        exact_err = max(exact_err, float(np.max(np.abs(got - want))))
    ok = zmax <= 3.0 and exact_err <= 1e-12
    _verdict(4, ok, f"moment |z| max {zmax:.2f} <= 3, exhaustive n<=4 err {exact_err:.1e}")


def test_criterion_05_cover_variance_bridge(pants12):
    ev = SigmaEvaluator(pants12, None, TRI, 8.0)
    counts = count_covers(_batch_images(2, 300, 20000, SEED), pants12, [], 0, ev)
    rep = empirical_cover_variance(ev, 1e4, counts, SEED)
    estimate, limit = rep["estimate"], rep["sigma2Limit"]
    z = abs(estimate - limit) / rep["bootstrapSE"]
    _verdict(5, rep["agrees"], f"cover variance {estimate:.5f} vs limit {limit:.5f}, |z| {z:.2f} <= 3")


def test_criterion_06_cumulant_decay(octagon12, pants12, p222_12):
    torus5 = F.build_spectrum(F.preset("punctured_torus"), 5.0, allow_incomplete=True)
    rel = 0.0
    for spectrum, L in ((octagon12, 10.0), (pants12, 8.0), (p222_12, 8.0), (torus5, 4.5)):
        rep = exact_cumulants(PoissonSurrogate(spectrum, None, TRI, 1e4, L, seed=1), mmax=4)
        rel = max(rel, rep["kappa2RelErr"])
    grid = np.array([6.0, 8.0, 10.0, 12.0])
    k3 = []
    k4 = []
    for L in grid:
        rep = exact_cumulants(PoissonSurrogate(p222_12, None, BUMP, 1e4, float(L), seed=1), mmax=4)
        k3.append(abs(rep["kappa"][1]))
        k4.append(abs(rep["kappa"][2]))
    s3 = float(np.polyfit(np.log(grid), np.log(k3), 1)[0])
    s4 = float(np.polyfit(np.log(grid), np.log(k4), 1)[0])
    ok = rel <= 1e-9 and s3 <= -2.7 and s4 <= -3.7
    _verdict(6, ok, f"kappa2 rel err {rel:.1e} <= 1e-9, slopes k3 {s3:.2f} <= -2.7, k4 {s4:.2f} <= -3.7")


def test_criterion_07_goe_average(octagon12):
    goe = sigma2_goe(BUMP)
    gaps = []
    for L in (7.0, 9.0, 11.0):
        avg = energy_average(SigmaEvaluator(octagon12, None, BUMP, L), 1e4, 2.0)
        gaps.append(abs(avg - goe))
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.25 * goe
    _verdict(7, ok, f"GOE gaps {[f'{g:.4f}' for g in gaps]} decreasing, final {gaps[2] / goe:.3f} <= 0.25 of GOE")


def test_criterion_08_gue_switch(octagon12):
    gue = sigma2_gue(BUMP)
    char = FluxCharacter((math.pi / 2.0, 0.0, 0.0, 0.0))
    gaps = []
    for L in (7.0, 9.0, 11.0):
        avg = energy_average(SigmaEvaluator(octagon12, char, BUMP, L), 1e4, 2.0)
        gaps.append(abs(avg - gue))
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.25 * gue
    _verdict(8, ok, f"GUE gaps {[f'{g:.4f}' for g in gaps]} decreasing, final {gaps[2] / gue:.3f} <= 0.25 of GUE")


def test_criterion_09_dirichlet_extremes():
    spectrum = F.build_spectrum(F.preset("schottky_pants", 2.0, 2.0, 2.0), 5.0)
    p0 = spectrum.primitive_length[F.unoriented_rows(spectrum)]
    lengths = sorted(set(p0[p0 <= 5.0].tolist()))
    ev = SigmaEvaluator(spectrum, None, TRI, 5.0)
    aligned = ev.report(dirichlet_lambda_search(lengths, 8.0, 100.0, 1e9, "plus"))
    smooth = aligned.smooth_part
    slack = 3.0 / 8.0 * smooth
    up = aligned.sigma2
    down = ev.sigma2(dirichlet_lambda_search(lengths, 8.0, 100.0, 1e9, "minus"))
    ok = up >= 1.5 * smooth - slack and down <= 0.5 * smooth + slack
    _verdict(9, ok, f"aligned {up:.4f} >= {1.5 * smooth - slack:.4f}, anti-aligned {down:.4f} <= {0.5 * smooth + slack:.4f}")


def test_criterion_10_surrogate_clt(octagon12):
    rep = clt_test(PoissonSurrogate(octagon12, None, TRI, 1e4, 10.0, seed=SEED), 100000)
    ok = rep["sigma2"] >= 10.0 / 10.0**2 and rep["ksStat"] <= 0.02 and rep["skewnessPass"] and rep["kurtosisPass"]
    _verdict(
        10,
        ok,
        f"KS {rep['ksStat']:.4f} <= 0.02, skew {rep['skewness']:+.4f} ~ {rep['skewnessTarget']:+.4f}, "
        f"kurt {rep['excessKurtosis']:+.4f} ~ {rep['kurtosisTarget']:+.4f} within 3 SE",
    )


def test_criterion_11_ergodic_average(octagon12):
    sur = PoissonSurrogate(octagon12, None, TRI, 1e4, 10.0, seed=17)
    eps = math.sqrt(10.0 * (1.0 / 10.0 + 1.0 / 25.0)) * 1.0001
    fractions = [
        ergodicity_experiment(sur, span, 1000, eps)["violationFraction"] for span in (25.0, 50.0, 100.0)
    ]
    ok = all(f <= 0.1 for f in fractions) and all(a >= b for a, b in zip(fractions, fractions[1:]))
    _verdict(11, ok, f"violation fractions {fractions} <= 0.1 and non-increasing over spans 25/50/100")


def test_criterion_12_sum_rule_and_cluster(octagon12):
    rels = []
    for L in (8.0, 9.5, 11.0):
        rep = sum_rule_check(octagon12, BUMP, L)
        rels.append(rep["gap"] / rep["target"])
    cluster = cluster_sum(octagon12, unit_mass_bump(), 9.0)
    ratio = cluster.value / cluster.mass
    ok = rels[0] > rels[1] > rels[2] and rels[2] <= 0.20 and abs(ratio - 1.0) <= 0.25
    _verdict(12, ok, f"sum-rule rel gaps {[f'{r:.3f}' for r in rels]} decreasing, final <= 0.20; cluster/mass {ratio:.4f}")


def test_criterion_13_magnetic_transition(octagon12):
    goe, gue = sigma2_goe(TRI), sigma2_gue(TRI)
    curve = transition_curve(TRI, 0.2, [0.0, 50.0])
    endpoints = curve[0] == goe and abs(curve[-1] - gue) <= 1e-5
    variance = variance_estimator(octagon12, FLUX1, octagon12.certified_l_max - 1.0)
    cmp = empirical_transition(octagon12, FLUX1, [0.0, 0.5, 1.0, 2.0, 4.0], 1e4, 10.0, 2.0, TRI, variance)
    band = 0.1 * goe
    emp = np.asarray(cmp["sigma2_emp"])
    monotone = all(emp[i + 1] <= emp[i] + band for i in range(len(emp) - 1))
    bracket = all(gue - band <= e <= goe + band for e in emp)
    tracks = float(np.max(np.abs(emp - cmp["sigma2_pred"]))) <= band
    ok = endpoints and monotone and bracket and tracks
    _verdict(
        13,
        ok,
        f"endpoints exact, empirical {[f'{e:.4f}' for e in emp]} non-increasing, "
        f"GUE..GOE bracketed, |emp-pred| <= {band:.4f}",
    )


def test_criterion_14_orbit_clt(octagon12):
    rep = orbit_clt_experiment(octagon12, FLUX1, 9.0, 100000, SEED)
    ests = [variance_estimator(octagon12, FLUX1, T) for T in (8.0, 9.0, 10.0)]
    band = 3.0 * rep["variance_se"] + 0.5 * (max(ests) - min(ests))
    gap = abs(rep["variance"] - ests[1])
    ok = abs(rep["skewness"]) <= 0.15 and abs(rep["excess_kurtosis"]) <= 0.3 and gap <= band
    _verdict(
        14,
        ok,
        f"skew {rep['skewness']:+.4f} <= 0.15, excess kurtosis {rep['excess_kurtosis']:+.4f} <= 0.3, "
        f"variance gap {gap:.4f} <= {band:.4f}",
    )
