"""The vectorised library paths against the record loops they replaced.

Each formula has one code path in ``specvar``; the loops and the scalar
coefficient path live on in ``oracles``.  Sums over records may be
reordered, so values agree to 1e-12 of their scale, not bit for bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import primitives, spectrum_rows
import specvar.fuchsian as F
from specvar.characters import FluxCharacter, MatrixRep
from oracles import cluster_sum
from specvar.dynamics import (
    OrbitEnsemble,
    _alias_table,
    sum_rule_check,
    unit_mass_bump,
    variance_estimator,
)
from specvar.variance import coefficient_table
from specvar.windows import window

REL = 1e-12


@pytest.fixture(scope="module")
def pants9():
    return F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 9.0)


# spectrum fixture, sum-rule cutoff L, ensemble centre T
CASES = {"pants": ("pants9", 8.0, 7.0), "octagon": ("octagon12", 9.5, 8.5)}


def _close(got, want, scale):
    assert abs(got - want) <= REL * scale, (got, want, scale)


def _matrix_rep(group):
    # diagonal images commute, so a surface relator maps to the identity
    phases = np.array([0.73, 0.31, -0.52, 1.1][: group.rank])
    return MatrixRep(
        images=tuple(np.diag([np.exp(1j * t), np.exp(-1j * t)]) for t in phases), preset=group
    )


@pytest.mark.filterwarnings("ignore::specvar.dynamics.NonCompactPreset")
@pytest.mark.parametrize("case", sorted(CASES))
def test_vectorised_paths_match_loops(request, case):
    fixture, L, T = CASES[case]
    spec = request.getfixturevalue(fixture)
    rank = spec.group.rank
    flux = FluxCharacter(flux=(0.7, -0.3, 0.2, 1.1)[:rank], scale=1.3)
    bump = window("bump")

    # sum rules: the flux value nearly cancels, so compare on the
    # scale of the trivial (all-positive) sum
    scale = abs(oracles.sum_rule_value(spec, bump, L))
    for char in (None, flux):
        rep = sum_rule_check(spec, bump, L, char)
        _close(rep["value"], oracles.sum_rule_value(spec, bump, L, char), scale)

    omega = unit_mass_bump()
    rep = cluster_sum(spec, omega, T)
    value, unit = oracles.cluster_sums(spec, omega, T)
    _close(rep.value, value, abs(value))
    _close(rep.unit_window_sum, unit, abs(unit))

    ens = OrbitEnsemble(spec, T)
    all_rows = spectrum_rows(spec)
    records, probs = oracles.orbit_ensemble_weights(spec, T, omega)
    assert tuple(all_rows[i] for i in ens.rows) == records
    assert np.all(np.abs(ens.probs - probs) <= REL * probs)
    prob, alias = _alias_table(probs)
    looped = SimpleNamespace(probs=probs, _prob=prob, _alias=alias)
    assert np.array_equal(
        ens.sample_indices(100_000, 0), OrbitEnsemble.sample_indices(looped, 100_000, 0)
    )

    for fv in ((1.0, 0.0, 0.0, 0.0)[:rank], flux.flux):
        want = oracles.variance_estimate(spec, fv, T, 1.0)
        _close(variance_estimator(spec, fv, T, 1.0), want, abs(want))

    tri = window("triangle")
    primitive_ids = [r.class_id for r in primitives(spec)]
    for char in (None, flux, _matrix_rep(spec.group.group)):
        rows, weights, freqs = coefficient_table(spec, primitive_ids, char, tri, L)
        want = np.array(
            [
                [oracles.coeff_A(all_rows[row], k, char, tri, 61.3, L) for row in rows]
                for k in range(1, len(weights) + 1)
            ]
        )
        got = weights * np.cos(61.3 * freqs)
        assert np.all(np.abs(got - want) <= REL * np.abs(want).max())
