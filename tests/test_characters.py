import cmath
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from specvar import characters as C
from specvar.rng import stream, streams
from oracles import concat
from specvar.words import free_group, surface_group

SG2 = surface_group(2)
F2 = free_group(2)

words = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), min_size=0, max_size=10
).map(tuple)


# ---------------------------------------------------------------------------
# counter-based streams


def test_stream_deterministic():
    a = stream(42, 5, 1).standard_normal(8)
    b = stream(42, 5, 1).standard_normal(8)
    assert np.array_equal(a, b)


def test_stream_distinct_keys_independent_values():
    a = stream(42, 5, 1).standard_normal(8)
    b = stream(42, 5, 2).standard_normal(8)
    c = stream(42, 6, 1).standard_normal(8)
    d = stream(43, 5, 1).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# components around the one-word/two-word boundary, the 64-bit ends and
# negatives, which are read modulo 2**64
EDGE_COMPONENTS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**32), -(2**63)]
components = st.one_of(st.sampled_from(EDGE_COMPONENTS), st.integers(-(2**63), 2**64 - 1))


def _same_bits(g: np.random.Generator, want: np.random.Generator) -> bool:
    return np.array_equal(g.random(5), want.random(5)) and np.array_equal(
        g.permutation(11), want.permutation(11)
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=components,
    keys=st.integers(0, 5).flatmap(
        lambda m: st.lists(st.lists(components, min_size=m, max_size=m), min_size=1, max_size=6)
    ),
)
@example(seed=0, keys=[[]])
@example(seed=2**64 - 1, keys=[[0, 2**32], [2**32 - 1, 1], [2**64 - 1, 2**32], [-1, 0]])
@example(seed=7, keys=[[1, 2, 3, 4, 5], [2**40, 2**40, 2**40, 2**40, 2**40], [0, 0, 2**33, 0, 0]])
def test_streams_match_seedsequence(seed, keys):
    rows = np.array([[k & 0xFFFFFFFFFFFFFFFF for k in key] for key in keys], dtype=np.uint64)
    bulk = list(streams(seed, rows))
    assert len(bulk) == len(keys)
    for g, key in zip(bulk, keys):
        assert _same_bits(g, oracles.seedsequence_stream(seed, *key))
        assert _same_bits(stream(seed, *key), oracles.seedsequence_stream(seed, *key))


def test_streams_read_signed_keys_modulo_2_64():
    keys = np.array([[-1, 3], [5, -(2**40)]], dtype=np.int64)
    for g, key in zip(streams(-2, keys), keys.tolist()):
        assert _same_bits(g, oracles.seedsequence_stream(-2, *key))


def test_streams_builds_each_generator_when_read():
    lazy = streams(3, np.arange(4)[:, None])
    first = next(lazy)
    assert inspect.isgenerator(lazy)
    assert first is not next(lazy)
    assert _same_bits(first, oracles.seedsequence_stream(3, 0))


# ---------------------------------------------------------------------------
# flux characters


def test_flux_direct_value():
    ch = C.FluxCharacter(flux=(math.pi, 0.0, 0.0, 0.0), scale=1.0)
    val = oracles.eval_flux_word(ch, (1,), SG2)
    assert val == pytest.approx(-1.0, abs=1e-15)


def test_flux_trivial_on_commutators():
    ch = C.FluxCharacter(flux=(0.7, -1.3, 2.1, 0.4))
    for u, v in [((1,), (2,)), ((1, 3), (-2, 4)), ((2, 2, -3), (4,))]:
        comm = concat(u, v, tuple(-l for l in reversed(u)), tuple(-l for l in reversed(v)))
        assert oracles.eval_flux_word(ch, comm, SG2) == pytest.approx(1.0, abs=1e-12)


def test_flux_inverse_conjugate():
    ch = C.FluxCharacter(flux=(0.3, 0.9, -0.2, 1.1))
    w = (1, 2, -3, 4, 4)
    winv = tuple(-l for l in reversed(w))
    a = oracles.eval_flux_word(ch, w, SG2)
    b = oracles.eval_flux_word(ch, winv, SG2)
    assert a == pytest.approx(b.conjugate(), abs=1e-14)


@given(u=words, v=words)
@settings(max_examples=60, deadline=None)
def test_flux_homomorphism(u, v):
    ch = C.FluxCharacter(flux=(0.37, -0.58, 0.91, 0.13), scale=1.7)
    lhs = oracles.eval_flux_word(ch, concat(u, v), SG2)
    rhs = oracles.eval_flux_word(ch, u, SG2) * oracles.eval_flux_word(ch, v, SG2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_flux_accepts_homology_carrier():
    class Carrier:
        homology = (2, -1, 0, 0)

    ch = C.FluxCharacter(flux=(0.5, 0.25, 0.0, 0.0))
    direct = oracles.eval_flux(ch, (2, -1, 0, 0))
    assert oracles.eval_flux(ch, Carrier()) == direct
    assert abs(direct) == pytest.approx(1.0, abs=1e-15)


def test_breaks_time_reversal():
    assert not C.breaks_time_reversal(oracles.trivial_character(4))
    assert not C.breaks_time_reversal(C.FluxCharacter(flux=(math.pi, 0, 0, 0)))
    assert not C.breaks_time_reversal(C.FluxCharacter(flux=(2 * math.pi, math.pi, 0, 0)))
    assert C.breaks_time_reversal(C.FluxCharacter(flux=(math.pi / 2, 0, 0, 0)))
    assert C.breaks_time_reversal(C.FluxCharacter(flux=(math.pi, 0.31, 0, 0)))
    # scale multiplies the phases
    half = C.FluxCharacter(flux=(math.pi, 0, 0, 0), scale=0.5)
    assert C.breaks_time_reversal(half)


@pytest.mark.parametrize(
    "phase",
    [0.0, math.pi / 2, math.pi, 2 * math.pi, 3 * math.pi]
    + [math.pi + d for d in (-1e-11, -1e-13, 1e-13, 1e-11)],
)
def test_phase_predicate_matches_old_bodies(phase):
    for ch in (None, C.FluxCharacter(flux=(0.0, phase, 0.0, 0.0))):
        assert C.phases_on_lattice(ch, 2 * math.pi) == oracles._is_trivial_character(ch)
        assert (not C.phases_on_lattice(ch, math.pi)) == oracles.breaks_time_reversal(ch)
        assert C.breaks_time_reversal(ch) == oracles.breaks_time_reversal(ch)


def test_phase_predicate_rejects_matrix_characters():
    rep = C.MatrixRep(images=(np.eye(2), np.eye(2)), preset=F2)
    with pytest.raises(C.UndefinedTarget, match="no GOE/GUE target is defined for matrix twists"):
        C.phases_on_lattice(rep, math.pi)


def test_square_expansion_identity():
    # (rho(g) + rho(g)^-1)^2 == 2 + rho(g)^2 + rho(g^-1)^2 for unit moduli
    ch = C.FluxCharacter(flux=(0.8, -0.37, 1.9, 0.05), scale=1.3)
    for w in [(1,), (1, 2), (2, -4, 3), (1, 1, 2, -3, 4)]:
        rho = oracles.eval_flux_word(ch, w, SG2)
        rho_inv = oracles.eval_flux_word(ch, tuple(-l for l in reversed(w)), SG2)
        lhs = (rho + rho_inv) ** 2
        rhs = 2 + rho**2 + rho_inv**2
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# matrix representations


def _su2(axis, angle):
    x, y, z = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array(
        [[c - 1j * s * z, -s * (y + 1j * x)], [s * (y - 1j * x), c + 1j * s * z]]
    )


def test_matrix_rep_free_preset():
    rep = C.MatrixRep(
        images=(_su2((0, 0, 1), 0.9), _su2((1, 0, 0), 2.1)), preset=F2
    )
    assert rep.dimension == 2
    tr = oracles.char_trace(rep, (1, 2, -1))
    assert abs(tr) <= 2 + 1e-12


def test_matrix_rep_rejects_nonunitary():
    bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ValueError):
        C.MatrixRep(images=(bad,), preset=free_group(1))


def test_matrix_rep_relator_checked():
    # diagonal phases commute, so the genus-2 relator maps to the identity
    d1 = np.diag([cmath.exp(0.3j), cmath.exp(-0.3j)])
    d2 = np.diag([cmath.exp(1.1j), cmath.exp(-1.1j)])
    rep = C.MatrixRep(images=(d1, d2, d1, d2), preset=SG2)
    rel = rep.image_of(SG2.relator)
    assert np.max(np.abs(rel - np.eye(2))) < 1e-12

    # generic non-commuting images fail the relator check
    with pytest.raises(ValueError):
        C.MatrixRep(
            images=(
                _su2((0, 0, 1), 0.9),
                _su2((1, 0, 0), 2.1),
                _su2((0, 1, 0), 1.3),
                _su2((1, 1, 0), 0.4),
            ),
            preset=SG2,
        )


def test_char_trace_conjugation_invariant():
    rep = C.MatrixRep(images=(_su2((0, 0, 1), 0.9), _su2((1, 0, 0), 2.1)), preset=F2)
    w = (1, 2, 2, -1)
    for u in [(1,), (2, 1), (-2, -2, 1)]:
        conj = u + w + tuple(-l for l in reversed(u))
        assert oracles.char_trace(rep, conj) == pytest.approx(
            oracles.char_trace(rep, w), abs=1e-12
        )


def test_char_trace_trivial_rep():
    rep = C.MatrixRep(images=(np.eye(3), np.eye(3)), preset=F2)
    assert oracles.char_trace(rep, (1, 2, -1, 2)) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Haar constants


def test_haar_u1():
    est, se = C.haar_sigma_constant("U1", 200_000, seed=3)
    assert abs(est - 2.0) <= 3 * se


def test_haar_su2():
    est, se = C.haar_sigma_constant("SU2", 200_000, seed=3)
    assert abs(est - 4.0) <= 3 * se


def test_haar_un():
    est, se = C.haar_sigma_constant("UN", 50_000, seed=3, dim=3)
    assert abs(est - 2.0) <= 3 * se


@pytest.mark.parametrize("dim", range(1, 7))
def test_unitary_traces_match_qr_oracle(dim):
    for seed, index in ((0, 0), (0, 61), (3, 1), (2**40, 7)):
        got = C._unitary_traces(dim, stream(seed, index), 1024)
        want = oracles.qr_unitary_traces(dim, stream(seed, index), 1024)
        assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("dim", range(1, 7))
def test_unitary_trace_moments(dim):
    # E|Tr g|^(2k) = k! for k <= N on U(N) (Diaconis & Shahshahani 1994)
    size = 40_000
    tr2 = np.abs(C._unitary_traces(dim, stream(11, dim), size)) ** 2
    for k in range(1, dim + 1):
        vals = tr2**k
        se = vals.std() / math.sqrt(size)
        assert abs(vals.mean() - math.factorial(k)) <= 4 * se, (k, vals.mean(), se)


def test_haar_un_matches_qr_oracle():
    samples, seed = 10_000, 3
    sizes = [4096, 4096, samples - 2 * 4096]
    vals = np.concatenate(
        [(2.0 * oracles.qr_unitary_traces(3, stream(seed, i), n).real) ** 2 for i, n in enumerate(sizes)]
    )
    est, se = C.haar_sigma_constant("UN", samples, seed, dim=3)
    assert est == pytest.approx(vals.mean(), rel=1e-12)
    assert se == pytest.approx(vals.std() / math.sqrt(samples), rel=1e-9)


def test_haar_deterministic_and_batch_invariant():
    a = C.haar_sigma_constant("U1", 20_000, seed=9)
    b = C.haar_sigma_constant("U1", 20_000, seed=9)
    assert a == b


def test_haar_se_scales_like_inverse_sqrt():
    _, se1 = C.haar_sigma_constant("U1", 40_000, seed=5)
    _, se2 = C.haar_sigma_constant("U1", 160_000, seed=5)
    assert se2 == pytest.approx(se1 / 2.0, rel=0.15)


def test_haar_rejects_small_sample():
    with pytest.raises(ValueError):
        C.haar_sigma_constant("U1", 100, seed=1)
