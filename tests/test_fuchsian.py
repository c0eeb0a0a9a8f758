"""Preset, holonomy, and length-spectrum tests.

Oracles: generator traces of the pants preset are 2*cosh(l/2) by
construction of the trace triple; the octagon relator must close up to the
sign of the lift; spectra are compared against exhaustive word enumeration
with every pruning rule disabled.
"""

import hashlib
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    abelianize,
    enumerate_classes,
    pick_unoriented,
    primitives,
    spectrum_rows,
    take_rows,
    truncate_spectrum,
    word_power,
)
from specvar import fuchsian as F
from specvar import words as W
from specvar.words import (
    ConjugacyClass,
    canonical_class,
    invert_word,
    min_rotation,
    primitive_root,
    rotation_period,
    word_sort_key,
)


@pytest.fixture(scope="module")
def pants():
    return F.preset("schottky_pants", 2, 2, 2)


@pytest.fixture(scope="module")
def octagon():
    return F.preset("octagon_genus2")


@pytest.fixture(scope="module")
def torus():
    return F.preset("punctured_torus")


@pytest.fixture(scope="module")
def octagon_spectrum6(octagon):
    return F.build_spectrum(octagon, 6.0)


@pytest.fixture(scope="module")
def pants_spectrum6(pants):
    return F.build_spectrum(pants, 6.0)


# ---------------------------------------------------------------------------
# presets


def test_pants_generator_traces(pants):
    for m in pants.generators:
        assert np.trace(m) == pytest.approx(2 * math.cosh(1.0), abs=1e-12)


def test_pants_third_boundary_trace():
    g = F.preset("schottky_pants", 1.4, 2.2, 3.1)
    x, y = g.generators
    assert abs(np.trace(x @ y)) == pytest.approx(2 * math.cosh(3.1 / 2), abs=1e-10)
    assert np.trace(x) == pytest.approx(2 * math.cosh(0.7), abs=1e-12)
    assert np.trace(y) == pytest.approx(2 * math.cosh(1.1), abs=1e-12)


def test_pants_rejects_nonpositive_lengths():
    with pytest.raises(F.InvalidParameters):
        F.preset("schottky_pants", 2, 0, 2)
    with pytest.raises(F.InvalidParameters):
        F.preset("schottky_pants", -1, 2, 2)


def test_unknown_preset_rejected():
    with pytest.raises(F.InvalidParameters):
        F.preset("flat_torus")


def test_generators_unimodular(pants, octagon, torus):
    for g in (pants, octagon, torus):
        for m in g.generators:
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_octagon_relator_holonomy(octagon):
    rel = F.holonomies(octagon, [octagon.group.relator])[0]
    err = min(abs(rel - np.eye(2)).max(), abs(rel + np.eye(2)).max())
    assert err < 1e-10


def test_octagon_generators_hyperbolic(octagon):
    # side pairings of the regular octagon translate by 2*arccosh(1+1/sqrt(2))
    for m in octagon.generators:
        assert abs(np.trace(m)) == pytest.approx(2 + math.sqrt(2), abs=1e-10)


def test_octagon_no_elliptic_short_words(octagon):
    # discreteness probe: in a torsion-free Fuchsian group no nontrivial
    # element is elliptic, so every short word has |tr| >= 2
    mats = octagon.generator_array()
    words = np.arange(8, dtype=np.int8)[:, None]
    flat = mats.reshape(8, 4).copy()
    for _ in range(4):
        tr = np.abs(flat[:, 0] + flat[:, 3])
        assert (tr > 2 - 1e-9).all()
        words, flat = oracles.extend_shell_unpruned(words, flat, mats, None)
    tr = np.abs(flat[:, 0] + flat[:, 3])
    assert (tr > 2 - 1e-9).all()


def test_torus_commutator_parabolic(torus):
    x, y = torus.generators
    comm = x @ y @ np.linalg.inv(x) @ np.linalg.inv(y)
    assert np.trace(comm) == pytest.approx(-2.0, abs=1e-12)
    assert torus.warning is not None


# ---------------------------------------------------------------------------
# holonomy and length helpers


def test_holonomy_empty_word_is_identity(pants):
    assert np.allclose(F.holonomies(pants, [()])[0], np.eye(2))


def test_holonomies_match_oracle(octagon12, pants_spectrum6, capped_torus):
    # batched products give the bits of the one-word-at-a-time loop
    for sp in (octagon12, pants_spectrum6, capped_torus):
        words = [()] + sp.words()
        got = F.holonomies(sp.group, words)
        want = np.array([oracles.holonomy(sp.group, w) for w in words])
        assert np.array_equal(got, want)
        assert np.array_equal(F.holonomies(sp.group, [words[-1]])[0], want[-1])


@pytest.mark.parametrize("word", [(3,), (1, -3), (0, 1)])
def test_holonomies_reject_out_of_range_letters(pants, word):
    with pytest.raises(F.InvalidParameters, match="out of range"):
        F.holonomies(pants, [(1, 2), word])


def test_holonomy_word_times_inverse(octagon):
    w = (1, 2, -3, 4, 4, -1)
    m = F.holonomies(octagon, [w])[0] @ F.holonomies(octagon, [invert_word(w)])[0]
    assert abs(m - np.eye(2)).max() < 1e-10


@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6),
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_holonomy_trace_conjugation_invariant(w, u):
    g = F.preset("schottky_pants", 2.0, 1.5, 2.5)
    w, u = tuple(w), tuple(u)
    direct = np.trace(F.holonomies(g, [w])[0])
    conj = np.trace(F.holonomies(g, [u + w + invert_word(u)])[0])
    assert conj == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_length_of_known_traces():
    assert F.length_of(2.5) == pytest.approx(2 * math.log(2), abs=1e-12)
    assert F.length_of(-2.5) == pytest.approx(2 * math.log(2), abs=1e-12)
    assert F.length_of(2 * math.cosh(3)) == pytest.approx(6.0, abs=1e-12)


def test_length_of_rejects_nonhyperbolic():
    with pytest.raises(F.NonHyperbolicElement):
        F.length_of(2.0)
    with pytest.raises(F.NonHyperbolicElement):
        F.length_of(-1.3)


def test_poincare_det_values():
    assert oracles.poincare_det(2 * math.log(2)) == pytest.approx(2.25, abs=1e-12)
    assert oracles.poincare_det(2.0) == pytest.approx(4 * math.sinh(1.0) ** 2, abs=1e-12)
    # small-length Taylor behaviour: 4 sinh^2(l/2) ~ l^2
    for ell in (1e-3, 1e-5):
        assert oracles.poincare_det(ell) == pytest.approx(ell * ell, rel=1e-5)


def test_log_poincare_det_consistency():
    for ell in (0.5, 2.0, 7.0, 12.0):
        assert F.log_poincare_det(ell) == pytest.approx(
            math.log(oracles.poincare_det(ell)), abs=1e-12
        )
    # stays finite where the linear value overflows
    assert F.log_poincare_det(1500.0) == pytest.approx(1500.0, rel=1e-12)


# ---------------------------------------------------------------------------
# spectra versus exhaustive enumeration


def brute_classes(group, l_max, max_word_len):
    """Classes with ell <= l_max from plain word enumeration, no pruning."""
    out = {}
    for cls in enumerate_classes(group.group, max_word_len):
        tr = np.trace(F.holonomies(group, [cls.canonical])[0])
        if abs(tr) <= 2.0 + 1e-9:
            continue
        ell = F.length_of(tr)
        if ell <= l_max:
            out[cls.canonical] = ell
    return out


def test_pants_spectrum_matches_brute_force(pants, pants_spectrum6):
    oracle = brute_classes(pants, 6.0, 6)
    got = dict(zip(pants_spectrum6.words(), pants_spectrum6.length.tolist()))
    assert set(got) == set(oracle)
    for w, ell in oracle.items():
        assert got[w] == pytest.approx(ell, abs=1e-9)


def test_pants_spectrum_just_above_generators(pants):
    sp = F.build_spectrum(pants, 2.05)
    prims = [spectrum_rows(sp)[i] for i in F.unoriented_rows(sp)]
    # X, Y and the third boundary XY all have length exactly 2
    assert len(prims) == 3
    assert all(r.length == pytest.approx(2.0, abs=1e-9) for r in prims)
    oracle = brute_classes(pants, 2.05, 4)
    kept = {pick_unoriented(canonical_class(w, pants.group)) for w in oracle}
    assert {pick_unoriented(ConjugacyClass(r.word, r.inverse_word)) for r in prims} == kept


def test_oriented_doubles_chiral_classes(pants):
    # no class of a free group is conjugate to its inverse
    oriented = F.build_spectrum(pants, 5.0)
    assert len(primitives(oriented)) == 2 * len(F.unoriented_primitives(oriented))


@pytest.fixture(scope="module")
def pants9():
    return F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 9.0)


@pytest.mark.parametrize("which", ["octagon12", "pants9", "capped_torus"])
def test_record_classes_match_canonical_class(request, which):
    # the build canonicalises only enumeration survivors and writes the
    # inverse and power classes down; canonical_class must agree on each
    sp = request.getfixturevalue(which)
    preset_group = sp.group.group
    for r in spectrum_rows(sp):
        assert ConjugacyClass(r.word, r.inverse_word) == canonical_class(r.word, preset_group)


@pytest.mark.parametrize("which", ["octagon12", "pants9", "pants_spectrum6", "capped_torus"])
def test_power_rule_matches_probing_oracle(request, which):
    # a periodic shortest spelling marks a power; the oracle instead probes
    # every rotation block and divisor for a root
    sp = request.getfixturevalue(which)
    preset_group = sp.group.group
    for word in sp.words():
        cls = canonical_class(word, preset_group)
        assert cls == oracles.probed_canonical_class(word, preset_group)
        assert primitive_root(cls, preset_group) == oracles.probed_primitive_root(cls, preset_group)


def test_octagon_build_makes_at_most_one_closure_per_record(octagon, monkeypatch):
    calls = []
    closure = W._half_swap_closure

    def counted(word, preset):
        calls.append(word)
        return closure(word, preset)

    monkeypatch.setattr(W, "_half_swap_closure", counted)
    sp = F.build_spectrum(octagon, 9.5)
    assert len(sp.length) == 1578
    assert len(calls) <= len(sp.length)


def test_oriented_spectrum_closed_under_inversion(octagon_spectrum6):
    group = octagon_spectrum6.group.group
    words = octagon_spectrum6.words()
    for word, j in zip(words, octagon_spectrum6.inverse_id.tolist()):
        assert j >= 0 and words[j] == canonical_class(invert_word(word), group).canonical


def unoriented_primitives_oracle(spectrum):
    """Recomputes each inverse class instead of reading the stored one."""
    out = []
    for rec in primitives(spectrum):
        inv = canonical_class(invert_word(rec.word), spectrum.group.group)
        if word_sort_key(rec.word) <= word_sort_key(inv.canonical):
            out.append(rec)
    return out


def test_unoriented_primitives_matches_oracle(tmp_path, pants_spectrum6, octagon_spectrum6):
    path = str(tmp_path / "octagon6.csv")
    F.spectrum_to_csv(octagon_spectrum6, path)
    for sp in (pants_spectrum6, octagon_spectrum6, F.load_spectrum(path)):
        got = F.unoriented_primitives(sp)
        assert got == [r.word for r in unoriented_primitives_oracle(sp)]
        # both orientations are present, and exactly one of each pair is kept
        assert got
        assert len(primitives(sp)) == 2 * len(got)


@pytest.mark.parametrize("which", ["octagon12", "pants9", "capped_torus", "loaded octagon12"])
def test_columns_follow_the_records(request, which, octagon_csv):
    if which == "loaded octagon12":
        sp = F.load_spectrum(octagon_csv)
    else:
        sp = request.getfixturevalue(which)
    # each column against the row's word, spelled from the code matrix
    group = sp.group.group
    words = sp.words()
    assert sp.codes.dtype == np.int8 and sp.codes.shape == (len(words), max(map(len, words)))
    assert sp.word_len.tolist() == [len(w) for w in words]
    for word, row in zip(words, sp.codes.tolist()):
        assert row == [oracles.letter_code(c) for c in word] + [-1] * (len(row) - len(word))
    assert np.array_equal(sp.length, sp.power * sp.primitive_length)
    assert sp.log_det.tolist() == [F.log_poincare_det(ell) for ell in sp.length.tolist()]
    assert sp.homology.shape == (len(words), sp.group.rank)
    assert sp.homology.tolist() == [list(abelianize(w, group)) for w in words]
    by_word = {w: i for i, w in enumerate(words)}
    inverses = [canonical_class(invert_word(w), group).canonical for w in words]
    assert sp.inverse_id.tolist() == [by_word[w] for w in inverses]
    rows = spectrum_rows(sp)
    assert [rows[i] for i in F.unoriented_rows(sp)] == unoriented_primitives_oracle(sp)


def test_columns_follow_reordered_and_folded_records(pants):
    sp = F.build_spectrum(pants, 5.0)
    n = len(sp.length)
    reordered = take_rows(sp, np.arange(n)[::-1])
    assert reordered.inverse_id.tolist() == (n - 1 - sp.inverse_id[::-1]).tolist()
    assert reordered.words() == sp.words()[::-1]
    # P0 keeps the earlier row of each pair: reversed, the other orientation
    partners = sp.inverse_id[F.unoriented_rows(sp)]
    assert F.unoriented_primitives(reordered) == sp.words(partners[::-1])
    # P0 alone holds no partner: every inverse_id is the sentinel
    folded = take_rows(sp, F.unoriented_rows(sp))
    assert folded.inverse_id.tolist() == [-1] * len(folded.length)
    assert F.unoriented_primitives(folded) == []
    empty = take_rows(sp, [])
    assert empty.homology.shape == (0, sp.group.rank) and empty.words() == []


def test_octagon_spectrum_matches_word_oracle(octagon, octagon_spectrum6):
    # independent oracle with no shell machinery: every class whose canonical
    # spelling fits in 5 letters must come out of plain word enumeration too
    oracle = {}
    for cls in enumerate_classes(octagon.group, 5):
        tr = np.trace(F.holonomies(octagon, [cls.canonical])[0])
        if abs(tr) <= 2.0 + 1e-9:
            continue
        ell = F.length_of(tr)
        if ell <= 6.0:
            oracle[cls.canonical] = ell
    got = {w: ell for w, ell in zip(octagon_spectrum6.words(), octagon_spectrum6.length) if len(w) <= 5}
    assert set(got) == set(oracle)
    for w, ell in oracle.items():
        assert got[w] == pytest.approx(ell, abs=1e-9)


def test_octagon_pruning_margin_stable(octagon, octagon_spectrum6):
    # widening the displacement cut (and the trace window with it) must not
    # reveal any additional classes below the original bound
    cut = F._enumerate_cocompact(octagon, 6.0 + 1.0)[1]["displacement_cut"]
    wide = oracles.unpruned_shells(octagon, 6.0 + 1.0, 64, cut)
    found = set()
    for block in oracles._unique_min_rotations(wide):
        for word in F._codes_to_words(block):
            cls = canonical_class(word, octagon.group)
            tr = np.trace(F.holonomies(octagon, [cls.canonical])[0])
            if abs(tr) > 2 + 1e-9 and F.length_of(tr) <= 6.0:
                found.add(cls.canonical)
    assert set(octagon_spectrum6.words()) == found


def test_octagon_growth_trend(octagon):
    sp = F.build_spectrum(octagon, 9.0)
    for L in (6, 7, 8, 9):
        n = int(np.sum((sp.power == 1) & (sp.length <= L)))
        ratio = n / (math.exp(L) / L)
        assert 0.3 < ratio < 3.0


def test_records_sorted_with_dense_ids(octagon_spectrum6, pants9):
    # the build's lexsort over (ell, word length, codes) is the order of
    # (ell, word_sort_key), strictly: a row's index is its class id
    for sp in (octagon_spectrum6, pants9):
        keys = [(ell, word_sort_key(w)) for ell, w in zip(sp.length.tolist(), sp.words())]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_det_identity_against_trace(octagon, octagon_spectrum6):
    # independent route: |det(I-P)| = |tr(g)^2 - 4| for hyperbolic g
    for r in spectrum_rows(octagon_spectrum6):
        tr = np.trace(F.holonomies(octagon, [r.word])[0])
        assert abs(tr * tr - 4) == pytest.approx(
            oracles.poincare_det(r.length), rel=1e-10
        )
        assert r.log_det == pytest.approx(F.log_poincare_det(r.length), abs=1e-12)


def test_power_records(octagon_spectrum6):
    group = octagon_spectrum6.group.group
    prims = primitives(octagon_spectrum6)
    powers = [r for r in spectrum_rows(octagon_spectrum6) if r.power > 1]
    assert powers
    for r in powers:
        roots = [
            s
            for s in prims
            if abs(s.length - r.primitive_length) < 1e-9
            and canonical_class(word_power(s.word, r.power), group).canonical
            == r.word
        ]
        assert len(roots) == 1
        assert r.length == r.power * r.primitive_length  # exact float identity
        assert r.homology == tuple(r.power * h for h in roots[0].homology)


def test_power_trace_cross_check(octagon, octagon_spectrum6):
    for r in spectrum_rows(octagon_spectrum6):
        tr = abs(np.trace(F.holonomies(octagon, [r.word])[0]))
        assert tr == pytest.approx(
            2 * math.cosh(r.power * r.primitive_length / 2), rel=1e-8
        )


def test_torus_incomplete_enumeration(torus):
    with pytest.raises(F.IncompleteEnumeration):
        F.build_spectrum(torus, 12.0)
    sp = F.build_spectrum(torus, 12.0, allow_incomplete=True)
    assert not sp.certificate["complete"]
    assert sp.certified_l_max < 12.0
    assert (sp.length <= sp.certified_l_max + 1e-9).all()


def test_capped_torus_closes_no_survivor_above_its_certified_length(monkeypatch, tmp_path, torus):
    # capped at word length 14, Lmax 12 certifies only ell <= 6.08; the
    # survivors above that are cut by trace before the build names any
    # class, so closures stay within the 96 rows kept (4,025 before the cut)
    calls = []
    spellings = F.shortest_spellings
    monkeypatch.setattr(F, "shortest_spellings", lambda word, group: calls.append(word) or spellings(word, group))
    sp = F.build_spectrum(torus, 12.0, allow_incomplete=True)
    assert sp.certified_l_max < 6.1 and len(sp.length) == 96
    assert len(calls) <= 96
    path = tmp_path / "torus12.csv"
    F.spectrum_to_csv(sp, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "5687cf62f88cbed460d6901f3dc675346012d16d9a5f02c7ff59a07c72637779"
    )


def test_free_shell_over_the_row_budget_is_refused(monkeypatch, pants):
    # pants (2, 2, 2) at Lmax 8 grows shells of 654 and then 1,711 rows
    monkeypatch.setattr(F, "_SHELL_ROW_BUDGET", 1000)
    with pytest.raises(F.IncompleteEnumeration, match="word length 8 exceeds the row budget of 1,000 rows"):
        F.build_spectrum(pants, 8.0)
    monkeypatch.setattr(F, "_SHELL_ROW_BUDGET", 1711)
    assert F.build_spectrum(pants, 8.0).certificate["shell_rows"][-1] == 1711


def test_torus_capped_consistent_with_longer_cap(torus):
    short = F.build_spectrum(torus, 8.0, allow_incomplete=True, max_word_length=10)
    longer = F.build_spectrum(torus, 8.0, allow_incomplete=True, max_word_length=13)
    cutoff = short.certified_l_max
    short_set = set(short.words())
    longer_set = set(longer.words(longer.length <= cutoff + 1e-12))
    assert short_set == longer_set


def test_torus_cusp_words_excluded(torus):
    sp = F.build_spectrum(torus, 4.0, allow_incomplete=True, max_word_length=8)
    words = set(sp.words())
    comm = canonical_class((1, 2, -1, -2), torus.group).canonical
    assert comm not in words


def test_build_spectrum_deterministic(pants):
    a = F.build_spectrum(pants, 5.0)
    b = F.build_spectrum(pants, 5.0)
    assert spectrum_rows(a) == spectrum_rows(b)


def test_invalid_l_max(pants):
    with pytest.raises(F.InvalidParameters):
        F.build_spectrum(pants, -1.0)


@pytest.mark.parametrize("l_max", [math.nan, math.inf])
def test_non_finite_l_max_is_refused(pants, octagon, l_max):
    # no cut prunes an infinite or NaN cutoff: refused before any shell is
    # grown (a NaN cutoff once built an empty spectrum "certified to nan")
    for group in (pants, octagon):
        with pytest.raises(F.InvalidParameters, match="finite positive"):
            F.build_spectrum(group, l_max)


def _survivor_classes(blocks, preset):
    return {
        canonical_class(w, preset).canonical
        for block in blocks
        for w in F._codes_to_words(block)
    }


@pytest.mark.parametrize("l_max", [8.0, 10.0])
def test_octagon_necklace_pruning_keeps_classes(octagon, l_max):
    pruned, cert = F._enumerate_cocompact(octagon, l_max)
    oracle = oracles._unique_min_rotations(
        oracles.unpruned_shells(octagon, l_max, 64, cert["displacement_cut"])
    )
    assert sum(len(b) for b in pruned) < sum(len(b) for b in oracle)
    assert _survivor_classes(pruned, octagon.group) == _survivor_classes(
        oracle, octagon.group
    )


@pytest.mark.parametrize(
    "name, params, l_max, cap",
    [
        ("schottky_pants", (2, 2, 2), 6.0, 14),
        ("schottky_pants", (1.9, 2.1, 2.4), 9.0, 14),
        ("punctured_torus", (), 8.0, 10),
    ],
)
def test_free_necklace_pruning_keeps_classes(name, params, l_max, cap):
    group = F.preset(name, *params)
    pruned, cert = F._enumerate_free(group, l_max, cap, True)
    # every survivor up to the certified length, which capped mode (the
    # torus) sets below l_max; build_spectrum then cuts them by length
    certified = cert["certified_l_max"]
    assert (certified < l_max) == (name == "punctured_torus")
    oracle = oracles.unpruned_shells(group, certified, cert["word_length_bound"])
    assert sum(len(b) for b in pruned) < sum(len(b) for b in oracle)
    assert _survivor_classes(pruned, group.group) == _survivor_classes(
        oracle, group.group
    )


@pytest.mark.parametrize(
    "name, params, l_max", [("octagon_genus2", (), 8.0), ("schottky_pants", (2, 2, 2), 6.0)]
)
def test_survivors_are_necklaces(name, params, l_max):
    group = F.preset(name, *params)
    if group.cocompact:
        blocks, _ = F._enumerate_cocompact(group, l_max)
    else:
        blocks, _ = F._enumerate_free(group, l_max, 14, False)
    words = [w for b in blocks for w in F._codes_to_words(b)]
    assert words
    assert all(w == min_rotation(w) for w in words)
    assert len(set(words)) == len(words)


@pytest.mark.parametrize("l_max", [8.0, 9.5])
def test_octagon_survivors_are_dehn_reduced_necklaces(octagon, l_max):
    # no survivor holds a relator window, not even around its end, so
    # build_spectrum takes each row as its word
    blocks, _ = F._enumerate_cocompact(octagon, l_max)
    words = [w for b in blocks for w in F._codes_to_words(b)]
    assert words
    assert all(min_rotation(W.dehn_cyclic_reduce(w, octagon.group)) == w for w in words)


def test_build_takes_survivors_as_words(octagon, torus):
    # survivors are already least rotations: the module that builds and
    # loads spectra does not even bind min_rotation
    assert not hasattr(F, "min_rotation")
    assert len(F.build_spectrum(octagon, 6.0).length)
    assert len(F.build_spectrum(torus, 8.0, allow_incomplete=True, max_word_length=10).length)


def test_relator_windows_are_the_relator_5grams(octagon):
    # Dehn's overlong-window table, as a lookup table over all packed
    # 5-letter windows, marks exactly the 16 windows of the doubled relator
    # and its inverse
    table = F._relator_windows(octagon.group, 8)
    assert table.shape == (8**5,) and table.dtype == bool
    assert np.flatnonzero(table).tolist() == oracles.forbidden_5gram_codes(octagon.group, 8).tolist()


@pytest.mark.parametrize("name, params", [("octagon_genus2", ()), ("schottky_pants", (2, 2, 2))])
def test_extension_kernel_matches_the_per_letter_loop(name, params):
    # one mask and one gather give the loop's children, periods and
    # products bit for bit, in the loop's letter-major order
    group = F.preset(name, *params)
    gen_mats = group.generator_array()
    table = windows = None
    if group.cocompact:
        table = F._relator_windows(group.group, len(gen_mats))
        windows = oracles.forbidden_5gram_codes(group.group, len(gen_mats))
    rows = F._first_shell(gen_mats)
    for _ in range(6):
        got = F._extend_shell(*rows, gen_mats, table)
        want = oracles.extend_shell_by_letter(*rows, gen_mats, windows)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        rows = got
    assert len(rows[0]) > 500


def test_octagon_walk_does_not_depend_on_the_block_size(monkeypatch, tmp_path, octagon):
    # the depth-first walk hands over the same survivors, depth by depth and
    # in the same order, and the same certificate, whether its blocks hold
    # 5 rows or a whole shell; so the spectrum CSV is the same file
    walk, handed = F._enumerate_cocompact, []

    def recorded(group, l_max):
        handed.append(walk(group, l_max))
        return handed[-1]

    monkeypatch.setattr(F, "_enumerate_cocompact", recorded)
    csvs = []
    for rows in (5, 1 << 30):
        monkeypatch.setattr(F, "_BLOCK_ROWS", rows)
        path = tmp_path / f"octagon-{rows}.csv"
        F.spectrum_to_csv(F.build_spectrum(octagon, 9.5), str(path))
        csvs.append(path.read_bytes())
    ((small, small_cert), (whole, whole_cert)), (small_csv, whole_csv) = handed, csvs
    assert len(small) == len(whole) == small_cert["word_length_bound"]
    for a, b in zip(small, whole):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert small_cert == whole_cert
    assert small_csv == whole_csv


def test_octagon_walk_memory_stays_bounded(octagon):
    # the widest shell at Lmax 11 holds 900,216 rows, about 40 MB of words,
    # products and periods: the walk never holds a shell whole
    tracemalloc.start()
    try:
        F._enumerate_cocompact(octagon, 11.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6


def test_reduced_hyperbolic_predicate():
    # codes c and c ^ 1 are a letter and its inverse; survivors and the
    # shell minimum both read this one mask
    words = np.array([[0, 2, 1], [0, 2, 0], [3, 3, 2], [0, 2, 3]], dtype=np.int8)
    tr = np.array([3.0, 3.0, 3.0, 2.0])
    assert F._reduced_hyperbolic(words, tr).tolist() == [False, True, False, False]
    one_letter = np.arange(4, dtype=np.int8)[:, None]
    assert F._reduced_hyperbolic(one_letter, np.full(4, 2.5)).all()


def test_certificate_counts_rows_per_shell(octagon, torus):
    for sp in (
        F.build_spectrum(octagon, 6.0),
        F.build_spectrum(torus, 6.0, allow_incomplete=True, max_word_length=8),
    ):
        cert = sp.certificate
        assert "necklace" in cert["method"]
        assert len(cert["shell_rows"]) == cert["word_length_bound"]
        assert sum(cert["shell_rows"]) == cert["rows_visited"]


def _without_shell_classes(data: bytes) -> bytes:
    # the file as written before the certificate counted classes per shell
    lines = data.split(b"\n")
    prefix = b"# certificate="
    cert = json.loads(lines[2][len(prefix):])
    del cert["shell_classes"]
    lines[2] = prefix + json.dumps(cert, sort_keys=True).encode()
    return b"\n".join(lines)


def test_octagon_bench_csv_pinned(tmp_path, octagon):
    # the octagon Lmax 9.5 spectrum the benchmark builds and reads: its
    # column header and data rows without inverseId hash as they did in
    # format 1, the file hashes as before the certificate gained
    # shell_classes once that field is cut out, and it is pinned whole
    path = tmp_path / "octagon9.5.csv"
    F.spectrum_to_csv(F.build_spectrum(octagon, 9.5), str(path))
    data = path.read_bytes()
    assert hashlib.sha256(_rows_without_inverse_id(data)).hexdigest() == (
        "21fabfd82e0749498512728d5c82f5b1ce072da5509298306cb40dcbfa92d451"
    )
    assert hashlib.sha256(_without_shell_classes(data)).hexdigest() == (
        "5582b29c937a158155146d8505361fad5420f6a8a11c78f8756503693d988e64"
    )
    assert hashlib.sha256(data).hexdigest() == (
        "8dcb492dc0b68d279cd4297c0489c7ca0b3dad45ff9e944ca039a7ebbde089c4"
    )


def test_powers_listed_once(octagon12):
    # a proper power whose least shortest spelling is not the repetition of
    # its root (e.g. (a^-1 b^-1 a2 b1)^2) once also came out as a primitive
    for sp in (truncate_spectrum(octagon12, 10.0), octagon12):
        words = sp.words()
        assert len(set(words)) == len(words)
        assert all(rotation_period(r.word) == len(r.word) for r in primitives(sp))


# ---------------------------------------------------------------------------
# rotation dedup oracle


def test_unique_min_rotations_collapses_rotations():
    rows = np.array(
        [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [3, 3, 3]], dtype=np.int8
    )
    blocks = oracles._unique_min_rotations([rows])
    assert len(blocks) == 1
    got = {tuple(int(x) for x in row) for row in blocks[0]}
    assert got == {(0, 1, 2), (0, 2, 1), (3, 3, 3)}


# ---------------------------------------------------------------------------
# checks and tails


def test_anosov_power_check(octagon_spectrum6):
    report = oracles.anosov_power_check(octagon_spectrum6)
    assert report["all_pass"]
    assert report["checked"] == len(octagon_spectrum6.length)
    # curvature -1 bound with C=1, theta=1: sinh(2)/sinh(1) >= e
    assert 4 * math.sinh(2.0) ** 2 / (4 * math.sinh(1.0) ** 2) >= math.e**2


def test_exponential_tail_decreasing(pants_spectrum6):
    values = [oracles.exponential_tail(pants_spectrum6, 2, s) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert values == sorted(values, reverse=True)


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip(tmp_path, pants_spectrum6):
    path = str(tmp_path / "spec.csv")
    F.spectrum_to_csv(pants_spectrum6, path)
    cols, meta = F.spectrum_from_csv(path)
    assert meta["preset"] == "schottky_pants"
    assert int(meta["format_version"]) == F.SPECTRUM_FORMAT_VERSION
    assert float(meta["l_max"]) == pants_spectrum6.l_max
    assert cols.pop("class_id").tolist() == list(range(len(pants_spectrum6.length)))
    assert sorted(cols) == sorted(F._ROW_COLUMNS)
    for name, got in cols.items():
        # bit exact: floats make the repr round trip
        want = getattr(pants_spectrum6, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def _rows_without_inverse_id(data: bytes) -> bytes:
    """Column header and data rows of a spectrum CSV, inverseId cut out."""
    out = []
    for line in data.split(b"\n")[:-1]:
        if not line.startswith(b"#"):
            cells = line.split(b",")
            del cells[1]
            out.append(b",".join(cells) + b"\n")
    return b"".join(out)


def test_csv_bytes_pinned(tmp_path):
    # the column header and data rows, inverseId cut out, hash as the same
    # section of the format-1 file did (whole-file sha256 acaa27cc..., as
    # written before the writer moved onto the report layer's atomic
    # writer); the format-2 file is pinned whole, and without the
    # certificate's shell_classes as it was written before that field;
    # comment lines end in \n, csv rows (header included) in \r\n
    spectrum = F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 6.0)
    path = tmp_path / "pants6.csv"
    F.spectrum_to_csv(spectrum, str(path))
    data = path.read_bytes()
    assert hashlib.sha256(_rows_without_inverse_id(data)).hexdigest() == (
        "59e3ba6bf4f6bcc8ea9706c792caa3a3a3ea1c649bce782c4c8eda4de50cda57"
    )
    assert hashlib.sha256(_without_shell_classes(data)).hexdigest() == (
        "a6875633ac4e9187c32a55217afeb0bcc61e57511fd83580131e123de8769de8"
    )
    assert hashlib.sha256(data).hexdigest() == (
        "7ab68f129730d9ca109ff0f18f7aa35f6b62ff9244d89133230ea508d91b9ca9"
    )
    lines = data.split(b"\n")[:-1]
    assert [line.endswith(b"\r") for line in lines] == [False] * 3 + [True] * (len(lines) - 3)
    assert os.listdir(tmp_path) == ["pants6.csv"]


def test_deep_and_capped_csvs_pinned(tmp_path, octagon_csv, torus):
    # the session's octagon Lmax 12 spectrum, and a capped torus (Lmax 8 at
    # word length 13 certifies only ell <= 6.08; Lmax 6 at the default cap
    # certifies in full), pinned whole, certificate line included
    path = tmp_path / "torus8.csv"
    F.spectrum_to_csv(
        F.build_spectrum(torus, 8.0, allow_incomplete=True, max_word_length=13), str(path)
    )
    with open(octagon_csv, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == (
            "7b2ed4d6ad9e0aea76e45a46c6978b86bec86258a15f97e8ef879eda715af311"
        )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "385d4ed7adb4cf3ac86161af48d021c8781e42c610bc8a23ebf7ea2cca53222f"
    )


@pytest.fixture(scope="module")
def capped_torus(torus):
    return F.build_spectrum(torus, 7.0, allow_incomplete=True, max_word_length=10)


def test_csv_round_trip_keeps_capped_certificate(tmp_path, capped_torus, pants_spectrum6):
    assert not capped_torus.certificate["complete"]
    assert capped_torus.certified_l_max < capped_torus.l_max
    for sp, name in [(capped_torus, "torus.csv"), (pants_spectrum6, "pants.csv")]:
        path = str(tmp_path / name)
        F.spectrum_to_csv(sp, path)
        loaded = F.load_spectrum(path)
        assert loaded.certificate == sp.certificate
        assert loaded.certified_l_max == sp.certified_l_max
        assert loaded.l_max == sp.l_max


@pytest.mark.parametrize("which", ["octagon12", "pants", "capped torus", "truncated torus"])
def test_load_returns_the_built_records(
    request, tmp_path, which, octagon_csv, pants_spectrum6, capped_torus
):
    if which == "octagon12":
        sp, path = request.getfixturevalue("octagon12"), octagon_csv
    else:
        sp = {
            "pants": pants_spectrum6,
            "capped torus": capped_torus,
            "truncated torus": truncate_spectrum(capped_torus, 5.0),
        }[which]
        path = str(tmp_path / "spec.csv")
        F.spectrum_to_csv(sp, path)
    loaded = F.load_spectrum(path)
    for name in F._ROW_COLUMNS:
        got, want = getattr(loaded, name), getattr(sp, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (loaded.group.name, loaded.group.params) == (sp.group.name, sp.group.params)
    assert loaded.l_max == sp.l_max
    assert loaded.certificate == sp.certificate


def test_csv_writer_refuses_unoriented_spectrum(tmp_path, pants):
    sp = F.build_spectrum(pants, 5.0)
    folded = take_rows(sp, F.unoriented_rows(sp))
    with pytest.raises(F.InvalidParameters, match="oriented spectra only"):
        F.spectrum_to_csv(folded, str(tmp_path / "folded.csv"))
    assert not os.listdir(tmp_path)


def test_word_text_round_trip():
    words = [(1,), (1, -2, 3, -4), (-1, -1, 2), (4, -4, -3, 3, 2, -2, -1, 1)]
    codes, word_len = F._code_matrix(words, 8)
    texts = F._spelled(codes, word_len)
    assert texts == ["a", "aBcD", "AAb", "dDCcbBAa"]
    back, back_len = F._unspelled(texts)
    assert np.array_equal(back, codes) and np.array_equal(back_len, word_len)
    for text, bad in [("abx", "'x'"), ("é", "'é'"), ("a\x7f", "'\\x7f'")]:
        with pytest.raises(ValueError, match=re.escape(f"bad word letter {bad}")):
            F._unspelled(["ab", text])
    # letter 0 used to be spelled as the last letter, h
    for w in [(9,), (1, 0)]:
        with pytest.raises(F.InvalidParameters, match="out of range for rank 4"):
            F._code_matrix([w], 8)
