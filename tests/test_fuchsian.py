"""Preset, holonomy, and length-spectrum tests.

Oracles: generator traces of the pants preset are 2*cosh(l/2) by
construction of the trace triple; the octagon relator must close up to the
sign of the lift; spectra are compared against exhaustive word enumeration
with every pruning rule disabled.
"""

import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import enumerate_classes, pick_unoriented
from specvar import fuchsian as F
from specvar.words import (
    canonical_class,
    free_group,
    invert_word,
    min_rotation,
    rotation_period,
    surface_group,
    word_power,
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
    rel = F.holonomy(octagon, octagon.group.relator)
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
    assert np.allclose(F.holonomy(pants, ()), np.eye(2))


def test_holonomies_match_oracle(octagon12, pants_spectrum6, capped_torus):
    # batched products give the bits of the one-word-at-a-time loop
    for sp in (octagon12, pants_spectrum6, capped_torus):
        words = [()] + [r.word for r in sp.records]
        got = F.holonomies(sp.group, words)
        want = np.array([oracles.holonomy(sp.group, w) for w in words])
        assert np.array_equal(got, want)
        assert np.array_equal(F.holonomy(sp.group, words[-1]), want[-1])


@pytest.mark.parametrize("word", [(3,), (1, -3), (0, 1)])
def test_holonomies_reject_out_of_range_letters(pants, word):
    with pytest.raises(F.InvalidParameters, match="out of range"):
        F.holonomies(pants, [(1, 2), word])


def test_holonomy_word_times_inverse(octagon):
    w = (1, 2, -3, 4, 4, -1)
    m = F.holonomy(octagon, w) @ F.holonomy(octagon, invert_word(w))
    assert abs(m - np.eye(2)).max() < 1e-10


@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6),
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_holonomy_trace_conjugation_invariant(w, u):
    g = F.preset("schottky_pants", 2.0, 1.5, 2.5)
    w, u = tuple(w), tuple(u)
    direct = np.trace(F.holonomy(g, w))
    conj = np.trace(F.holonomy(g, u + w + invert_word(u)))
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
        tr = np.trace(F.holonomy(group, cls.canonical))
        if abs(tr) <= 2.0 + 1e-9:
            continue
        ell = F.length_of(tr)
        if ell <= l_max:
            out[cls.canonical] = ell
    return out


def test_pants_spectrum_matches_brute_force(pants, pants_spectrum6):
    oracle = brute_classes(pants, 6.0, 6)
    got = {r.word: r.length for r in pants_spectrum6.records}
    assert set(got) == set(oracle)
    for w, ell in oracle.items():
        assert got[w] == pytest.approx(ell, abs=1e-9)


def test_pants_spectrum_just_above_generators(pants):
    prims = F.unoriented_primitives(F.build_spectrum(pants, 2.05))
    # X, Y and the third boundary XY all have length exactly 2
    assert len(prims) == 3
    assert all(r.length == pytest.approx(2.0, abs=1e-9) for r in prims)
    oracle = brute_classes(pants, 2.05, 4)
    kept = {pick_unoriented(canonical_class(w, pants.group)) for w in oracle}
    assert {pick_unoriented(r.cls) for r in prims} == kept


def test_oriented_doubles_chiral_classes(pants):
    oriented = F.build_spectrum(pants, 5.0)
    folded = F.unoriented_primitives(oriented)
    chiral = sum(1 for r in folded if not r.cls.is_inverse_self)
    achiral = len(folded) - chiral
    assert len(oriented.primitives()) == 2 * chiral + achiral


@pytest.fixture(scope="module")
def pants9():
    return F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 9.0)


@pytest.mark.parametrize("which", ["octagon12", "pants9", "capped_torus"])
def test_record_classes_match_canonical_class(request, which):
    # the build canonicalises only enumeration survivors and writes the
    # inverse and power classes down; canonical_class must agree on each
    sp = request.getfixturevalue(which)
    preset_group = sp.group.group
    for r in sp.records:
        assert r.cls == canonical_class(r.word, preset_group)


def test_oriented_spectrum_closed_under_inversion(octagon_spectrum6):
    words = {r.word for r in octagon_spectrum6.records}
    for r in octagon_spectrum6.records:
        assert r.cls.inverse_canonical in words


def unoriented_primitives_oracle(spectrum):
    """Recomputes each inverse class instead of reading the stored one."""
    out = []
    for rec in spectrum.primitives():
        inv = canonical_class(invert_word(rec.word), spectrum.group.group)
        if word_sort_key(rec.cls.canonical) <= word_sort_key(inv.canonical):
            out.append(rec)
    return out


def test_unoriented_primitives_matches_oracle(tmp_path, pants_spectrum6, octagon_spectrum6):
    path = str(tmp_path / "octagon6.csv")
    F.spectrum_to_csv(octagon_spectrum6, path)
    for sp in (pants_spectrum6, octagon_spectrum6, F.load_spectrum(path)):
        got = F.unoriented_primitives(sp)
        assert got == unoriented_primitives_oracle(sp)
        # both orientations are present, and exactly one of each pair is kept
        chiral = [r for r in sp.primitives() if not r.cls.is_inverse_self]
        assert chiral
        assert 2 * len(got) == 2 * len(sp.primitives()) - len(chiral)


def test_octagon_spectrum_matches_word_oracle(octagon, octagon_spectrum6):
    # independent oracle with no shell machinery: every class whose canonical
    # spelling fits in 5 letters must come out of plain word enumeration too
    oracle = {}
    for cls in enumerate_classes(octagon.group, 5):
        tr = np.trace(F.holonomy(octagon, cls.canonical))
        if abs(tr) <= 2.0 + 1e-9:
            continue
        ell = F.length_of(tr)
        if ell <= 6.0:
            oracle[cls.canonical] = ell
    got = {r.word: r.length for r in octagon_spectrum6.records if len(r.word) <= 5}
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
            tr = np.trace(F.holonomy(octagon, cls.canonical))
            if abs(tr) > 2 + 1e-9 and F.length_of(tr) <= 6.0:
                found.add(cls.canonical)
    got = {r.word for r in octagon_spectrum6.records}
    assert got == found


def test_octagon_growth_trend(octagon):
    sp = F.build_spectrum(octagon, 9.0)
    for L in (6, 7, 8, 9):
        n = sum(1 for r in sp.records if r.power == 1 and r.length <= L)
        ratio = n / (math.exp(L) / L)
        assert 0.3 < ratio < 3.0


def test_records_sorted_with_dense_ids(octagon_spectrum6):
    lengths = [r.length for r in octagon_spectrum6.records]
    assert lengths == sorted(lengths)
    assert [r.class_id for r in octagon_spectrum6.records] == list(
        range(len(octagon_spectrum6.records))
    )


def test_det_identity_against_trace(octagon, octagon_spectrum6):
    # independent route: |det(I-P)| = |tr(g)^2 - 4| for hyperbolic g
    for r in octagon_spectrum6.records:
        tr = np.trace(F.holonomy(octagon, r.word))
        assert abs(tr * tr - 4) == pytest.approx(
            oracles.poincare_det(r.length), rel=1e-10
        )
        assert r.log_det == pytest.approx(F.log_poincare_det(r.length), abs=1e-12)


def test_power_records(octagon_spectrum6):
    group = octagon_spectrum6.group.group
    prims = octagon_spectrum6.primitives()
    powers = [r for r in octagon_spectrum6.records if r.power > 1]
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
    for r in octagon_spectrum6.records:
        tr = abs(np.trace(F.holonomy(octagon, r.word)))
        assert tr == pytest.approx(
            2 * math.cosh(r.power * r.primitive_length / 2), rel=1e-8
        )


def test_torus_incomplete_enumeration(torus):
    with pytest.raises(F.IncompleteEnumeration):
        F.build_spectrum(torus, 12.0)
    sp = F.build_spectrum(torus, 12.0, allow_incomplete=True)
    assert not sp.certificate["complete"]
    assert sp.certified_l_max < 12.0
    assert all(r.length <= sp.certified_l_max + 1e-9 for r in sp.records)


def test_torus_capped_consistent_with_longer_cap(torus):
    short = F.build_spectrum(torus, 8.0, allow_incomplete=True, max_word_length=10)
    longer = F.build_spectrum(torus, 8.0, allow_incomplete=True, max_word_length=13)
    cutoff = short.certified_l_max
    short_set = {r.word for r in short.records}
    longer_set = {r.word for r in longer.records if r.length <= cutoff + 1e-12}
    assert short_set == longer_set


def test_torus_cusp_words_excluded(torus):
    sp = F.build_spectrum(torus, 4.0, allow_incomplete=True, max_word_length=8)
    words = {r.word for r in sp.records}
    comm = canonical_class((1, 2, -1, -2), torus.group).canonical
    assert comm not in words


def test_build_spectrum_deterministic(pants):
    a = F.build_spectrum(pants, 5.0)
    b = F.build_spectrum(pants, 5.0)
    assert [(r.word, r.length, r.log_det) for r in a.records] == [
        (r.word, r.length, r.log_det) for r in b.records
    ]


def test_invalid_l_max(pants):
    with pytest.raises(F.InvalidParameters):
        F.build_spectrum(pants, -1.0)


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
    # capped mode keeps only the survivors up to the certified length
    oracle = oracles.unpruned_shells(
        group, cert["certified_l_max"], cert["word_length_bound"]
    )
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


def test_certificate_counts_rows_per_shell(octagon, torus):
    for sp in (
        F.build_spectrum(octagon, 6.0),
        F.build_spectrum(torus, 6.0, allow_incomplete=True, max_word_length=8),
    ):
        cert = sp.certificate
        assert "necklace" in cert["method"]
        assert len(cert["shell_rows"]) == cert["word_length_bound"]
        assert sum(cert["shell_rows"]) == cert["rows_visited"]


def test_octagon_bench_csv_pinned(tmp_path, octagon):
    # the octagon Lmax 9.5 spectrum the benchmark builds and reads: its
    # column header and data rows without inverseId hash as they did in
    # format 1, and the whole format-2 file is pinned too
    path = tmp_path / "octagon9.5.csv"
    F.spectrum_to_csv(F.build_spectrum(octagon, 9.5), str(path))
    data = path.read_bytes()
    assert hashlib.sha256(_rows_without_inverse_id(data)).hexdigest() == (
        "21fabfd82e0749498512728d5c82f5b1ce072da5509298306cb40dcbfa92d451"
    )
    assert hashlib.sha256(data).hexdigest() == (
        "5582b29c937a158155146d8505361fad5420f6a8a11c78f8756503693d988e64"
    )


def test_powers_listed_once(octagon12):
    # a proper power whose least shortest spelling is not the repetition of
    # its root (e.g. (a^-1 b^-1 a2 b1)^2) once also came out as a primitive
    for sp in (F.truncate_spectrum(octagon12, 10.0), octagon12):
        words = [r.word for r in sp.records]
        assert len(set(words)) == len(words)
        assert all(rotation_period(r.word) == len(r.word) for r in sp.primitives())


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
    assert report["checked"] == len(octagon_spectrum6.records)
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
    rows, meta = F.spectrum_from_csv(path)
    assert meta["preset"] == "schottky_pants"
    assert int(meta["format_version"]) == F.SPECTRUM_FORMAT_VERSION
    assert float(meta["l_max"]) == pants_spectrum6.l_max
    assert len(rows) == len(pants_spectrum6.records)
    for row, rec in zip(rows, pants_spectrum6.records):
        assert row["classId"] == rec.class_id
        assert rows[row["inverseId"]]["word"] == rec.cls.inverse_canonical
        assert row["word"] == rec.word
        assert row["ell"] == rec.length  # repr round trip is bit exact
        assert row["ell_sharp"] == rec.primitive_length
        assert row["k"] == rec.power
        assert row["log_detIminusP"] == rec.log_det
        assert row["homology"] == rec.homology


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
    # writer); the format-2 file is pinned whole; comment lines end in \n,
    # csv rows (header included) in \r\n
    spectrum = F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 6.0)
    path = tmp_path / "pants6.csv"
    F.spectrum_to_csv(spectrum, str(path))
    data = path.read_bytes()
    assert hashlib.sha256(_rows_without_inverse_id(data)).hexdigest() == (
        "59e3ba6bf4f6bcc8ea9706c792caa3a3a3ea1c649bce782c4c8eda4de50cda57"
    )
    assert hashlib.sha256(data).hexdigest() == (
        "a6875633ac4e9187c32a55217afeb0bcc61e57511fd83580131e123de8769de8"
    )
    lines = data.split(b"\n")[:-1]
    assert [line.endswith(b"\r") for line in lines] == [False] * 3 + [True] * (len(lines) - 3)
    assert os.listdir(tmp_path) == ["pants6.csv"]


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
            "truncated torus": F.truncate_spectrum(capped_torus, 5.0),
        }[which]
        path = str(tmp_path / "spec.csv")
        F.spectrum_to_csv(sp, path)
    loaded = F.load_spectrum(path)
    assert loaded.records == sp.records  # GeodesicRecord equality, cls included
    assert (loaded.group.name, loaded.group.params) == (sp.group.name, sp.group.params)
    assert loaded.l_max == sp.l_max
    assert loaded.certificate == sp.certificate


def test_csv_writer_refuses_unoriented_spectrum(tmp_path, pants):
    sp = F.build_spectrum(pants, 5.0)
    folded = dataclasses.replace(sp, records=tuple(F.unoriented_primitives(sp)))
    with pytest.raises(F.InvalidParameters, match="oriented spectra only"):
        F.spectrum_to_csv(folded, str(tmp_path / "folded.csv"))
    assert not os.listdir(tmp_path)


def test_word_text_round_trip():
    for w in [(1,), (1, -2, 3, -4), (-1, -1, 2)]:
        assert F.word_from_text(F.word_to_text(w)) == w
