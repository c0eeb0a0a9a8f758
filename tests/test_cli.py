"""CLI contracts: dispatch, artifacts, exit codes, determinism, config."""

import hashlib
import json
import os

import pytest

import specvar.fuchsian as F
from specvar.cli import EXIT_CHECK_FAILED, EXIT_INVALID, EXIT_OK, main
from specvar.report import FORMAT_VERSION


@pytest.fixture(scope="module")
def pants_csv(tmp_path_factory):
    spectrum = F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 6.0)
    path = tmp_path_factory.mktemp("spectra") / "pants6.csv"
    F.spectrum_to_csv(spectrum, str(path))
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    assert lines[0] == f"# format={FORMAT_VERSION}"
    config = json.loads(lines[1].removeprefix("# config="))
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    return config, header, rows


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["format"] == FORMAT_VERSION
    return doc


# ---------------------------------------------------------------------------
# artifacts and schemas


def test_spectrum_smoke(tmp_path):
    out = str(tmp_path / "spec.csv")
    code = main(
        ["spectrum", "--preset", "schottky_pants", "--params", "1.9,2.1,2.4",
         "--Lmax", "5", "--out", out]
    )
    assert code == EXIT_OK
    loaded = F.load_spectrum(out)
    assert loaded.certified_l_max == 5.0
    assert len(loaded.records) > 0
    assert not list(tmp_path.glob("*.tmp"))


def test_variance_profile_columns(tmp_path, pants_csv):
    out = str(tmp_path / "var.csv")
    code = main(
        ["variance", "--spectrum-file", pants_csv, "--lambda", "5000",
         "--L", "5", "--delta", "0.5", "--out", out]
    )
    assert code == EXIT_OK
    config, header, rows = read_csv(out)
    assert header == ["mu", "sigma2", "smooth", "osc"]
    assert config["lam"] == 5000.0
    mus = [float(r[0]) for r in rows]
    assert mus == sorted(mus)
    assert all(float(r[1]) >= 0.0 for r in rows)


def test_variance_check_writes_json(tmp_path, octagon_csv):
    out = str(tmp_path / "avg")
    code = main(
        ["variance", "--spectrum-file", octagon_csv, "--lambda", "1e4",
         "--L", "11", "--delta", "2", "--window", "bump", "--check",
         "--out", out]
    )
    assert code == EXIT_OK
    doc = read_json(out + ".json")
    result = doc["result"]
    assert result["passed"] is True
    assert result["gap"] == pytest.approx(abs(result["average"] - result["target"]))
    assert result["target"] == result["sigma2Goe"]


def test_average_gue_switch(tmp_path, octagon_csv):
    out = str(tmp_path / "avg.json")
    code = main(
        ["average", "--spectrum-file", octagon_csv, "--lambda", "1e4",
         "--L", "11", "--delta", "2", "--window", "bump",
         "--flux", "1,0,0,0", "--flux-scale", "1.5707963267948966",
         "--out", out]
    )
    assert code == EXIT_OK
    result = read_json(out)["result"]
    assert result["target"] == result["sigma2Gue"]


def test_dirichlet_report(tmp_path, pants_csv):
    out = str(tmp_path / "dir.json")
    code = main(
        ["dirichlet", "--spectrum-file", pants_csv, "--L", "5", "--Y", "8",
         "--M", "100", "--mode", "plus", "--check", "--out", out]
    )
    assert code == EXIT_OK
    result = read_json(out)["result"]
    assert result["mode"] == "plus"
    assert result["ratio"] >= 1.5 - result["slack"] / result["smoothPart"]


def test_sumrule_columns(tmp_path, octagon_csv):
    out = str(tmp_path / "sr.csv")
    code = main(
        ["sumrule", "--spectrum-file", octagon_csv, "--L", "8,9.5,11",
         "--window", "bump", "--check", "--out", out]
    )
    assert code == EXIT_OK
    _, header, rows = read_csv(out)
    assert header == ["L", "value", "target", "gap"]
    gaps = [float(r[3]) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]


def test_orbit_clt_honest_kurtosis_failure(tmp_path, octagon_csv):
    # the T = 9 ensemble is platykurtic beyond the 0.3 band for every flux;
    # the artifact must still land when the check fails
    out = str(tmp_path / "oc.csv")
    code = main(
        ["orbit-clt", "--spectrum-file", octagon_csv, "--T", "9",
         "--flux", "1,0,0,0", "--draws", "20000", "--seed", "42",
         "--check", "--out", out]
    )
    assert code == EXIT_CHECK_FAILED
    _, header, rows = read_csv(out)
    assert "excess_kurtosis" in header
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert abs(float(row["excess_kurtosis"])) > 0.3
    assert abs(float(row["variance"]) - float(row["estimator"])) <= float(row["joint_band"])


def test_transition_grid(tmp_path, octagon_csv, capsys):
    out = str(tmp_path / "tr.csv")
    code = main(
        ["transition", "--spectrum-file", octagon_csv, "--flux", "1,0,0,0",
         "--lambda", "1e4", "--L", "10", "--check", "--out", out]
    )
    assert code == EXIT_OK
    assert "exceeds log(lambda)" in capsys.readouterr().err
    _, header, rows = read_csv(out)
    assert header == ["s", "alpha", "sigma2_pred", "sigma2_emp", "sigma2_avg"]
    emp = [float(r[3]) for r in rows]
    assert emp == sorted(emp, reverse=True)
    avg = [float(r[4]) for r in rows]
    assert all(a > 0 for a in avg)


def test_haar_check(tmp_path):
    out = str(tmp_path / "haar.json")
    code = main(
        ["haar", "--group", "su2", "--samples", "100000", "--seed", "3",
         "--check", "--out", out]
    )
    assert code == EXIT_OK
    result = read_json(out)["result"]
    assert result["target"] == 4.0
    assert abs(result["estimate"] - 4.0) <= 3.0 * result["se"]


def test_ergodicity_report(tmp_path, pants_csv):
    out = str(tmp_path / "erg.json")
    code = main(
        ["ergodicity", "--spectrum-file", pants_csv, "--lambda", "1e4",
         "--L", "5", "--Lambda", "25", "--draws", "200", "--seed", "17",
         "--check", "--out", out]
    )
    assert code == EXIT_OK
    result = read_json(out)["result"]
    assert result["violationFraction"] <= 0.1


# ---------------------------------------------------------------------------
# determinism


def test_covers_byte_identical(tmp_path):
    # the published determinism example: same config+seed, identical bytes
    out = str(tmp_path / "covers.json")
    args = ["covers", "--preset", "schottky_pants", "--n", "300",
            "--samples", "20000", "--seed", "7", "--out", out]
    assert main(args) == EXIT_OK
    first = open(out, "rb").read()
    assert main(args) == EXIT_OK
    assert open(out, "rb").read() == first
    doc = read_json(out)
    moments = doc["result"]["moments"]
    assert moments["model"] == "free"
    assert doc["config"]["seed"] == 7


def test_covers_result_pinned(tmp_path):
    # moment test plus bridge; the digest was recorded before the batch
    # layout moved to flat indices and one shared draw per run
    out = str(tmp_path / "covers.json")
    assert main(["covers", "--n", "50", "--samples", "500", "--L", "6",
                 "--lambda", "1e4", "--seed", "7", "--out", out]) == EXIT_OK
    result = read_json(out)["result"]
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canonical).hexdigest() == (
        "df9769f3325b45a83d95cf1e844ad9001b7fd67d4bd03af926c20cf13872c61c"
    )


# digests of the canonical ``result`` JSON, or of the column header and
# data rows of a CSV report, on the octagon Lmax 12 CSV
ANALYSIS_PINS = {
    "average": (
        ["average", "--L", "8", "--window", "bump", "--lambda", "1e4", "--delta", "2"],
        "json",
        "867add6559477106f7e10d28b25674a615f44c84ea34ac69747f72c61da4a136",
    ),
    "average-flux": (
        ["average", "--L", "8", "--window", "bump", "--lambda", "1e4", "--delta", "2",
         "--flux", "1.5707963267948966,0,0,0"],
        "json",
        "8b4ea67417866e2b165d067a60b5c4519a2eb7f25650f2a781b5600611e976b1",
    ),
    "poisson": (
        ["poisson", "--L", "8", "--lambda", "1e4", "--draws", "20000", "--seed", "3"],
        "json",
        "72248a1fc32d8a6dc032b0e4bf6617fa48bda5cb4ac11339022edc44b22ba1c3",
    ),
    "sumrule": (
        ["sumrule", "--L", "8,9,9.5", "--window", "bump"],
        "csv",
        "725cf9dc46bc72ddacb624529e104651818f88593fd79f937955d4bf0834d2f2",
    ),
    "transition": (
        ["transition", "--L", "8", "--lambda", "1e4", "--flux", "1,0,0,0"],
        "csv",
        "0cff6cd7136e7bb70aa45e4844a73a58262e57cd894e613ca2c24127b31977f7",
    ),
    "orbit-clt": (
        ["orbit-clt", "--T", "8.5", "--draws", "20000", "--flux", "1,0,0,0", "--seed", "5"],
        "csv",
        "4a8ea4c7aa46f7a3236f33ea5e639e6a70864cd966523678e151332a3f3574f6",
    ),
}


@pytest.mark.parametrize("name", list(ANALYSIS_PINS))
def test_analysis_result_pinned(tmp_path, octagon_csv, name):
    argv, kind, digest = ANALYSIS_PINS[name]
    out = str(tmp_path / f"out.{kind}")
    assert main(argv + ["--spectrum-file", octagon_csv, "--out", out]) == EXIT_OK
    if kind == "json":
        result = read_json(out)["result"]
        payload = json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
    else:
        with open(out, "rb") as fh:
            payload = b"".join(fh.readlines()[2:])
    assert hashlib.sha256(payload).hexdigest() == digest


def test_covers_draws_each_stream_once(tmp_path, monkeypatch):
    # the moment test and the bridge read one batch: rank * samples
    # permutation streams plus the bootstrap stream
    import specvar.covers

    calls = []
    real = specvar.covers.stream

    def counting(*key):
        calls.append(key)
        return real(*key)

    monkeypatch.setattr(specvar.covers, "stream", counting)
    assert main(["covers", "--n", "20", "--samples", "300", "--L", "5",
                 "--lambda", "1e3", "--seed", "3",
                 "--out", str(tmp_path / "c.json")]) == EXIT_OK
    assert len(calls) == len(set(calls)) == 2 * 300 + 1


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-3"), ("--kmax", "0")])
def test_covers_refuses_bad_sizes(tmp_path, capsys, flag, value):
    out = tmp_path / "c.json"
    args = {"--n": "20", "--kmax": "6"}
    args[flag] = value
    code = main(["covers", "--n", args["--n"], "--kmax", args["--kmax"],
                 "--samples", "100", "--seed", "1", "--out", str(out)])
    assert code == EXIT_INVALID
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_covers_refuses_cocompact_preset(tmp_path, capsys):
    # the moment test samples the free model, as the bridge does
    out = tmp_path / "c.json"
    code = main(["covers", "--preset", "octagon_genus2", "--n", "5",
                 "--samples", "100", "--seed", "1", "--out", str(out)])
    assert code == EXIT_INVALID
    assert "free presets" in capsys.readouterr().err
    assert not out.exists()


def test_covers_seed_changes_output(tmp_path):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    main(["covers", "--preset", "schottky_pants", "--n", "20",
          "--samples", "500", "--seed", "1", "--out", out1])
    main(["covers", "--preset", "schottky_pants", "--n", "20",
          "--samples", "500", "--seed", "2", "--out", out2])
    a = read_json(out1)["result"]["moments"]["fMean"]
    b = read_json(out2)["result"]["moments"]["fMean"]
    assert a != b


# ---------------------------------------------------------------------------
# config files and validation


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=20\nsamples=500\nseed=99\npreset=schottky_pants\n")
    out = str(tmp_path / "c.json")
    code = main(["covers", "--config", str(cfg), "--seed", "7", "--out", out])
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["config"]["seed"] == 7
    assert doc["config"]["n"] == 20


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["covers", "--config", str(cfg), "--n", "20", "--samples", "500",
              "--seed", "1"])
    assert exc.value.code == EXIT_INVALID


def test_config_file_missing(tmp_path):
    code = main(["covers", "--config", str(tmp_path / "no.cfg"), "--n", "20",
                 "--samples", "500", "--seed", "1"])
    assert code == EXIT_INVALID


def test_validation_exit_codes(tmp_path, pants_csv):
    # unknown preset
    assert main(["spectrum", "--preset", "dodecahedron", "--Lmax", "4",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_INVALID
    # cutoff beyond the certificate
    assert main(["variance", "--spectrum-file", pants_csv, "--lambda", "1e4",
                 "--L", "9", "--out", str(tmp_path / "y.csv")]) == EXIT_INVALID
    # variance threshold refusal surfaces as validation, not a traceback
    assert main(["poisson", "--spectrum-file", pants_csv, "--lambda", "1e4",
                 "--L", "5", "--draws", "100",
                 "--out", str(tmp_path / "z.json")]) == EXIT_INVALID


def test_bad_flux_list():
    with pytest.raises(SystemExit) as exc:
        main(["average", "--lambda", "1e4", "--L", "3", "--flux", "1,zap"])
    assert exc.value.code == EXIT_INVALID


ORBIT_CLT = ["orbit-clt", "--T", "4", "--draws", "1000"]
TRANSITION = ["transition", "--L", "5", "--lambda", "1e4", "--no-average"]


@pytest.mark.parametrize(
    "cmd",
    [["sumrule", "--L", "5"], ["average", "--L", "5", "--lambda", "1e4"], ORBIT_CLT, TRANSITION],
)
def test_flux_of_wrong_rank_is_invalid(tmp_path, pants_csv, capsys, cmd):
    code = main(cmd + ["--spectrum-file", pants_csv, "--flux", "1,0,0", "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID
    assert "flux has 3 entries for rank 2" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [ORBIT_CLT, TRANSITION])
def test_short_flux_is_invalid_not_padded(tmp_path, pants_csv, capsys, cmd):
    code = main(cmd + ["--spectrum-file", pants_csv, "--flux", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID
    assert "flux has 1 entries for rank 2" in capsys.readouterr().err
    # without --flux both default to 1, 0, ..., 0 at the spectrum's rank
    assert main(cmd + ["--spectrum-file", pants_csv, "--out", str(tmp_path / "out")]) == EXIT_OK


IDENTITY2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
MATRIX_CHARACTER = json.dumps({"images": [IDENTITY2, IDENTITY2]})


@pytest.mark.parametrize(
    "cmd",
    [
        ["average", "--L", "5", "--lambda", "5000"],
        ["ergodicity", "--L", "5", "--lambda", "5000", "--Lambda", "100", "--draws", "10"],
    ],
)
def test_matrix_character_without_target_is_invalid(tmp_path, pants_csv, capsys, cmd):
    out = str(tmp_path / "out.json")
    code = main(cmd + ["--spectrum-file", pants_csv, "--character", MATRIX_CHARACTER, "--out", out])
    assert code == EXIT_INVALID
    assert "no GOE/GUE target is defined for matrix twists" in capsys.readouterr().err


def test_matrix_character_variance_and_explicit_target(tmp_path, pants_csv):
    common = ["--spectrum-file", pants_csv, "--lambda", "5000", "--L", "5",
              "--character", MATRIX_CHARACTER]
    assert main(["variance", *common, "--out", str(tmp_path / "v.csv")]) == EXIT_OK
    out = str(tmp_path / "a.json")
    assert main(["average", *common, "--target", "goe", "--out", out]) == EXIT_OK
    assert read_json(out)["result"]["target"] == read_json(out)["result"]["sigma2Goe"]


def test_thread_budget_flag(tmp_path, pants_csv):
    code = main(["variance", "--spectrum-file", pants_csv, "--lambda", "5000",
                 "--L", "5", "--delta", "0.5", "--threads", "2",
                 "--out", str(tmp_path / "v.csv")])
    assert code == EXIT_OK
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert main(["variance", "--threads", "0", "--spectrum-file", pants_csv,
                 "--lambda", "5000", "--L", "5",
                 "--out", str(tmp_path / "w.csv")]) == EXIT_INVALID


def test_character_json_inline(tmp_path, pants_csv):
    out = str(tmp_path / "v.json")
    code = main(
        ["average", "--spectrum-file", pants_csv, "--lambda", "5000",
         "--L", "5", "--character", '{"flux": [0.8, 0.4], "scale": 1.0}',
         "--out", out]
    )
    assert code == EXIT_OK
    assert read_json(out)["config"]["character"].startswith("{")


def test_character_bad_json(pants_csv):
    code = main(
        ["average", "--spectrum-file", pants_csv, "--lambda", "5000",
         "--L", "5", "--character", "{broken"]
    )
    assert code == EXIT_INVALID


@pytest.mark.parametrize(
    "spec",
    ['{"flux": 1}', '{"images": 5}', '{"flux": [1,0,0,0], "scale": null}'],
)
def test_character_malformed_json_is_invalid(pants_csv, spec):
    code = main(
        ["average", "--spectrum-file", pants_csv, "--lambda", "5000",
         "--L", "5", "--character", spec]
    )
    assert code == EXIT_INVALID


# ---------------------------------------------------------------------------
# spectrum CSV load checks


def _rewrite(src, dst, rows=None, comments=None):
    """Copy a spectrum CSV through edits of its cells and comment lines.

    ``rows`` maps a data row index to {column: new cell}; ``comments``
    maps old comment text to new.  Lines keep their endings.
    """
    with open(src, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    header = lines[3].rstrip("\r\n").split(",")
    for i, edits in (rows or {}).items():
        cells = lines[4 + i].rstrip("\r\n").split(",")
        for column, value in edits.items():
            cells[header.index(column)] = value
        lines[4 + i] = ",".join(cells) + "\r\n"
    for old, new in (comments or {}).items():
        lines[:3] = [line.replace(old, new) for line in lines[:3]]
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    return dst


def _average(spectrum_file, out):
    return main(["average", "--spectrum-file", spectrum_file, "--L", "5",
                 "--lambda", "5000", "--out", out])


def _shifted_pair(cell, log_det):
    # rows 14/15 (aab, AAB) with ell, ell_sharp and log_detIminusP moved
    # together, so only the trace can tell
    ell = float(cell)
    edits = {"ell": repr(ell), "ell_sharp": repr(ell), "log_detIminusP": repr(log_det(ell))}
    return {14: edits, 15: edits}


@pytest.mark.parametrize(
    "rows, comments, fault",
    [
        ({0: {"word": "c"}}, None, "row 0: word uses a letter outside rank 2"),
        ({0: {"ell": "1.8"}}, None, "row 0: inverse row 1 differs"),
        ({0: {"ell": "999"}, 1: {"ell": "999"}}, None, "row 0: ell is not k * ell_sharp"),
        ({0: {"word": "ab"}, 4: {"word": "a"}}, None, "row 0: homology is not the word's exponent sums"),
        ({6: {"k": "3"}, 7: {"k": "3"}}, None, "row 6: ell is not k * ell_sharp"),
        ({0: {"inverseId": "2"}}, None, "row 0: inverseId 2 is not an involution"),
        ({5: {"classId": "6"}}, None, "row 5: classId 6 is not the row index"),
        ({12: {"word": "Ab", "h0": "-1", "h1": "1"}, 13: {"word": "aB", "h0": "1", "h1": "-1"}},
         None, "row 13: rows are not sorted"),
        (_shifted_pair("5.2737", F.log_poincare_det), None, "of the word's trace"),
        (_shifted_pair("5.263750948332726", F.log_poincare_det), None,
         "row 14: ell_sharp is not the length of its own trace or its inverse's"),
        (None, {"certified_l_max=6.0": "certified_l_max=5.5",
                '"certified_l_max": 6.0': '"certified_l_max": 5.5'},
         "certified_l_max 5.5 does not follow from the certificate"),
        (None, {"certified_l_max=6.0": "certified_l_max=6.5",
                '"certified_l_max": 6.0': '"certified_l_max": 6.5'},
         "certified_l_max 6.5 exceeds l_max 6.0"),
        (None, {"oriented=True": "oriented=False"}, "rebuild it with `specvar spectrum`"),
    ],
    ids=["letter", "ell-digit", "ell-pair", "swapped-words", "k", "inverse-id",
         "class-id", "unsorted", "ell-vs-trace", "ell-sharp-bits", "certified-forged",
         "certified-over-l-max", "unoriented"],
)
def test_tampered_spectrum_is_refused(tmp_path, pants_csv, capsys, rows, comments, fault):
    assert _average(pants_csv, str(tmp_path / "ok.json")) == EXIT_OK
    capsys.readouterr()
    bad = _rewrite(pants_csv, str(tmp_path / "bad.csv"), rows, comments)
    assert _average(bad, str(tmp_path / "avg.json")) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"spectrum file {bad}" in err and fault in err, err
    assert not (tmp_path / "avg.json").exists()


def test_format_1_spectrum_asks_for_rebuild(tmp_path, pants_csv, capsys):
    # the format-1 layout: no inverseId column and no certificate line
    with open(pants_csv, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    old = [lines[0], lines[1].replace("format_version=2", "format_version=1")]
    for line in lines[3:]:
        cells = line.split(",")
        old.append(",".join(cells[:1] + cells[2:]))
    path = tmp_path / "v1.csv"
    path.write_text("".join(old), encoding="utf-8", newline="")
    assert _average(str(path), str(tmp_path / "avg.json")) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "format_version 1 is not supported" in err
    assert "rebuild it with `specvar spectrum`" in err
