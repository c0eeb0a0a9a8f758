"""CLI contracts: dispatch, artifacts, exit codes, determinism, config."""

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


@pytest.mark.parametrize("cmd", [["sumrule", "--L", "5"], ["average", "--L", "5", "--lambda", "1e4"]])
def test_flux_of_wrong_rank_is_invalid(tmp_path, pants_csv, capsys, cmd):
    code = main(cmd + ["--spectrum-file", pants_csv, "--flux", "1,0,0", "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID
    assert "flux has 3 entries for rank 2" in capsys.readouterr().err


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
