"""CLI contracts: dispatch, artifacts, exit codes, determinism, config."""

import hashlib
import json
import math
import os
import pathlib
import re
import warnings

import numpy as np
import pytest

import oracles
import specvar.fuchsian as F
from specvar.cli import _THREAD_VARS, EXIT_CHECK_FAILED, EXIT_INVALID, EXIT_OK, build_parser, main
from specvar.covers import _batch_images, count_covers, empirical_cover_variance, moment_experiment
from specvar.dynamics import empirical_transition, orbit_clt_experiment, sum_rule_check
from specvar.poisson import PoissonSurrogate, clt_test, ergodicity_experiment, exact_cumulants
from specvar.report import FORMAT_VERSION
from specvar.variance import SigmaEvaluator
from specvar.windows import window

SCHEMAS = pathlib.Path(__file__).resolve().parents[1] / "docs" / "artifact-schemas.md"


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


def _documented_keys(anchor, head="| key"):
    """Keys of the first table under ``anchor`` in the artifact schemas, in order.

    ``head`` is the table's first header cell: ``| key`` for JSON
    results, ``| column`` for CSV tables.
    """
    after = SCHEMAS.read_text(encoding="utf-8").split(anchor, 1)[1]
    table = next(chunk for chunk in after.split("\n\n") if chunk.startswith(head))
    first_cells = [line.split("|")[1] for line in table.splitlines()[2:]]
    return [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]


def test_experiments_return_their_documented_artifact(octagon12):
    # the Monte Carlo experiments return the JSON mapping the CLI writes
    spectrum = F.build_spectrum(F.preset("schottky_pants", 1.9, 2.1, 2.4), 9.0)
    tri = window("triangle")
    ev = SigmaEvaluator(spectrum, None, tri, 6.0)
    words = spectrum.words()
    rows = [words.index((1,)), words.index((1, -2))]
    counts = count_covers(_batch_images(2, 20, 50, seed=3), spectrum, rows, 4, ev)
    sur = PoissonSurrogate(spectrum, None, tri, lam=1e4, L=8.0, seed=3)
    results = {
        "`result.moments`": moment_experiment(rows, counts, 20, 50, kmax=4),
        "`result.bridge`": empirical_cover_variance(ev, 1e4, counts, 3),
        "`result.cumulants`": exact_cumulants(sur),
        "`result.clt`": clt_test(sur, 100),
        "## `ergodicity` JSON result": ergodicity_experiment(sur, 25.0, 20, eps=50.0),
    }
    for anchor, result in results.items():
        assert type(result) is dict, anchor
        assert json.loads(json.dumps(result)) == result, anchor
        assert set(result) == set(_documented_keys(anchor)), anchor

    # the dynamics experiments return the row the CLI writes to its CSV
    # (the transition table as one list per column), columns in order;
    # every cell a plain int or float, since numpy scalars print differently
    flux = (1.0, 0.0, 0.0, 0.0)
    rows = {
        "## `sumrule` CSV": sum_rule_check(octagon12, tri, 8.0),
        "## `orbit-clt` CSV": orbit_clt_experiment(octagon12, flux, 8.5, 200, seed=5),
        "## `transition` CSV": empirical_transition(
            octagon12, flux, [0.0, 1.0], 1e4, 8.0, 2.0, tri, variance=0.17, with_average=False
        ),
    }
    for anchor, row in rows.items():
        assert type(row) is dict, anchor
        assert list(row) == _documented_keys(anchor, "| column"), anchor
        cells = [c for v in row.values() for c in (v if type(v) is list else [v])]
        assert {type(c) for c in cells} <= {int, float}, anchor


def test_spectrum_smoke(tmp_path):
    out = str(tmp_path / "spec.csv")
    code = main(
        ["spectrum", "--preset", "schottky_pants", "--params", "1.9,2.1,2.4",
         "--Lmax", "5", "--out", out]
    )
    assert code == EXIT_OK
    loaded = F.load_spectrum(out)
    assert loaded.certified_l_max == 5.0
    assert len(loaded.length) > 0
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


def test_average_check_writes_json(tmp_path, octagon_csv):
    # --out is the path written, as for every subcommand: no suffix is added
    out = str(tmp_path / "avg")
    code = main(
        ["average", "--spectrum-file", octagon_csv, "--lambda", "1e4",
         "--L", "11", "--delta", "2", "--window", "bump", "--check",
         "--out", out]
    )
    assert code == EXIT_OK
    assert [p.name for p in tmp_path.iterdir()] == ["avg"]
    doc = read_json(out)
    result = doc["result"]
    assert result["passed"] is True
    assert result["gap"] == pytest.approx(abs(result["average"] - result["target"]))
    assert result["target"] == result["sigma2Goe"]


def test_variance_check_is_refused(tmp_path, pants_csv, capsys):
    # the profile checks nothing; the energy-average test is its own row
    out = tmp_path / "v.csv"
    code = main(["variance", "--spectrum-file", pants_csv, "--lambda", "1e4", "--L", "5",
                 "--check", "--out", str(out)])
    assert code == EXIT_INVALID
    assert "average --check" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_no_flag_sets_the_energy_grid():
    # the averaging grid follows from (lambda, delta, L) alone
    parser = build_parser()
    subs = next(a for a in parser._actions if a.dest == "subcommand")
    flags = {name: {opt for a in sub._actions for opt in a.option_strings}
             for name, sub in subs.choices.items()}
    assert not [name for name, opts in flags.items() if "--points" in opts]
    assert not flags["variance"] & {"--target", "--band"}
    assert {"--target", "--band"} <= flags["average"]


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
    # layout moved to flat indices and one shared draw per run, and
    # re-pinned when Sigma^2 began to sum P0 once (bridge sigma2Limit
    # moved by 5.4e-16 relative, the other leaves not at all)
    out = str(tmp_path / "covers.json")
    assert main(["covers", "--n", "50", "--samples", "500", "--L", "6",
                 "--lambda", "1e4", "--seed", "7", "--out", out]) == EXIT_OK
    result = read_json(out)["result"]
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canonical).hexdigest() == (
        "a5e006bdb7b35d6b1a8f0e5dbaccb1510344a8bdd57b54040bf042e6250a1b49"
    )


# digests of the canonical ``result`` JSON, or of the column header and
# data rows of a CSV report, on the octagon Lmax 12 CSV.  poisson, sumrule
# and transition were re-pinned when the integrals and the KS p-value
# moved from SciPy to numpy; their leaves then differed from the old pins'
# by at most 3.3e-15 relative (ksPvalue 9.5e-16, sumrule gap 3.3e-15,
# transition sigma2 7.1e-16), the other leaves not at all.  average,
# average-flux, poisson and transition were re-pinned when Sigma^2 began
# to sum P0 once instead of halving both orientations and energy averages
# took the Simpson weights: average and gap moved by at most 9.6e-16
# relative, poisson sigma2Ref by 1.4e-15 (kappa2RelErr by 6e-16 absolute),
# transition sigma2_emp and sigma2_avg by at most 4.8e-16.  transition was
# re-pinned when sigma2_emp began to read its l^2 psi_hat^2 / |I - P| weights
# from the trivial-character coefficient table: two sigma2_emp leaves moved
# in the last digit (0.34548696690374137 -> 0.3454869669037413 and
# 0.20708704442689171 -> 0.20708704442689174, at most 1.6e-16 relative),
# the other leaves not at all
ANALYSIS_PINS = {
    "average": (
        ["average", "--L", "8", "--window", "bump", "--lambda", "1e4", "--delta", "2"],
        "json",
        "8cf653a1f2cb6df85169845748e6bc9159a4492ffd0387a8e1d14b466f37e8db",
    ),
    "average-flux": (
        ["average", "--L", "8", "--window", "bump", "--lambda", "1e4", "--delta", "2",
         "--flux", "1.5707963267948966,0,0,0"],
        "json",
        "940e1c748107b36d5b1766d3683f5e585648f697916b03206970e5e030eb439b",
    ),
    "poisson": (
        ["poisson", "--L", "8", "--lambda", "1e4", "--draws", "20000", "--seed", "3"],
        "json",
        "8b1f7a399d2f37b88c49f532053eccb8ec4d28b319df8fa5abe19c5e5c80ea8d",
    ),
    "sumrule": (
        ["sumrule", "--L", "8,9,9.5", "--window", "bump"],
        "csv",
        "74814c80cfbe7cc9a84fc63cd8175f3e27ecd777c41c6f351ad2611e4f6a6ff6",
    ),
    "transition": (
        ["transition", "--L", "8", "--lambda", "1e4", "--flux", "1,0,0,0"],
        "csv",
        "1f55a953bfa78e1d8eb6da48cad1dbf342e0da6fe50ea1b716f4a3ea82e721ea",
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
    # permutation streams plus the bootstrap stream, each generator built
    # once whether it comes alone (stream) or from a batch (streams)
    import specvar.covers

    calls = []
    real_one, real_many = specvar.covers.stream, specvar.covers.streams

    def counting_one(seed, *key):
        calls.append((seed, *key))
        return real_one(seed, *key)

    def counting_many(seed, keys):
        for key, g in zip(np.asarray(keys).tolist(), real_many(seed, keys)):
            calls.append((seed, *key))
            yield g

    monkeypatch.setattr(specvar.covers, "stream", counting_one)
    monkeypatch.setattr(specvar.covers, "streams", counting_many)
    assert main(["covers", "--n", "20", "--samples", "300", "--L", "5",
                 "--lambda", "1e3", "--seed", "3",
                 "--out", str(tmp_path / "c.json")]) == EXIT_OK
    assert len(calls) == len(set(calls)) == 2 * 300 + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["poisson", "--L", "8", "--lambda", "1e4", "--draws", "1000", "--seed", "3"],
        ["covers", "--n", "20", "--samples", "300", "--L", "5", "--lambda", "1e3", "--seed", "3"],
    ],
    ids=["poisson", "covers"],
)
def test_one_coefficient_table_per_run(tmp_path, octagon_csv, monkeypatch, argv):
    # the surrogate's pairs, the cover bridge's coefficients and each
    # run's Sigma^2 limit all read the one table of one SigmaEvaluator
    import sys

    import specvar.covers  # noqa: F401  (every consumer imported before patching)
    import specvar.poisson  # noqa: F401
    import specvar.variance

    original, calls = specvar.variance.coefficient_table, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "specvar" and getattr(module, "coefficient_table", None) is original:
            monkeypatch.setattr(module, "coefficient_table", counting)
    source = ["--spectrum-file", octagon_csv] if argv[0] == "poisson" else []
    assert main(argv + source + ["--out", str(tmp_path / "run.json")]) == EXIT_OK
    assert len(calls) == 1


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


def test_covers_moment_classes_do_not_depend_on_the_bridge_cutoff(tmp_path, capsys):
    # the build reaches --moment-lmax even when the bridge cutoff --L is shorter
    common = ["covers", "--n", "20", "--samples", "100", "--seed", "1", "--moment-lmax", "5"]
    counts = []
    for extra in ([], ["--L", "2", "--lambda", "1e4"]):
        assert main(common + extra + ["--out", str(tmp_path / "c.json")]) == EXIT_OK
        counts.append(re.search(r"(\d+) classes", capsys.readouterr().out).group(1))
    assert counts[0] == counts[1]


def test_covers_refuses_a_spectrum_short_of_the_moment_cutoff(tmp_path, pants_csv, capsys):
    out = tmp_path / "c.json"
    code = main(["covers", "--n", "20", "--samples", "100", "--seed", "1", "--moment-lmax", "7",
                 "--L", "2", "--lambda", "1e4", "--spectrum-file", pants_csv, "--out", str(out)])
    assert code == EXIT_INVALID
    assert "spectrum certified to 6" in capsys.readouterr().err
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


def test_poisson_refuses_few_draws_before_any_work(tmp_path, pants_csv, capsys, monkeypatch):
    import specvar.poisson

    def no_surrogate(*args, **kwargs):
        raise AssertionError("built the surrogate before refusing the draws")

    monkeypatch.setattr(specvar.poisson, "PoissonSurrogate", no_surrogate)
    out = tmp_path / "p.json"
    code = main(["poisson", "--spectrum-file", pants_csv, "--lambda", "1e4", "--L", "5",
                 "--draws", "5", "--out", str(out)])
    assert code == EXIT_INVALID
    assert "need at least 8 draws" in capsys.readouterr().err
    assert not out.exists()


def test_bad_flux_list():
    with pytest.raises(SystemExit) as exc:
        main(["average", "--lambda", "1e4", "--L", "3", "--flux", "1,zap"])
    assert exc.value.code == EXIT_INVALID


# ---------------------------------------------------------------------------
# flag drift: the parsed namespace is the ``config`` block of every artifact

_COMMON = {"check": False, "config": None, "threads": None}
_SOURCE = {"allow_incomplete": False, "lmax": None, "params": None,
           "preset": "octagon_genus2", "spectrum_file": None}
_CHARACTER = {"character": None, "flux": None, "flux_scale": 1.0}
_PROFILE = {"L": 5.0, "delta": 2.0, "lam": 1e4, "window": "triangle"}

# subcommand -> (minimal argv, every key of the parsed namespace but the
# handler, with its value)
NAMESPACES = {
    "spectrum": ([], {**_COMMON, **_SOURCE, "out": "spectrum.csv"}),
    "variance": (
        ["--lambda", "1e4", "--L", "5"],
        {**_COMMON, **_SOURCE, **_CHARACTER, **_PROFILE, "out": "variance.csv"},
    ),
    "average": (
        ["--lambda", "1e4", "--L", "5"],
        {**_COMMON, **_SOURCE, **_CHARACTER, **_PROFILE, "band": 0.25, "out": "average.json",
         "target": "auto"},
    ),
    "dirichlet": (
        ["--L", "5"],
        {**_COMMON, **_SOURCE, "L": 5.0, "M": 100.0, "Y": 8.0, "lam_max": 1e9,
         "mode": "plus", "out": "dirichlet.json", "window": "triangle"},
    ),
    "covers": (
        ["--n", "20", "--samples", "100", "--seed", "1"],
        {**_COMMON, **_SOURCE, **_CHARACTER, "L": None, "centering": "batch", "kmax": 6,
         "lam": None, "moment_lmax": 2.5, "n": 20, "out": "covers.json",
         "preset": "schottky_pants", "samples": 100, "seed": 1, "window": "triangle"},
    ),
    "poisson": (
        ["--lambda", "1e4", "--L", "5"],
        {**_COMMON, **_SOURCE, **_CHARACTER, "L": 5.0, "draws": 100000, "lam": 1e4,
         "mmax": 4, "out": "poisson.json", "seed": 0, "window": "triangle"},
    ),
    "ergodicity": (
        ["--lambda", "1e4", "--L", "5", "--Lambda", "100"],
        {**_COMMON, **_SOURCE, **_CHARACTER, "L": 5.0, "draws": 1000, "epsilon": None,
         "lam": 1e4, "out": "ergodicity.json", "seed": 0,
         "span": 100.0, "window": "triangle"},
    ),
    "sumrule": (
        ["--L", "5,6"],
        {**_COMMON, **_SOURCE, **_CHARACTER, "L": (5.0, 6.0), "out": "sumrule.csv",
         "window": "triangle"},
    ),
    "orbit-clt": (
        ["--T", "4"],
        {**_COMMON, **_SOURCE, "T": 4.0, "draws": 100000, "epsilon": 1.0, "flux": None,
         "out": "orbit-clt.csv", "seed": 0},
    ),
    "transition": (
        ["--lambda", "1e4", "--L", "5"],
        {**_COMMON, **_SOURCE, "L": 5.0, "delta": 2.0, "flux": None, "lam": 1e4,
         "no_average": False, "out": "transition.csv",
         "s_grid": (0.0, 0.5, 1.0, 2.0, 4.0), "variance": None, "window": "triangle"},
    ),
    "haar": ([], {**_COMMON, "dim": 5, "group": "su2", "out": "haar.json",
                  "samples": 1000000, "seed": 0}),
}


def test_every_subcommand_keeps_its_namespace():
    parser = build_parser()
    subs = next(a for a in parser._actions if a.dest == "subcommand")
    assert set(subs.choices) == set(NAMESPACES)
    for name, (argv, expected) in NAMESPACES.items():
        parsed = vars(parser.parse_args([name, *argv]))
        assert callable(parsed.pop("func")), name
        assert parsed == {**expected, "subcommand": name}, name
        # equal values of another type would print differently in the config
        assert {k: type(v) for k, v in parsed.items() if v is not None} == {
            k: type(v) for k, v in {**expected, "subcommand": name}.items() if v is not None
        }, name


# argv of each subcommand that reads a spectrum, needing more than the
# pants CSV's certified 6.0
TOO_DEEP = {
    "variance": ["--lambda", "1e4", "--L", "7"],
    "average": ["--lambda", "1e4", "--L", "7"],
    "dirichlet": ["--L", "7"],
    "covers": ["--n", "20", "--samples", "100", "--seed", "1", "--moment-lmax", "7"],
    "poisson": ["--lambda", "1e4", "--L", "7", "--draws", "100"],
    "ergodicity": ["--lambda", "1e4", "--L", "7", "--Lambda", "100", "--draws", "10"],
    "sumrule": ["--L", "5,7"],
    "orbit-clt": ["--T", "5.5", "--draws", "100"],
    "transition": ["--lambda", "1e4", "--L", "7", "--no-average"],
}


@pytest.mark.parametrize("name", list(TOO_DEEP))
def test_short_spectrum_file_is_refused_before_any_write(tmp_path, pants_csv, capsys, name):
    out = tmp_path / "out"
    code = main([name, *TOO_DEEP[name], "--spectrum-file", pants_csv, "--out", str(out)])
    assert code == EXIT_INVALID
    assert "spectrum certified to 6" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["transition", "--L", "5", "--lambda", "1e4", "--s-grid", ""], "--s-grid"),
        (["sumrule", "--L", ""], "--L"),
        (["average", "--L", "5", "--lambda", "0"], "--lambda"),
        (["ergodicity", "--L", "5", "--lambda", "1e4", "--Lambda", "-1"], "--Lambda"),
        (["average", "--L", "5", "--lambda", "1e4", "--delta", "nan"], "--delta"),
        (["transition", "--L", "5", "--lambda", "1e4", "--delta", "nan"], "--delta"),
        (["dirichlet", "--L", "5", "--Y", "nan"], "--Y"),
        (["dirichlet", "--L", "5", "--Y", "1"], "--Y"),
        (["average", "--L", "5", "--lambda", "1e4", "--flux", "1,0", "--flux-scale", "nan"],
         "--flux-scale"),
        (["transition", "--L", "5", "--lambda", "1e4", "--variance", "nan"], "--variance"),
        (["ergodicity", "--L", "5", "--lambda", "1e4", "--Lambda", "100", "--epsilon", "nan"],
         "--epsilon"),
        (["orbit-clt", "--T", "-3"], "--T"),
        (["average", "--L", "5", "--lambda", "1e4", "--band", "nan"], "--band"),
        (["average", "--L", "5", "--lambda", "1e4", "--band", "inf"], "--band"),
        (["covers", "--n", "20", "--samples", "100", "--seed", "1", "--moment-lmax", "nan"],
         "--moment-lmax"),
        (["covers", "--n", "20", "--samples", "100", "--seed", "1", "--moment-lmax", "0"],
         "--moment-lmax"),
        (["dirichlet", "--L", "5", "--lam-max", "nan"], "--lam-max"),
        (["dirichlet", "--L", "5", "--lam-max", "inf"], "--lam-max"),
    ],
    ids=["empty-s-grid", "empty-L-grid", "zero-lambda", "negative-span", "nan-delta",
         "nan-transition-delta", "nan-Y", "unit-Y", "nan-flux-scale", "nan-variance",
         "nan-epsilon", "negative-T", "nan-band", "inf-band", "nan-moment-lmax",
         "zero-moment-lmax", "nan-lam-max", "inf-lam-max"],
)
def test_bad_grid_or_scale_is_refused_at_parse_time(tmp_path, pants_csv, capsys, argv, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--spectrum-file", pants_csv, "--out", str(out)])
    assert exc.value.code == EXIT_INVALID
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_spectrum_refuses_a_cutoff_that_prunes_nothing(tmp_path, capsys, value):
    # a NaN cutoff once wrote an empty spectrum "certified to nan", and an
    # infinite one grew shells until memory ran out
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--Lmax", value, "--out", str(out)])
    assert exc.value.code == EXIT_INVALID
    assert "argument --Lmax: must be a finite positive number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_every_module_refusal_is_typed():
    from specvar import Refused
    from specvar.characters import UndefinedTarget
    from specvar.cli import ConfigError
    from specvar.covers import NotFreePreset
    from specvar.dynamics import EmptyEnsemble
    from specvar.fuchsian import IncompleteEnumeration, InvalidParameters
    from specvar.poisson import VarianceTooSmall
    from specvar.variance import DirichletNotFound, SpectrumTooShort

    for cls in (ConfigError, InvalidParameters, IncompleteEnumeration,
                SpectrumTooShort, DirichletNotFound, UndefinedTarget,
                NotFreePreset, EmptyEnsemble, VarianceTooSmall):
        assert issubclass(cls, Refused), cls


def test_a_bug_propagates_instead_of_exiting_2(tmp_path, monkeypatch):
    # only a typed refusal (or an OSError) is a configuration error
    import specvar.covers

    def broken(*args, **kwargs):
        raise IndexError("a computation bug")

    monkeypatch.setattr(specvar.covers, "moment_experiment", broken)
    out = tmp_path / "c.json"
    with pytest.raises(IndexError, match="a computation bug"):
        main(["covers", "--n", "20", "--samples", "100", "--seed", "1", "--out", str(out)])
    assert not out.exists()


ORBIT_CLT = ["orbit-clt", "--T", "4", "--draws", "1000"]
TRANSITION = ["transition", "--L", "5", "--lambda", "1e4", "--no-average"]


@pytest.mark.parametrize(
    "cmd",
    [
        ["sumrule", "--L", "5"],
        ["average", "--L", "5", "--lambda", "1e4"],
        ORBIT_CLT,
        TRANSITION,
        # below the systole: no primitive enters the sum, the rank still counts
        ["average", "--L", "1", "--lambda", "100", "--target", "goe"],
    ],
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


@pytest.fixture
def thread_env(monkeypatch):
    """Restore the thread variables that main sets for the whole process."""
    for var in ("SPECVAR_THREADS", *_THREAD_VARS):
        monkeypatch.setenv(var, "1")
    return monkeypatch


def test_thread_budget_flag(tmp_path, pants_csv, thread_env):
    code = main(["variance", "--spectrum-file", pants_csv, "--lambda", "5000",
                 "--L", "5", "--delta", "0.5", "--threads", "2",
                 "--out", str(tmp_path / "v.csv")])
    assert code == EXIT_OK
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert main(["variance", "--threads", "0", "--spectrum-file", pants_csv,
                 "--lambda", "5000", "--L", "5",
                 "--out", str(tmp_path / "w.csv")]) == EXIT_INVALID


def test_thread_budget_from_config_file(tmp_path, pants_csv, thread_env):
    # the parsed budget is applied, so a config-file line counts like the
    # flag and beats SPECVAR_THREADS
    thread_env.setenv("SPECVAR_THREADS", "4")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=3\n", encoding="utf-8")
    out = str(tmp_path / "v.csv")
    code = main(["variance", "--config", str(cfg), "--spectrum-file", pants_csv,
                 "--lambda", "5000", "--L", "5", "--delta", "0.5", "--out", out])
    assert code == EXIT_OK
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert read_csv(out)[0]["threads"] == 3


SWAP2 = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
SIGN2 = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]


@pytest.mark.parametrize(
    "images, fault",
    [
        # unitary, but the anticommuting pair maps the genus-2 relator to -I
        ([SWAP2, SIGN2, IDENTITY2, IDENTITY2], "relator image differs from identity"),
        ([IDENTITY2] * 5, "5 generator images for rank 4"),
    ],
)
def test_matrix_character_is_checked_against_the_group(tmp_path, octagon_csv, capsys, images, fault):
    out = tmp_path / "a.json"
    code = main(["average", "--target", "goe", "--spectrum-file", octagon_csv, "--L", "5",
                 "--lambda", "5000", "--character", json.dumps({"images": images}),
                 "--out", str(out)])
    assert code == EXIT_INVALID
    assert fault in capsys.readouterr().err
    assert not out.exists()


def test_sumrule_refuses_matrix_character(tmp_path, pants_csv, capsys):
    out = tmp_path / "s.csv"
    code = main(["sumrule", "--L", "5", "--spectrum-file", pants_csv,
                 "--character", MATRIX_CHARACTER, "--out", str(out)])
    assert code == EXIT_INVALID
    assert "no GOE/GUE target is defined for matrix twists" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_torus_warning_is_shown(tmp_path, capsys, loaded):
    if loaded:
        path = str(tmp_path / "torus.csv")
        torus = F.build_spectrum(F.preset("punctured_torus"), 5.0, allow_incomplete=True)
        F.spectrum_to_csv(torus, path)
        cmd = ["sumrule", "--L", "2", "--spectrum-file", path]
    else:
        cmd = ["spectrum", "--preset", "punctured_torus", "--Lmax", "5", "--allow-incomplete"]
    assert main(cmd + ["--out", str(tmp_path / "out")]) == EXIT_OK
    assert "warning: punctured_torus is not co-compact" in capsys.readouterr().err


def test_torus_spectrum_needs_allow_incomplete(tmp_path, capsys):
    # the cusped torus has no proof of completeness at any Lmax, so a build
    # without --allow-incomplete is refused and writes nothing
    out = tmp_path / "torus.csv"
    assert main(["spectrum", "--preset", "punctured_torus", "--Lmax", "5", "--out", str(out)]) == EXIT_INVALID
    assert "punctured_torus has a cusp" in capsys.readouterr().err
    assert not out.exists()


def test_torus_warning_on_every_in_process_run(tmp_path, capsys):
    # each main call prints the preset warning, and the process's warning
    # hook is back in place after it
    shown = warnings.showwarning
    cmd = ["spectrum", "--preset", "punctured_torus", "--Lmax", "5", "--allow-incomplete"]
    for run in range(2):
        assert main(cmd + ["--out", str(tmp_path / f"torus{run}.csv")]) == EXIT_OK
        assert "warning: punctured_torus is not co-compact" in capsys.readouterr().err
        assert warnings.showwarning is shown


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


TAMPERS = pytest.mark.parametrize(
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
        ({12: {"word": "Ba"}}, None, "row 12: word is not a cyclically reduced least rotation"),
        ({14: {"word": "abA"}}, None, "row 14: word is not a cyclically reduced least rotation"),
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
         "class-id", "unsorted", "rotated-word", "wrap-unreduced", "ell-vs-trace", "ell-sharp-bits", "certified-forged",
         "certified-over-l-max", "unoriented"],
)


@TAMPERS
def test_tampered_spectrum_is_refused(tmp_path, pants_csv, capsys, rows, comments, fault):
    assert _average(pants_csv, str(tmp_path / "ok.json")) == EXIT_OK
    capsys.readouterr()
    bad = _rewrite(pants_csv, str(tmp_path / "bad.csv"), rows, comments)
    assert _average(bad, str(tmp_path / "avg.json")) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"spectrum file {bad}" in err and fault in err, err
    assert not (tmp_path / "avg.json").exists()


def test_partners_of_another_word_length_are_refused(tmp_path, octagon_csv, capsys):
    # bD and bdcDDC share ell bits and homology; with their partners
    # swapped, P0 would hold bD and Bd (one geodesic twice) and drop bdcDDC
    cols, _ = F.spectrum_from_csv(octagon_csv)
    words = F._spelled(cols["codes"][102:106], cols["word_len"][102:106])
    assert words == ["bD", "Bd", "bdcDDC", "BcddCD"]
    edits = {102: {"inverseId": "105"}, 105: {"inverseId": "102"},
             103: {"inverseId": "104"}, 104: {"inverseId": "103"}}
    bad = _rewrite(octagon_csv, str(tmp_path / "swapped.csv"), edits)
    assert _average(bad, str(tmp_path / "avg.json")) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "row 102: inverse row 105 has a word of another length" in err, err
    assert not (tmp_path / "avg.json").exists()


def test_self_inverse_rows_are_refused(tmp_path, octagon_csv, capsys):
    # a zero-homology primitive pair whose own traces both give ell_sharp
    # bit for bit passes every other row check when each row names itself
    # as its inverse, though no class of the group is its own inverse
    rows = oracles.csv_rows(octagon_csv)
    octagon = F.preset("octagon_genus2")

    def traced(row):
        return oracles.length_of(np.trace(oracles.holonomies(octagon, [row["word"]])[0]))

    i, j = next(
        (i, row["inverseId"])
        for i, row in enumerate(rows)
        if i < row["inverseId"]
        and row["k"] == 1
        and not any(row["homology"])
        and traced(row) == traced(rows[row["inverseId"]]) == row["ell_sharp"]
    )
    edits = {i: {"inverseId": str(i)}, j: {"inverseId": str(j)}}
    bad = _rewrite(octagon_csv, str(tmp_path / "self-inverse.csv"), edits)
    assert _average(bad, str(tmp_path / "avg.json")) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"row {i}: inverseId {i} is the row's own classId" in err, err


def _oracle_refusal(path):
    """The refusal of the loader's row-by-row reference, or None."""
    _, meta = F.spectrum_from_csv(path)
    if meta["oriented"] != "True":
        return f"only oriented spectra load; {F._REBUILD}"
    group = F.preset(meta["preset"], *[float(p) for p in meta["params"].split(",") if p])
    try:
        cert = F._checked_certificate(meta, group, float(meta["l_max"]))
    except F.InvalidParameters as exc:
        return str(exc)
    return oracles.row_refusal(group, oracles.csv_rows(path), cert["certified_l_max"])


def _assert_refused_as_the_oracle(path):
    want = _oracle_refusal(path)
    assert want is not None
    with pytest.raises(F.InvalidParameters) as refused:
        F.load_spectrum(path)
    assert str(refused.value) == f"spectrum file {path}: {want}"


@TAMPERS
def test_array_checks_refuse_the_table_as_the_row_oracle(tmp_path, pants_csv, rows, comments, fault):
    _assert_refused_as_the_oracle(_rewrite(pants_csv, str(tmp_path / "bad.csv"), rows, comments))


@pytest.fixture(scope="module")
def octagon95_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("spectra") / "octagon9.5.csv"
    F.spectrum_to_csv(F.build_spectrum(F.preset("octagon_genus2"), 9.5), str(path))
    return str(path)


def _perturbed(column, cell):
    """The cell changed by the least step that still parses."""
    if column == "word":
        return cell[0].swapcase() + cell[1:]  # the first letter inverted
    if column in ("ell", "ell_sharp", "log_detIminusP"):
        return repr(math.nextafter(float(cell), math.inf))
    return str(int(cell) + 1)


@pytest.mark.parametrize(
    "which, at, column",
    [
        (which, at, column)
        for which, rank in (("pants_csv", 2), ("octagon95_csv", 4))
        for at in ("first", "middle", "last")
        for column in F._COLUMNS + [f"h{i}" for i in range(rank)]
    ],
)
def test_array_checks_refuse_each_column_tamper_as_the_row_oracle(
    request, tmp_path, which, at, column
):
    src = request.getfixturevalue(which)
    with open(src, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    i = {"first": 0, "middle": (len(lines) - 4) // 2, "last": len(lines) - 5}[at]
    cell = dict(zip(lines[3].rstrip("\r\n").split(","), lines[4 + i].rstrip("\r\n").split(",")))[column]
    _assert_refused_as_the_oracle(
        _rewrite(src, str(tmp_path / "bad.csv"), {i: {column: _perturbed(column, cell)}})
    )


def test_deleted_pair_is_refused(tmp_path, pants_csv, capsys):
    # rows 12/13 (aB, Ab) deleted and the later ids renumbered: every row
    # check passes, only the certificate's classes per word length differ
    with open(pants_csv, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    kept = []
    for line in lines[4:]:
        cells = line.split(",")
        class_id, inverse_id = int(cells[0]), int(cells[1])
        if class_id in (12, 13):
            continue
        cells[0] = str(class_id - 2 * (class_id > 13))
        cells[1] = str(inverse_id - 2 * (inverse_id > 13))
        kept.append(",".join(cells))
    assert [line.split(",")[2] for line in lines[16:18]] == ["aB", "Ab"]
    bad = tmp_path / "deleted.csv"
    bad.write_text("".join(lines[:4] + kept), encoding="utf-8", newline="")
    assert _average(str(bad), str(tmp_path / "avg.json")) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "rows hold [4, 6, 6, 2] classes per word length" in err, err
    assert "the certificate [4, 8, 6, 2]" in err, err


def test_spectrum_without_class_count_asks_for_rebuild(tmp_path, pants_csv, capsys):
    with open(pants_csv, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    prefix = "# certificate="
    cert = json.loads(lines[2][len(prefix):])
    del cert["shell_classes"]
    lines[2] = prefix + json.dumps(cert, sort_keys=True) + "\n"
    old = tmp_path / "no-count.csv"
    old.write_text("".join(lines), encoding="utf-8", newline="")
    assert _average(str(old), str(tmp_path / "avg.json")) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "certificate lacks shell_classes; rebuild it with `specvar spectrum`" in err, err


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
