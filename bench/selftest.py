"""Self-tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/selftest.py -q``.
The file name keeps these tests out of the package's own test run.  The
traced-run tests use a small octagon/pants configuration, not a workload,
so the whole file takes a few seconds.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import check  # noqa: E402
import run  # noqa: E402
from tracer import HOOKS, Tracer, per_layer_units  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_follow_the_grammar_and_carry_units():
    spec = _benchmark_json()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def _perturbed_spectrum(tmp_path, factor: float) -> str:
    with gzip.open(check.REFERENCE_SPECTRUM, "rt", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    row = header + 1000
    cells = lines[row].rstrip("\n").split(",")
    col = lines[header].rstrip("\n").split(",").index("ell")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells) + "\n"
    path = tmp_path / "spectrum.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def test_spectrum_check_rejects_one_perturbed_length(tmp_path):
    assert check.compare_spectrum(_perturbed_spectrum(tmp_path, 1.0)) == []
    problems = check.compare_spectrum(_perturbed_spectrum(tmp_path, 1.0 + 1e-10))
    assert len(problems) == 1 and "ell" in problems[0]


def _haar_artifact(tmp_path, field: str | None) -> str:
    result = dict(check.load_reference()["ops"]["haar"]["values"])
    if field is not None:
        result[field] *= 1.0 + 1e-6
    path = tmp_path / "haar.json"
    path.write_text(json.dumps({"result": result}), encoding="utf-8")
    return str(path)


def test_artifact_check_rejects_one_perturbed_result_field(tmp_path):
    reference = check.load_reference()
    (op,) = [op for op in WORKLOADS["montecarlo"] if op.name == "haar"]
    assert check.check_output(op, _haar_artifact(tmp_path, None), REFERENCE_SEED, reference) == []
    # "target" does not depend on the seed, so every seed checks it
    for seed in (REFERENCE_SEED, REFERENCE_SEED + 7):
        problems = check.check_output(op, _haar_artifact(tmp_path, "target"), seed, reference)
        assert len(problems) == 1 and problems[0].startswith("target")


def test_a_perturbed_output_counts_as_a_failed_operation(tmp_path, monkeypatch):
    (op,) = [op for op in WORKLOADS["montecarlo"] if op.name == "haar"]
    runner = run.Runner("montecarlo", REFERENCE_SEED, time.monotonic() + 60)

    def fake_spawn(commands, trace=False):
        with open(_haar_artifact(tmp_path, "estimate"), encoding="utf-8") as fh:
            (tmp_path / op.out_name).write_text(fh.read(), encoding="utf-8")
        return {"ops": [{"code": 0, "error": None, "wall_s": 1.0}]}

    monkeypatch.setattr(runner, "spawn", fake_spawn)
    report = runner.run_pass([op], str(tmp_path), None, check.load_reference())
    assert report["ops"][0]["problems"]


SMALL_OPS = [
    ["spectrum", "--preset", "octagon_genus2", "--Lmax", "7", "--out", "{dir}/oct7.csv"],
    ["poisson", "--spectrum-file", "{dir}/oct7.csv", "--L", "7", "--lambda", "1e3",
     "--draws", "2000", "--out", "{dir}/poisson.json"],
    ["covers", "--n", "20", "--samples", "300", "--L", "5", "--lambda", "1e3", "--seed", "3",
     "--out", "{dir}/covers.json"],
]


@pytest.fixture(scope="module")
def traced_reports(tmp_path_factory):
    runner = run.Runner("selftest", 0, time.monotonic() + 170)
    os.makedirs(os.path.join(run.WORK, "proc"), exist_ok=True)
    reports = []
    for attempt in range(2):
        out = tmp_path_factory.mktemp(f"traced{attempt}")
        ops = [[arg.format(dir=out) for arg in argv] for argv in SMALL_OPS]
        report = runner.spawn(ops, trace=True)
        report["spans_path"] = os.path.join(run.WORK, "proc", f"selftest-{runner.spawned}.spans.jsonl")
        reports.append(report)
    return reports


def test_traced_run_reports_every_layer(traced_reports):
    report = traced_reports[0]
    assert all(r["code"] == 0 for r in report["ops"]), report["ops"]
    assert report["missing_hooks"] == []
    assert set(report["layers"]) | {"trace.overhead_s"} == set(per_layer_units())
    for name in ("fuchsian.build_spectrum", "words.canonical_class", "rng.stream", "poisson.sample"):
        assert report["layers"][f"{name}.calls"] > 0


def test_self_times_are_nonnegative_and_within_wall_time(traced_reports):
    for report in traced_reports:
        self_times = [v for k, v in report["layers"].items() if k.endswith(".self_s")]
        assert min(self_times) >= 0.0
        assert sum(self_times) <= sum(r["wall_s"] for r in report["ops"])


def test_spans_nest_under_their_parents(traced_reports):
    with open(traced_reports[0]["spans_path"], encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    by_id = {s[0]: s for s in spans}
    assert {s[2] for s in spans} <= {h[0] for h in HOOKS}
    for span_id, parent, _, start, end in spans:
        assert start <= end
        if parent >= 0:
            assert by_id[parent][3] <= start and end <= by_id[parent][4]
        else:
            assert by_id[span_id][2] == "cli.main"


def test_exact_counters_repeat_across_traced_runs(traced_reports):
    first, second = (r["layers"] for r in traced_reports)
    for name in ("fuchsian.rows_visited", "words.canonical_class.calls", "rng.stream.calls"):
        assert first[name] == second[name] > 0


def test_a_missing_hook_reads_as_missing_not_zero(monkeypatch):
    import specvar.cli  # noqa: F401  (every hooked module imported, as in the worker)
    import specvar.covers  # noqa: F401
    import specvar.dynamics  # noqa: F401
    import specvar.poisson  # noqa: F401
    import specvar.variance

    monkeypatch.delattr(specvar.variance, "sigma2_limit")
    tracer = Tracer()
    tracer.install()
    try:
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert tracer.missing == ["variance.sigma2_limit"]
    assert metrics["variance.sigma2_limit.calls"] is None
    assert metrics["variance.sigma2_limit.self_s"] is None
    assert metrics["variance.coeff_A.calls"] == 0
