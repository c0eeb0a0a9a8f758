"""The benchmark's tracer still finds every hook in ``specvar``, and its
workloads still parse.

``bench/tracer.py`` patches functions by module and name and binds its
counters to argument names and return-value attributes, so renaming one
of them turns a layer into a missing metric or a failed run.  A small
traced CLI run in process checks every binding; ``bench/selftest.py``
checks the same on spawned workers, but it is not part of this test
suite.  ``bench/workloads.py`` holds the command lines the benchmark
runs, so a flag it passes that the CLI no longer declares fails here.
The benchmark's ``covers`` operation also runs here at the reference
seed and is checked against ``bench/reference`` as the benchmark checks
it, so a moved cover count fails before the benchmark runs.
"""

import importlib.util
import inspect
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # registered while it runs: a dataclass looks its module up by name
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _tracer():
    tracer_module = _bench_module("tracer")
    import specvar.cli  # noqa: F401  (every hooked module imported, as in the worker)
    import specvar.covers  # noqa: F401
    import specvar.dynamics  # noqa: F401
    import specvar.poisson  # noqa: F401

    return tracer_module.Tracer()


def test_tracer_finds_every_hook():
    tracer = _tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def test_traced_runs_set_every_metric(tmp_path):
    # the counters that read return values and argument names
    # (certificate and records, n_pairs, records and samples) on a real run
    import specvar.cli as cli

    csv = str(tmp_path / "pants9.csv")
    runs = [
        ["spectrum", "--preset", "schottky_pants", "--params", "1.9,2.1,2.4", "--Lmax", "9",
         "--out", csv],
        ["poisson", "--spectrum-file", csv, "--L", "8", "--lambda", "1e4", "--draws", "1000",
         "--out", str(tmp_path / "poisson.json")],
        ["covers", "--spectrum-file", csv, "--n", "20", "--samples", "50", "--seed", "0",
         "--out", str(tmp_path / "covers.json")],
    ]
    tracer = _tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in runs]  # the traced main, as in the worker
    finally:
        tracer.uninstall()
    assert codes == [cli.EXIT_OK] * 3
    metrics = tracer.metrics()
    assert [name for name, value in metrics.items() if value is None] == []
    for name in ("fuchsian.records", "poisson.pairs", "covers.class_samples_per_s"):
        assert metrics[name] > 0, name


def test_counters_bind_existing_argument_names():
    from specvar.covers import moment_experiment
    from specvar.fuchsian import spectrum_to_csv
    from specvar.poisson import PoissonSurrogate

    assert {"records", "samples"} <= set(inspect.signature(moment_experiment).parameters)
    assert "draws" in inspect.signature(PoissonSurrogate.sample).parameters
    assert "path" in inspect.signature(spectrum_to_csv).parameters


def test_every_workload_operation_parses():
    from specvar.cli import build_parser

    workloads = _bench_module("workloads")
    parser = build_parser()
    for ops in workloads.WORKLOADS.values():
        for op in ops:
            argv = op.command("out", workloads.REFERENCE_SEED, "spectrum.csv")
            assert parser.parse_args(argv).subcommand == op.argv[0], op.name


def test_benchmark_covers_op_matches_its_reference(tmp_path):
    # n = 300, 5,000 samples: the montecarlo workload's covers operation
    from specvar.cli import EXIT_OK, main

    workloads, check = _bench_module("workloads"), _bench_module("check")
    (op,) = [op for op in workloads.WORKLOADS["montecarlo"] if op.name == "covers"]
    assert main(op.command(str(tmp_path), workloads.REFERENCE_SEED)) == EXIT_OK
    path = os.path.join(tmp_path, op.out_name)
    assert check.check_output(op, path, workloads.REFERENCE_SEED, check.load_reference()) == []
