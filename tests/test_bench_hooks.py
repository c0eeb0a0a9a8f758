"""The benchmark's tracer still finds every hook in ``specvar``.

``bench/tracer.py`` patches functions by module and name and binds its
counters to argument names and return-value attributes, so renaming one
of them turns a layer into a missing metric or a failed run.  A small
traced CLI run in process checks every binding; ``bench/selftest.py``
checks the same on spawned workers, but it is not part of this test
suite.
"""

import importlib.util
import inspect
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
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
