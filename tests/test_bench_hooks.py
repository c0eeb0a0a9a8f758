"""The benchmark's tracer still finds every hook in ``specvar``.

``bench/tracer.py`` patches functions by module and name and binds its
counters to argument names, so renaming one of them turns a layer into a
missing metric.  ``bench/selftest.py`` checks this too, but it is not
part of this test suite.
"""

import importlib.util
import inspect
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def test_tracer_finds_every_hook():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    import specvar.cli  # noqa: F401  (every hooked module imported, as in the worker)
    import specvar.covers  # noqa: F401
    import specvar.dynamics  # noqa: F401
    import specvar.poisson  # noqa: F401

    tracer = tracer_module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def test_counters_bind_existing_argument_names():
    from specvar.covers import moment_experiment
    from specvar.fuchsian import spectrum_to_csv
    from specvar.poisson import PoissonSurrogate

    assert {"records", "samples"} <= set(inspect.signature(moment_experiment).parameters)
    assert "draws" in inspect.signature(PoissonSurrogate.sample).parameters
    assert "path" in inspect.signature(spectrum_to_csv).parameters
