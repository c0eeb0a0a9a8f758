"""One benchmark process: import the package, then run CLI operations.

Usage: ``python worker.py SPEC_JSON`` where the spec holds ``spawned``
(the parent's ``time.monotonic()`` just before it started this process),
``ops`` (argument lists for ``specvar.cli.main``, run in order),
``trace`` (install the layer tracer first), ``spans`` (where the tracer
writes its spans) and ``result`` (where this process writes its report).
With no ops the process only measures its set-up and exits.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

# Interpreter start and every module the workloads import: the set-up a
# user pays before the first subcommand does any work.
import numpy
import scipy
import specvar.characters
import specvar.cli
import specvar.covers
import specvar.dynamics
import specvar.fuchsian
import specvar.poisson
import specvar.report
import specvar.rng
import specvar.variance
import specvar.words


def _run(argv: list[str]) -> dict:
    start = time.perf_counter()
    error = None
    try:
        code = specvar.cli.main(argv)  # looked up at call time, so a hook sees it
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        error = traceback.format_exc()
    return {"code": code, "error": error, "wall_s": time.perf_counter() - start}


def main() -> None:
    spec = json.loads(sys.argv[1])
    report = {
        "setup_s": time.monotonic() - spec["spawned"],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    report["ops"] = [_run(argv) for argv in spec["ops"]]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report.update(peak_rss_mb=usage.ru_maxrss / 1024.0, user_s=usage.ru_utime, sys_s=usage.ru_stime)
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spec["spans"])
        report["layers"] = tracer.metrics()
        report["missing_hooks"] = tracer.missing
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
