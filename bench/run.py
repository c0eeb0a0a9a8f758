"""Run one benchmark workload and print its metrics as the last stdout line.

Usage, from the repository root:

    python3 bench/run.py --workload analysis --seed 0 --seconds 36 --trace 0

Each pass starts one fresh worker process (``worker.py``) that imports
the package and runs the workload's subcommands one after another through
``specvar.cli.main``: a closed loop with one client.  Passes repeat while
another one still fits in ``--seconds``; there is always at least one.
Each pass also measures set-up: the time from spawning the process until
its imports are done.  ``wall_s`` is the mean pass time over the run (the
inverse of the pass rate); set-up and memory are medians over the passes.
Every output is checked against ``reference/`` (see ``check.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same untraced passes, then one traced pass, and reports the per-layer
metrics, including the tracing overhead.  Logs, outputs, spans and a result file
with the machine description go to ``bench/_work/``; a summary goes to
stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
WORKER = os.path.join(BENCH, "worker.py")

sys.path.insert(0, BENCH)
from check import check_output, compare_spectrum, load_reference  # noqa: E402
from tracer import per_layer_units  # noqa: E402
from workloads import INPUT_SPECTRUM, WORKLOADS  # noqa: E402

# The end-to-end metrics and their units.  success_rate is 1 - error_rate
# (failed / attempted operations): a metric that reads 0 has no ratio.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
DEADLINE_S = 175.0  # the whole run, so a hung worker cannot keep it alive
THREAD_VARS = ("SPECVAR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0", **dict.fromkeys(THREAD_VARS, "1"))
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        self.spawned = 0

    def spawn(self, ops: list[list[str]], trace: bool = False) -> dict:
        """Run one worker process to completion and return its report."""
        self.spawned += 1
        tag = os.path.join(WORK, "proc", f"{self.workload}-{self.spawned}")
        spec = {"ops": ops, "trace": trace, "spans": tag + ".spans.jsonl", "result": tag + ".json"}
        with open(tag + ".log", "w", encoding="utf-8") as log:
            spec["spawned"] = time.monotonic()
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps(spec)],
                cwd=ROOT,
                env=self.env,
                stdout=log,
                stderr=subprocess.STDOUT,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        if proc.returncode != 0:
            with open(tag + ".log", encoding="utf-8") as log:
                sys.stderr.write(log.read()[-4000:])
            raise RuntimeError(f"worker exited with code {proc.returncode}; log in {tag}.log")
        with open(spec["result"], encoding="utf-8") as fh:
            return json.load(fh)

    def input_spectrum(self) -> tuple[str, list[str]]:
        """The analysis input, built once per source tree by the code under test."""
        path = os.path.join(WORK, "inputs", f"octagon_L9.5-{source_digest()[:16]}.csv")
        if os.path.exists(path):
            return path, compare_spectrum(path)
        tmp = path + ".new"
        self.spawn([list(INPUT_SPECTRUM) + ["--out", tmp]])
        problems = compare_spectrum(tmp)
        if problems:
            return tmp, problems
        os.replace(tmp, path)
        return path, []

    def run_pass(self, ops, out_dir: str, spectrum_file, reference, trace: bool = False) -> dict:
        commands = [op.command(out_dir, self.seed, spectrum_file) for op in ops]
        report = self.spawn(commands, trace=trace)
        for op, result in zip(ops, report["ops"]):
            problems = [] if result["error"] is None else [result["error"].strip().splitlines()[-1]]
            if result["code"] != 0:
                problems.append(f"exit code {result['code']}")
            if not problems:
                problems = check_output(op, os.path.join(out_dir, op.out_name), self.seed, reference)
            result.update(name=op.name, problems=problems)
        report["wall_s"] = sum(r["wall_s"] for r in report["ops"])
        return report


def source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def machine(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        **versions,
        "git_sha": sha,
        "source_sha256": source_digest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "specvar", "cli.py")):
        print(f"error: no specvar sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, started + DEADLINE_S)
    ops = WORKLOADS[args.workload]
    out_dir = os.path.join(WORK, "out", args.workload)
    for folder in (os.path.join(WORK, "proc"), os.path.join(WORK, "inputs"), os.path.join(WORK, "results"), out_dir):
        os.makedirs(folder, exist_ok=True)
    reference = load_reference()

    spectrum_file, input_problems = None, []
    if any(op.reads_spectrum for op in ops):
        spectrum_file, input_problems = runner.input_spectrum()  # untimed input generation

    measuring = time.monotonic()
    passes = []
    while not passes or time.monotonic() - measuring + passes[-1]["setup_s"] + passes[-1]["wall_s"] <= args.seconds:
        passes.append(runner.run_pass(ops, out_dir, spectrum_file, reference))
    setups = [p["setup_s"] for p in passes]
    # The mean, not the median: the host's speed switches between two levels
    # for seconds at a time, and a median over a few passes jumps between them.
    wall_s = statistics.fmean(p["wall_s"] for p in passes)
    if args.trace:
        passes.append(runner.run_pass(ops, out_dir, spectrum_file, reference, trace=True))

    results = [r for p in passes for r in p["ops"]]
    failed = sum(1 for r in results if r["problems"])
    if args.trace:
        traced = passes[-1]
        values = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - wall_s})
        units = {name: unit for name, (unit, _) in per_layer_units().items()}
        if traced["missing_hooks"]:
            print(f"missing hooks: {', '.join(traced['missing_hooks'])}", file=sys.stderr)
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "success_rate": 1.0 - failed / len(results),
        }
        units = END_TO_END
    summary = {
        "correct": failed == 0 and not input_problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(passes[0]["versions"]),
        "input_problems": input_problems,
        "setup_samples_s": setups,
        "error_rate": failed / len(results),
        "passes": passes,
        "summary": summary,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in input_problems:
        print(f"input spectrum: {problem}", file=sys.stderr)
    for r in results:
        status = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])
        print(f"{r['name']:14s} {r['wall_s']:8.3f} s  {status}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
