"""Record the reference outputs the benchmark checks against.

Usage, from the repository root: ``python3 bench/record_reference.py``.

Writes ``reference/octagon_L9.5.csv.gz`` (the spectrum every workload's
octagon input must match) and ``reference/outputs.json``: the flattened
result of every other operation at the reference seed, plus the leaves
that do not depend on the seed.  A leaf counts as seed-free when it reads
the same at every seed in ``SEEDS``; flags never do, since a seeded check
can pass at a few seeds by chance.  Re-record only when the program's
outputs are meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import time

from check import REFERENCE_DIR, REFERENCE_OUTPUTS, REFERENCE_SPECTRUM, read_artifact
from run import WORK, Runner
from workloads import INPUT_SPECTRUM, REFERENCE_SEED, WORKLOADS

SEEDS = (REFERENCE_SEED, 1, 2, 3)


def main() -> None:
    out = os.path.join(WORK, "record")
    for folder in (out, os.path.join(WORK, "proc"), REFERENCE_DIR):
        os.makedirs(folder, exist_ok=True)
    runner = Runner("record", REFERENCE_SEED, time.monotonic() + 3600.0)
    csv_path = os.path.join(out, "octagon_L9.5.csv")
    runner.spawn([list(INPUT_SPECTRUM) + ["--out", csv_path]])
    with open(csv_path, "rb") as src, gzip.GzipFile(REFERENCE_SPECTRUM, "wb", mtime=0) as dst:
        shutil.copyfileobj(src, dst)

    ops = [op for name in ("analysis", "montecarlo") for op in WORKLOADS[name]]
    flat = {op.name: [] for op in ops}
    for seed in SEEDS:
        commands = [op.command(out, seed, csv_path) for op in ops]
        report = runner.spawn(commands)
        for op, result in zip(ops, report["ops"]):
            if result["code"] != 0 or result["error"]:
                raise RuntimeError(f"{op.name} failed at seed {seed}: {result}")
            flat[op.name].append(read_artifact(os.path.join(out, op.out_name), op.artifact))

    reference = {"seed": REFERENCE_SEED, "ops": {}}
    for op in ops:
        first, *others = flat[op.name]
        seed_free = [
            key
            for key, value in first.items()
            if not isinstance(value, bool) and all(o.get(key) == value for o in others)
        ]
        reference["ops"][op.name] = {"artifact": op.artifact, "values": first, "seed_free": seed_free}
        print(f"{op.name:14s} {len(first):6d} leaves, {len(seed_free):6d} seed-free")
    with open(REFERENCE_OUTPUTS, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
