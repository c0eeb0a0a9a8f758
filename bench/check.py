"""Output checks against the reference outputs in ``reference/``.

Spectrum CSVs are compared by content: ``word``, ``k`` and the homology
columns exactly, ``ell``, ``ell_sharp`` and ``log_detIminusP`` to 1e-12
relative; columns the reference lacks are ignored.  JSON artifacts are
compared on their ``result`` leaves and CSV reports on their header and
cells, numbers to 1e-9 relative (1e-12 absolute near zero), everything
else exactly.  A run at a seed other than the reference seed compares
only the leaves that the reference recording found equal across seeds.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REFERENCE_SPECTRUM = os.path.join(REFERENCE_DIR, "octagon_L9.5.csv.gz")
REFERENCE_OUTPUTS = os.path.join(REFERENCE_DIR, "outputs.json")

SPECTRUM_EXACT = ("word", "k")
SPECTRUM_FLOAT = ("ell", "ell_sharp", "log_detIminusP")
SPECTRUM_RTOL = 1e-12
ARTIFACT_RTOL = 1e-9
ARTIFACT_ATOL = 1e-12
MAX_REPORTED = 5


def _data_lines(lines) -> list[list[str]]:
    return list(csv.reader(line for line in lines if not line.startswith("#")))


def read_table(path: str) -> list[list[str]]:
    """Header and rows of a CSV file (``.gz`` allowed), comments skipped."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8", newline="") as fh:
        return _data_lines(fh)


def compare_spectrum(path: str, ref_path: str = REFERENCE_SPECTRUM) -> list[str]:
    got, ref = read_table(path), read_table(ref_path)
    if not got:
        return [f"{path}: empty"]
    if len(got) != len(ref):
        return [f"{len(got) - 1} records, reference has {len(ref) - 1}"]
    exact = list(SPECTRUM_EXACT) + [c for c in ref[0] if c.startswith("h")]
    missing = [c for c in exact + list(SPECTRUM_FLOAT) if c not in got[0]]
    if missing:
        return [f"missing columns {missing}"]
    gi = {c: got[0].index(c) for c in exact + list(SPECTRUM_FLOAT)}
    ri = {c: ref[0].index(c) for c in gi}
    problems = []
    for row, (g, r) in enumerate(zip(got[1:], ref[1:])):
        for c in exact:
            if g[gi[c]] != r[ri[c]]:
                problems.append(f"row {row} {c}: {g[gi[c]]} != {r[ri[c]]}")
        for c in SPECTRUM_FLOAT:
            a, b = float(g[gi[c]]), float(r[ri[c]])
            if not math.isclose(a, b, rel_tol=SPECTRUM_RTOL):
                problems.append(f"row {row} {c}: {a!r} != {b!r}")
        if len(problems) >= MAX_REPORTED:
            break
    return problems


def _cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _flatten(value, prefix: str, out: dict) -> dict:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}/{key}" if prefix else str(key), out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}/{i}" if prefix else str(i), out)
    else:
        out[prefix] = value
    return out


def read_artifact(path: str, artifact: str) -> dict:
    """Flat ``{leaf path: value}`` view of a JSON result or a CSV report."""
    if artifact == "json":
        with open(path, encoding="utf-8") as fh:
            return _flatten(json.load(fh)["result"], "", {})
    header, *rows = read_table(path)
    flat = {f"header/{i}": name for i, name in enumerate(header)}
    for r, row in enumerate(rows):
        for name, text in zip(header, row):
            flat[f"{r}/{name}"] = _cell(text)
    return flat


def same_value(a, b) -> bool:
    numbers = (int, float)
    if isinstance(a, bool) or isinstance(b, bool) or not (isinstance(a, numbers) and isinstance(b, numbers)):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=ARTIFACT_RTOL, abs_tol=ARTIFACT_ATOL)


def compare_artifact(got: dict, ref: dict, keys) -> list[str]:
    problems = []
    for key in keys:
        if key not in got:
            problems.append(f"{key}: missing")
        elif not same_value(got[key], ref[key]):
            problems.append(f"{key}: {got[key]!r} != {ref[key]!r}")
        if len(problems) >= MAX_REPORTED:
            break
    return problems


def load_reference() -> dict:
    with open(REFERENCE_OUTPUTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(op, path: str, seed: int, reference: dict) -> list[str]:
    """Mismatches between one operation's output and its reference."""
    if not os.path.exists(path):
        return [f"{path}: not written"]
    if op.artifact == "spectrum":
        return compare_spectrum(path)
    ref = reference["ops"][op.name]
    keys = ref["values"] if seed == reference["seed"] else ref["seed_free"]
    return compare_artifact(read_artifact(path, op.artifact), ref["values"], keys)
