"""Layer spans recorded from outside the package.

A :class:`Tracer` wraps the public function at each module boundary of
``specvar``.  A function is patched under every name a ``specvar`` module
binds it to, because a module that did ``from .rng import stream`` looks
up its own global ``stream`` at call time, not ``specvar.rng.stream``.
Methods are patched on their class.

Spans (id, parent id, hook, start, end) stay in memory and are written
out once at the end.  A hook's self time is its span minus its direct
child spans; calls run on one thread, so spans nest strictly and the self
times of all spans add up to the root spans' total.  Counters come from
the arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time


def _rows_and_records(bound, result, counters):
    counters["rows_visited"] += result.certificate.get("rows_visited", 0)
    counters["records_built"] += len(result.records)


def _records_loaded(bound, result, counters):
    counters["records_loaded"] += len(result.records)


def _csv_bytes(bound, result, counters):
    counters["csv_bytes"] += os.path.getsize(bound.arguments["path"])


def _pairs(bound, result, counters):
    counters["pairs"] += bound.arguments["self"].n_pairs


def _pair_draws(bound, result, counters):
    counters["pair_draws"] += bound.arguments["self"].n_pairs * bound.arguments["draws"]


def _class_samples(bound, result, counters):
    counters["class_samples"] += len(bound.arguments["records"]) * bound.arguments["samples"]


# (hook name, module, attribute path, counter update or None)
HOOKS = (
    ("fuchsian.build_spectrum", "specvar.fuchsian", "build_spectrum", _rows_and_records),
    ("fuchsian.spectrum_to_csv", "specvar.fuchsian", "spectrum_to_csv", _csv_bytes),
    ("fuchsian.load_spectrum", "specvar.fuchsian", "load_spectrum", _records_loaded),
    ("fuchsian.unoriented_primitives", "specvar.fuchsian", "unoriented_primitives", None),
    ("words.canonical_class", "specvar.words", "canonical_class", None),
    ("words.primitive_root", "specvar.words", "primitive_root", None),
    ("variance.coefficient_table", "specvar.variance", "coefficient_table", None),
    ("variance.SigmaEvaluator.report", "specvar.variance", "SigmaEvaluator.report", None),
    ("variance.energy_average", "specvar.variance", "energy_average", None),
    ("variance.coeff_A", "specvar.variance", "coeff_A", None),
    ("variance.sigma2_limit", "specvar.variance", "sigma2_limit", None),
    ("poisson.PoissonSurrogate.init", "specvar.poisson", "PoissonSurrogate.__init__", _pairs),
    ("poisson.sample", "specvar.poisson", "PoissonSurrogate.sample", _pair_draws),
    ("poisson.exact_cumulants", "specvar.poisson", "exact_cumulants", None),
    ("poisson.ergodicity_experiment", "specvar.poisson", "ergodicity_experiment", None),
    ("covers.moment_experiment", "specvar.covers", "moment_experiment", _class_samples),
    ("covers.empirical_cover_variance", "specvar.covers", "empirical_cover_variance", None),
    ("rng.stream", "specvar.rng", "stream", None),
    ("characters.haar_sigma_constant", "specvar.characters", "haar_sigma_constant", None),
    ("dynamics.sum_rule_check", "specvar.dynamics", "sum_rule_check", None),
    ("dynamics.empirical_transition", "specvar.dynamics", "empirical_transition", None),
    ("dynamics.orbit_clt_experiment", "specvar.dynamics", "orbit_clt_experiment", None),
    ("dynamics.variance_estimator", "specvar.dynamics", "variance_estimator", None),
    ("cli.main", "specvar.cli", "main", None),
    ("report.json_report", "specvar.report", "json_report", None),
    ("report.csv_report", "specvar.report", "csv_report", None),
)

COUNTERS = (
    "rows_visited", "records_built", "records_loaded", "csv_bytes",
    "pairs", "pair_draws", "class_samples",
)

# Hooks that report only their self time: the CLI's own work between
# the layers it calls.
_SELF_ONLY = {"cli.main"}

# Derived metrics and the hooks they are measured at; they read as
# missing when any of those hooks is.
_DERIVED_FROM = {
    "fuchsian.rows_visited": ("fuchsian.build_spectrum",),
    "fuchsian.records": ("fuchsian.build_spectrum",),
    "fuchsian.records_per_mrow": ("fuchsian.build_spectrum",),
    "fuchsian.csv_bytes": ("fuchsian.spectrum_to_csv",),
    "words.canonical_per_record": (
        "words.canonical_class", "fuchsian.build_spectrum", "fuchsian.load_spectrum",
    ),
    "poisson.pairs": ("poisson.PoissonSurrogate.init",),
    "poisson.pair_draws_per_s": ("poisson.sample",),
    "covers.class_samples_per_s": ("covers.moment_experiment",),
}


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its (unit, better) pair."""
    units: dict[str, tuple[str, str]] = {}
    for name, *_ in HOOKS:
        if name not in _SELF_ONLY:
            units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    units.update(
        {
            "fuchsian.rows_visited": ("count", "lower"),
            "fuchsian.records": ("count", "higher"),
            "fuchsian.records_per_mrow": ("records/Mrow", "higher"),
            "fuchsian.csv_bytes": ("bytes", "lower"),
            "words.canonical_per_record": ("calls/record", "lower"),
            "poisson.pairs": ("count", "lower"),
            "poisson.pair_draws_per_s": ("1/s", "higher"),
            "covers.class_samples_per_s": ("1/s", "higher"),
            "trace.overhead_s": ("s", "lower"),
        }
    )
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.calls = [0] * len(HOOKS)
        self.self_s = [0.0] * len(HOOKS)
        self.total_s = [0.0] * len(HOOKS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, accumulated child time]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Patch every hook into the loaded ``specvar`` modules."""
        resolved = []
        for index, (name, module_name, path, counter) in enumerate(HOOKS):
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                resolved.append((index, owner, attr, bool(outer), getattr(owner, attr), counter))
            except (ImportError, AttributeError):
                self.missing.append(name)
        modules = [m for n, m in list(sys.modules.items()) if n == "specvar" or n.startswith("specvar.")]
        for index, owner, attr, is_method, original, counter in resolved:
            wrapper = self._wrap(index, original, counter)
            if is_method:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, index: int, fn, counter):
        signature = inspect.signature(fn) if counter else None
        spans, stack, calls, self_s, total_s = self.spans, self._stack, self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the id; filled in on exit
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[span_id] = (span_id, parent, index, start, end)
                calls[index] += 1
                total_s[index] += duration
                self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                counter(signature.bind(*args, **kwargs), result, self.counters)
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, index, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, HOOKS[index][0], start, end]) + "\n")

    def metrics(self) -> dict[str, float | None]:
        """Per-layer values by metric name; a missing hook reads ``None``."""
        out: dict[str, float | None] = {}
        by_name = {}
        for index, (name, *_) in enumerate(HOOKS):
            gone = name in self.missing
            by_name[name] = index
            if name not in _SELF_ONLY:
                out[f"{name}.calls"] = None if gone else self.calls[index]
            out[f"{name}.self_s"] = None if gone else self.self_s[index]

        def total(name: str) -> float:
            return self.total_s[by_name[name]]

        c = self.counters
        records = c["records_built"] + c["records_loaded"]
        out.update(
            {
                "fuchsian.rows_visited": c["rows_visited"],
                "fuchsian.records": c["records_built"],
                "fuchsian.records_per_mrow": _rate(c["records_built"], c["rows_visited"] / 1e6),
                "fuchsian.csv_bytes": c["csv_bytes"],
                "words.canonical_per_record": _rate(self.calls[by_name["words.canonical_class"]], records),
                "poisson.pairs": c["pairs"],
                "poisson.pair_draws_per_s": _rate(c["pair_draws"], total("poisson.sample")),
                "covers.class_samples_per_s": _rate(c["class_samples"], total("covers.moment_experiment")),
            }
        )
        for metric, sources in _DERIVED_FROM.items():
            if any(source in self.missing for source in sources):
                out[metric] = None
        return out
