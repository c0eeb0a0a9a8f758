"""Command line front end.

One subcommand per pipeline stage, plain CSV/JSON artifacts, no plotting.
Each subcommand is a row of ``COMMANDS``, and ``_run`` takes every row
through the same steps: validate; resolve the config, spectrum, character
and window; call the experiment; write; print and apply ``--check``.
Exit code 0 means the artifact was written; 2, that the inputs were
refused (``specvar.Refused``, or an ``OSError`` on a named file) and
nothing was written; 3, that a ``--check`` assertion failed (the artifact
is still written so the failure can be inspected).  Any other exception
is a bug and propagates with its traceback.

Config files are ``key=value`` lines mapped onto the same flags; values
on the command line win.  The thread budget (``--threads``, from the
command line or a config file, else ``SPECVAR_THREADS``, else 1) is
applied after parsing: building and running the parser loads no numpy,
and heavy modules are imported inside the experiment calls, so the cap
reaches the BLAS pools before numpy first loads.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from typing import Callable, NamedTuple

from . import Refused
from .report import csv_report, json_report

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CHECK_FAILED = 3

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

DEFAULT_PANTS = (1.9, 2.1, 2.4)


class ConfigError(Refused):
    """Invalid configuration; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# flags, config files and the inputs every run resolves


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}")


def _grid(text: str) -> tuple[float, ...]:
    values = _floats(text)
    if not values:
        raise argparse.ArgumentTypeError("needs at least one number")
    return values


def _number(what: str, ok: Callable[[float], bool]) -> Callable[[str], float]:
    """A flag type: a number that ``ok`` accepts; NaN passes no comparison."""

    def number(text: str) -> float:
        value = float(text)  # argparse reports a ValueError as "invalid number value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return number


_positive = _number("a positive number", lambda v: v > 0.0)
_finite_positive = _number("a finite positive number", lambda v: 0.0 < v < math.inf)
_finite = _number("a finite number", math.isfinite)
_nonnegative = _number("a finite number >= 0", lambda v: 0.0 <= v < math.inf)
_above_one = _number("a finite number above 1", lambda v: 1.0 < v < math.inf)


def _apply_thread_budget(threads: int | None) -> None:
    """Cap BLAS/OpenMP pools before numpy loads; the parsed flag beats the environment."""
    budget = os.environ.get("SPECVAR_THREADS", "1") if threads is None else threads
    try:
        n = int(budget)
        if n < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"thread budget must be a positive integer, got {budget!r}")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _inject_config_file(argv: list[str]) -> list[str]:
    """Expand --config key=value lines into flags ahead of the CLI flags.

    The file tokens go right after the subcommand, so explicit flags
    (parsed later) override them.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    if at == 0:
        raise ConfigError("--config goes after the subcommand")
    path = argv[at + 1]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    tokens: list[str] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in ("config", "out"):
            raise ConfigError(f"{path}:{lineno}: {key!r} is not allowed in a config file")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                tokens.append(f"--{key}")
            continue
        tokens.extend([f"--{key}", value])
    rest = argv[:at] + argv[at + 2 :]
    return rest[:1] + tokens + rest[1:]


def _parse_character(args, group):
    """Build the character from --character JSON or --flux/--flux-scale.

    Matrix images are checked against ``group`` (a ``GroupPreset``): one
    per generator, and the relator, if any, maps to the identity.
    """
    from .characters import FluxCharacter, MatrixRep

    spec = args.character
    if spec:
        try:
            if os.path.exists(spec):
                with open(spec, encoding="utf-8") as fh:
                    doc = json.load(fh)
            else:
                doc = json.loads(spec)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad --character JSON: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError("--character JSON must be an object")
        try:
            if "flux" in doc:
                return FluxCharacter(
                    flux=tuple(doc["flux"]), scale=float(doc.get("scale", 1.0))
                )
            if "images" in doc:
                mats = [
                    [[complex(entry[0], entry[1]) for entry in row] for row in mat]
                    for mat in doc["images"]
                ]
                return MatrixRep(images=tuple(mats), preset=group)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad --character JSON: {exc}")
        raise ConfigError("--character JSON needs a 'flux' or 'images' key")
    if args.flux is not None and any(args.flux):
        return FluxCharacter(flux=args.flux, scale=args.flux_scale)
    return None


def _get_spectrum(args, needed: float):
    """Load or build the length spectrum, certified at least to ``needed``.

    The preset's own warning (the cusped torus) is issued for built and
    loaded spectra alike.
    """
    from . import fuchsian as F

    if args.spectrum_file:
        spectrum = F.load_spectrum(args.spectrum_file)
    else:
        params = args.params or (DEFAULT_PANTS if args.preset == "schottky_pants" else ())
        group = F.preset(args.preset, *params)
        l_max = args.lmax if args.lmax is not None else needed
        spectrum = F.build_spectrum(group, l_max, allow_incomplete=args.allow_incomplete)
    if spectrum.certified_l_max < needed:
        raise ConfigError(
            f"spectrum certified to {spectrum.certified_l_max:.6g}, "
            f"need {needed:.6g}; raise --Lmax"
        )
    if spectrum.group.warning:
        warnings.warn(spectrum.group.warning)
    return spectrum


def _warn_scale(lam: float, L: float) -> None:
    # the admissible constant in L <= c log(lambda) is not quantified;
    # all the CLI can do is flag the regime where errors are uncontrolled
    if L > math.log(lam):
        print(
            f"warning: L={L:g} exceeds log(lambda)={math.log(lam):.3f}; "
            "trace-formula error terms are uncontrolled at this depth",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# experiment calls: (args, spectrum, char, window) -> (artifact, passed, summary)


def _spectrum(a, spectrum, char, w):
    summary = f"{len(spectrum.length)} records, certified to {spectrum.certified_l_max:.6g}"
    return spectrum, spectrum.certified_l_max >= a.lmax, summary


def _variance(a, spectrum, char, w):
    from .variance import SigmaEvaluator, _resolved_grid

    grid = _resolved_grid(a.lam, a.delta, a.L)
    ev = SigmaEvaluator(spectrum, char, w, a.L)
    reports = [ev.report(mu) for mu in grid]
    table = {
        "mu": grid.tolist(),
        "sigma2": [r.sigma2 for r in reports],
        "smooth": [r.smooth_part for r in reports],
        "osc": [r.osc_part for r in reports],
    }
    return table, None, f"{len(grid)} grid points"


def _average(a, spectrum, char, w):
    from .characters import ensemble_target
    from .variance import SigmaEvaluator, energy_average
    from .windows import sigma2_goe, sigma2_gue

    goe, gue = sigma2_goe(w), sigma2_gue(w)
    target = ensemble_target(char, w) if a.target == "auto" else {"goe": goe, "gue": gue}[a.target]
    ev = SigmaEvaluator(spectrum, char, w, a.L)
    average = energy_average(ev, a.lam, a.delta)
    gap = abs(average - target)
    passed = gap <= a.band * target
    result = {
        "average": average,
        "target": target,
        "gap": gap,
        "band": a.band * target,
        "sigma2Goe": goe,
        "sigma2Gue": gue,
        "passed": passed,
    }
    return result, passed, f"average={average:.6f} target={target:.6f} gap={gap:.6f}"


def _dirichlet(a, spectrum, char, w):
    from .variance import SigmaEvaluator, dirichlet_lambda_search

    ev = SigmaEvaluator(spectrum, None, w, a.L)
    lam = dirichlet_lambda_search(ev.freqs[0], a.Y, a.M, a.lam_max, a.mode)
    rep = ev.report(lam)
    sigma2, smooth = rep.sigma2, rep.smooth_part
    slack = 3.0 / a.Y * smooth
    passed = sigma2 >= 1.5 * smooth - slack if a.mode == "plus" else sigma2 <= 0.5 * smooth + slack
    result = {
        "lambda": lam,
        "sigma2": sigma2,
        "smoothPart": smooth,
        "ratio": sigma2 / smooth,
        "slack": slack,
        "mode": a.mode,
        "passed": passed,
    }
    return result, passed, f"lambda={lam:.6f} sigma2/smooth={sigma2 / smooth:.4f}"


def _covers(a, spectrum, char, w):
    from .covers import _batch_images, _require_free, count_covers, empirical_cover_variance, moment_experiment
    from .variance import SigmaEvaluator

    rows = (spectrum.length <= a.moment_lmax).nonzero()[0]
    if not len(rows):
        raise ConfigError(f"no classes of length <= {a.moment_lmax:g} for the moment test")
    rank = _require_free(spectrum)
    ev = None if a.L is None else SigmaEvaluator(spectrum, char, w, a.L)
    images = _batch_images(rank, a.n, a.samples, a.seed)
    # one counting pass over the batch serves both experiments
    counts = count_covers(images, spectrum, rows, a.kmax, ev)
    moments = moment_experiment(rows, counts, a.n, a.samples, kmax=a.kmax)
    bridge = None if ev is None else empirical_cover_variance(ev, a.lam, counts, a.seed, centering=a.centering)
    passed = moments["passed"] and (bridge is None or bridge["agrees"])
    summary = f"{len(rows)} classes, n={a.n}, samples={a.samples}"
    return {"moments": moments, "bridge": bridge}, passed, summary


def _poisson(a, spectrum, char, w):
    from .poisson import PoissonSurrogate, _require_clt_draws, clt_test, exact_cumulants

    _require_clt_draws(a.draws)  # before the surrogate and its cumulants are built
    surrogate = PoissonSurrogate(spectrum, char, w, a.lam, a.L, a.seed)
    cumulants = exact_cumulants(surrogate, mmax=a.mmax)
    clt = clt_test(surrogate, a.draws)
    passed = (
        cumulants["kappa2Matches"]
        and clt["ksStat"] <= 0.02
        and clt["skewnessPass"]
        and clt["kurtosisPass"]
    )
    summary = f"ks={clt['ksStat']:.4f} kappa2RelErr={cumulants['kappa2RelErr']:.2e}"
    return {"cumulants": cumulants, "clt": clt}, passed, summary


def _ergodicity(a, spectrum, char, w):
    from .characters import ensemble_target
    from .poisson import PoissonSurrogate, ergodicity_experiment

    ensemble_target(char, w)  # a matrix twist is refused before the surrogate is built
    surrogate = PoissonSurrogate(spectrum, char, w, a.lam, a.L, a.seed)
    report = ergodicity_experiment(surrogate, a.span, a.draws, a.epsilon)
    fraction = report["violationFraction"]
    return report, fraction <= 0.1, f"violation fraction {fraction:.4f} (eps={report['epsilon']:.4f})"


def _sumrule(a, spectrum, char, w):
    from .dynamics import sum_rule_check

    rows = [sum_rule_check(spectrum, w, L, char=char) for L in sorted(a.L)]
    table = {key: [r[key] for r in rows] for key in rows[0]}
    last = rows[-1]
    passed = all(x > y for x, y in zip(table["gap"], table["gap"][1:]))
    if last["target"] != 0.0:
        passed = passed and last["gap"] <= 0.2 * last["target"]
    return table, passed, f"gap at L={last['L']:g} is {last['gap']:.6f} (target {last['target']:.6f})"


def _orbit_clt(a, spectrum, char, w):
    from .dynamics import orbit_clt_experiment

    row = orbit_clt_experiment(spectrum, char, a.T, a.draws, a.seed, a.epsilon)
    passed = (
        abs(row["skewness"]) <= 0.15
        and abs(row["excess_kurtosis"]) <= 0.3
        and abs(row["variance"] - row["estimator"]) <= row["joint_band"]
    )
    summary = (
        f"var={row['variance']:.4f} est={row['estimator']:.4f} "
        f"skew={row['skewness']:+.4f} exkurt={row['excess_kurtosis']:+.4f}"
    )
    return {key: [value] for key, value in row.items()}, passed, summary


def _transition(a, spectrum, char, w):
    from .dynamics import empirical_transition, variance_estimator
    from .windows import sigma2_goe, sigma2_gue

    variance = a.variance
    if variance is None:
        # the deepest window the spectrum certifies
        variance = variance_estimator(spectrum, char, spectrum.certified_l_max - 1.0, 1.0)
    table = empirical_transition(
        spectrum, char, a.s_grid, a.lam, a.L, a.delta, w, variance, with_average=not a.no_average
    )
    goe, gue = sigma2_goe(w), sigma2_gue(w)
    band = 0.1 * goe
    emp = table["sigma2_emp"]
    passed = (
        all(y <= x + band for x, y in zip(emp, emp[1:]))
        and all(gue - band <= e <= goe + band for e in emp)
    )
    summary = (
        f"{len(emp)} grid points, Var={variance:.4f}, "
        f"range [{min(emp):.4f}, {max(emp):.4f}]"
    )
    return table, passed, summary


def _haar(a, spectrum, char, w):
    from .characters import HAAR_TARGETS, haar_sigma_constant

    kind = a.group.upper()
    estimate, se = haar_sigma_constant(kind, a.samples, a.seed, dim=a.dim)
    target = HAAR_TARGETS[kind]
    result = {"estimate": estimate, "se": se, "target": target, "group": kind, "dim": a.dim}
    summary = f"{kind} estimate {estimate:.5f} +- {se:.5f} (target {target:g})"
    return result, abs(estimate - target) <= 3.0 * se, summary


def _variance_args(a) -> None:
    if a.check:
        raise ConfigError("variance has no --check; run average --check for the energy-average test")


def _spectrum_args(a) -> None:
    if a.spectrum_file:
        raise ConfigError("spectrum builds presets; --spectrum-file makes no sense here")
    if a.lmax is None:
        raise ConfigError("spectrum needs --Lmax")


def _cover_args(a) -> None:
    if a.n < 1:
        raise ConfigError(f"--n must be a positive cover degree, got {a.n}")
    if a.kmax < 1:
        raise ConfigError(f"--kmax must be at least 1, got {a.kmax}")
    if a.L is not None and a.lam is None:
        raise ConfigError("the variance bridge needs --lambda alongside --L")


# ---------------------------------------------------------------------------
# the subcommand table


def _flag(*names: str, **kwargs) -> tuple:
    return names, kwargs


def _source(preset: str = "octagon_genus2") -> tuple:
    return (
        _flag("--preset", default=preset, help="octagon_genus2, schottky_pants or punctured_torus"),
        _flag("--params", type=_floats, default=None, help="preset parameters, comma separated"),
        _flag("--Lmax", dest="lmax", type=_finite_positive, default=None, help="enumeration cutoff (defaults to what the run needs)"),
        _flag("--spectrum-file", default=None, help="reuse a spectrum CSV instead of enumerating"),
        _flag("--allow-incomplete", action="store_true", help="accept a capped spectrum, as every punctured_torus one is"),
    )


_CHARACTER = (
    _flag("--flux", type=_floats, default=None, help="flux vector, comma separated (trivial if omitted)"),
    _flag("--flux-scale", type=_finite, default=1.0, help="phase scale multiplying the flux pairing"),
    _flag("--character", default=None, help="character as JSON (inline or a file): {'flux':..,'scale':..} or {'images':..}"),
)
_WINDOW = _flag("--window", default="triangle", choices=["triangle", "bump"], help="smoothing window")
_LAMBDA = _flag("--lambda", dest="lam", type=_positive, required=True, help="base frequency")
_CUTOFF = _flag("--L", type=_positive, required=True, help="geodesic cutoff")
_DELTA = _flag("--delta", type=_positive, default=2.0, help="averaging span")
_SEED = _flag("--seed", type=int, default=0, help="master seed")
_UNIT_FLUX = _flag("--flux", type=_floats, default=None, help="flux vector (default 1,0,...)")
_PROFILE = (*_source(), *_CHARACTER, _WINDOW, _LAMBDA, _CUTOFF, _DELTA)


class _Command(NamedTuple):
    help: str
    call: Callable  # (args, spectrum, char, window) -> (artifact, passed, summary)
    writer: str  # "json", "csv" (the artifact maps columns to cells) or "spectrum"
    depth: Callable | None  # args -> certified length the run needs; None reads no spectrum
    flags: tuple  # (names, add_argument keywords); every row also takes --config, --threads, --out, --check
    validate: Callable = lambda args: None  # raises ConfigError before any work


COMMANDS = {
    "spectrum": _Command(
        "enumerate a preset length spectrum to CSV", _spectrum, "spectrum",
        lambda a: 0.0 if a.allow_incomplete else a.lmax, _source(), validate=_spectrum_args,
    ),
    "variance": _Command(
        "variance profile over an energy window", _variance, "csv", lambda a: a.L, _PROFILE, validate=_variance_args,
    ),
    "average": _Command(
        "energy-averaged variance vs the ensemble constant", _average, "json", lambda a: a.L, (
            *_PROFILE,
            _flag("--target", default="auto", choices=["auto", "goe", "gue"], help="ensemble constant to compare against"),
            _flag("--band", type=_finite_positive, default=0.25, help="check band as a fraction of the target"),
        ),
    ),
    "dirichlet": _Command(
        "find a frequency aligning all geodesic phases", _dirichlet, "json", lambda a: a.L, (
            *_source(), _WINDOW, _CUTOFF,
            _flag("--Y", type=_above_one, default=8.0, help="alignment quality 1/Y"),
            _flag("--M", type=float, default=100.0, help="search start"),
            _flag("--lam-max", type=_finite_positive, default=1e9, help="search ceiling"),
            _flag("--mode", default="plus", choices=["plus", "minus"], help="push the variance up (plus) or down (minus)"),
        ),
    ),
    "covers": _Command(
        "random cover moments and the variance bridge", _covers, "json",
        lambda a: max(a.moment_lmax, a.L or 0.0), (
            *_source("schottky_pants"), *_CHARACTER, _WINDOW,
            _flag("--n", type=int, required=True, help="cover degree"),
            _flag("--samples", type=int, required=True, help="Monte Carlo samples"),
            _flag("--seed", type=int, required=True, help="master seed"),
            _flag("--kmax", type=int, default=6, help="highest power in the moment test"),
            _flag("--moment-lmax", type=_finite_positive, default=2.5, help="class cutoff for the moment test"),
            _flag("--lambda", dest="lam", type=_positive, default=None, help="bridge frequency (with --L)"),
            _flag("--L", type=_positive, default=None, help="bridge geodesic cutoff (enables the bridge)"),
            _flag("--centering", default="batch", choices=["batch", "dk"], help="variance centering mode"),
        ),
        validate=_cover_args,
    ),
    "poisson": _Command(
        "Poisson surrogate cumulants and CLT", _poisson, "json", lambda a: a.L, (
            *_source(), *_CHARACTER, _WINDOW, _LAMBDA, _CUTOFF, _SEED,
            _flag("--draws", type=int, default=100000, help="surrogate draws"),
            _flag("--mmax", type=int, default=4, help="highest exact cumulant"),
        ),
    ),
    "ergodicity": _Command(
        "violation fraction of energy-averaged surrogate draws", _ergodicity, "json", lambda a: a.L, (
            *_source(), *_CHARACTER, _WINDOW, _LAMBDA, _CUTOFF, _SEED,
            _flag("--Lambda", dest="span", type=_positive, required=True, help="energy-averaging span"),
            _flag("--epsilon", type=_positive, default=None, help="violation threshold (default: precondition bound)"),
            _flag("--draws", type=int, default=1000, help="surrogate draws"),
        ),
    ),
    "sumrule": _Command(
        "equidistribution sum rule over a cutoff grid", _sumrule, "csv", lambda a: max(a.L), (
            *_source(), *_CHARACTER, _WINDOW,
            _flag("--L", type=_grid, required=True, help="cutoff grid, comma separated"),
        ),
    ),
    "orbit-clt": _Command(
        "homology pairing moments over the orbit ensemble", _orbit_clt, "csv", lambda a: a.T + 1.0, (
            *_source(), _UNIT_FLUX, _SEED,
            _flag("--T", type=_positive, required=True, help="ensemble center length"),
            _flag("--draws", type=int, default=100000, help="ensemble draws"),
            _flag("--epsilon", type=float, default=1.0, help="estimator window width"),
        ),
    ),
    "transition": _Command(
        "flux transition: empirical sums vs the predicted curve", _transition, "csv", lambda a: a.L, (
            *_source(), _WINDOW, _UNIT_FLUX, _LAMBDA, _CUTOFF, _DELTA,
            _flag("--s-grid", dest="s_grid", type=_grid, default=(0.0, 0.5, 1.0, 2.0, 4.0), help="transition parameter grid"),
            _flag("--variance", type=_nonnegative, default=None, help="diffusion variance (default: estimator at the deepest window)"),
            _flag("--no-average", action="store_true", help="skip the direct energy-average column"),
        ),
    ),
    "haar": _Command(
        "Haar moment constants by Monte Carlo", _haar, "json", None, (
            _SEED,
            _flag("--group", default="su2", help="u1, su2 or un"),
            _flag("--dim", type=int, default=5, help="N for un"),
            _flag("--samples", type=int, default=1000000, help="Monte Carlo samples"),
        ),
    ),
}


def _run(name: str, args) -> int:
    """Validate, resolve the inputs, call, write, then print and apply --check."""
    from .windows import window

    cmd = COMMANDS[name]
    cmd.validate(args)
    # the writers sort the keys and write tuples as lists; the handler (func) is not config
    config = {key: value for key, value in vars(args).items() if key != "config" and not callable(value)}
    spectrum = _get_spectrum(args, cmd.depth(args)) if cmd.depth else None
    char = None
    if "character" in args:
        char = _parse_character(args, spectrum.group.group)
    elif "flux" in args:  # a bare flux vector, 1, 0, ..., 0 by default
        char = args.flux or (1.0,) + (0.0,) * (spectrum.group.rank - 1)
    w = window(args.window) if "window" in args else None
    if getattr(args, "lam", None) is not None and args.L is not None:
        _warn_scale(args.lam, args.L)

    artifact, passed, summary = cmd.call(args, spectrum, char, w)

    if cmd.writer == "json":
        json_report(args.out, config, artifact)
    elif cmd.writer == "csv":
        csv_report(args.out, config, list(artifact), zip(*artifact.values()))
    else:
        from .fuchsian import spectrum_to_csv

        spectrum_to_csv(artifact, args.out)

    print(f"{args.out}: {summary}")
    if args.check and not passed:
        print("check: FAIL", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.check:
        print("check: ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specvar",
        description="Length spectra of hyperbolic surfaces and the number variance of their random covers.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        out = f"{name}.json" if cmd.writer == "json" else f"{name}.csv"
        p = subs.add_parser(name, help=cmd.help)
        for names, kwargs in (
            *cmd.flags,
            _flag("--config", help="key=value file; explicit flags win"),
            _flag("--threads", type=int, default=None, help="BLAS thread budget (or SPECVAR_THREADS; default 1)"),
            _flag("--out", default=out, help=f"artifact path (default {out})"),
            _flag("--check", action="store_true", help="exit 3 when the acceptance-style check fails"),
        ):
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=functools.partial(_run, name))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a fresh filter per run: under the once-per-call-site default a
    # second run in one process would print no preset warning
    with warnings.catch_warnings():
        warnings.simplefilter("default", UserWarning)
        warnings.showwarning = lambda message, *rest, **kw: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(_inject_config_file(argv))
            _apply_thread_budget(args.threads)
            return args.func(args)
        except (Refused, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
