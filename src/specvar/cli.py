"""Command line front end.

One subcommand per pipeline stage, plain CSV/JSON artifacts, no plotting.
Exit code 0 means the artifact was written, 2 means the configuration was
rejected before any computation, 3 means a ``--check`` assertion failed
(the artifact is still written so the failure can be inspected).

Heavy modules are imported inside the handlers: the thread budget
(``--threads`` flag or ``SPECVAR_THREADS``) must cap the BLAS pools
before numpy first loads, otherwise the cap silently does nothing.
Config files are ``key=value`` lines mapped onto the same flags; values
on the command line win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

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

HAAR_TARGETS = {"U1": 2.0, "SU2": 4.0, "UN": 2.0}


class ConfigError(ValueError):
    """Invalid configuration; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# flag parsing helpers


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}")


def _apply_thread_budget(argv: list[str]) -> int:
    """Cap BLAS/OpenMP pools before numpy loads; flag beats environment."""
    budget = os.environ.get("SPECVAR_THREADS", "1")
    for i, token in enumerate(argv):
        if token == "--threads" and i + 1 < len(argv):
            budget = argv[i + 1]
        elif token.startswith("--threads="):
            budget = token.split("=", 1)[1]
    try:
        n = int(budget)
        if n < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"thread budget must be a positive integer, got {budget!r}")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)
    return n


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


def _parse_character(args):
    """Build the character from --character JSON or --flux/--flux-scale."""
    from .characters import FluxCharacter, MatrixRep

    spec = getattr(args, "character", None)
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
                return MatrixRep(images=tuple(mats))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad --character JSON: {exc}")
        raise ConfigError("--character JSON needs a 'flux' or 'images' key")
    flux = getattr(args, "flux", None)
    if flux is not None and any(flux):
        return FluxCharacter(flux=flux, scale=getattr(args, "flux_scale", 1.0))
    return None


def _get_spectrum(args, needed: float):
    """Load or build the length spectrum, certified at least to ``needed``."""
    from . import fuchsian as F

    if getattr(args, "spectrum_file", None):
        spectrum = F.load_spectrum(args.spectrum_file)
    else:
        params = args.params if args.params else ()
        if args.preset == "schottky_pants" and not params:
            params = DEFAULT_PANTS
        group = F.preset(args.preset, *params)
        l_max = args.lmax if args.lmax is not None else needed
        spectrum = F.build_spectrum(
            group, l_max, allow_incomplete=getattr(args, "allow_incomplete", False)
        )
    if spectrum.certified_l_max < needed:
        raise ConfigError(
            f"spectrum certified to {spectrum.certified_l_max:.6g}, "
            f"need {needed:.6g}; raise --Lmax"
        )
    return spectrum


def _unit_flux(spectrum) -> tuple[float, ...]:
    """The default flux 1, 0, ..., 0 at the spectrum's rank."""
    return (1.0,) + (0.0,) * (spectrum.group.rank - 1)


def _refuse_matrix_target(char, hint: str) -> None:
    """The GOE/GUE target is read off a flux character; a matrix twist has none."""
    from .characters import MatrixRep

    if isinstance(char, MatrixRep):
        raise ConfigError(f"no GOE/GUE target is defined for matrix twists; {hint}")


def _get_window(args):
    from .windows import window

    return window(args.window)


def _warn_scale(lam: float, L: float) -> None:
    # the admissible constant in L <= c log(lambda) is not quantified;
    # all the CLI can do is flag the regime where errors are uncontrolled
    if L > math.log(lam):
        print(
            f"warning: L={L:g} exceeds log(lambda)={math.log(lam):.3f}; "
            "trace-formula error terms are uncontrolled at this depth",
            file=sys.stderr,
        )


def _resolved_config(args) -> dict:
    skip = {"func", "config"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _emit(args, passed: bool | None, summary: str) -> int:
    print(summary)
    if args.check and passed is False:
        print("check: FAIL", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.check:
        print("check: ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_spectrum(args) -> int:
    from . import fuchsian as F

    if args.spectrum_file:
        raise ConfigError("spectrum builds presets; --spectrum-file makes no sense here")
    if args.lmax is None:
        raise ConfigError("spectrum needs --Lmax")
    spectrum = _get_spectrum(args, needed=0.0 if args.allow_incomplete else args.lmax)
    F.spectrum_to_csv(spectrum, args.out)
    return _emit(
        args,
        spectrum.certified_l_max >= args.lmax if args.check else None,
        f"{args.out}: {len(spectrum.records)} records, "
        f"certified to {spectrum.certified_l_max:.6g}",
    )


def _variance_profile(args):
    from .variance import SigmaEvaluator, _resolved_grid

    spectrum = _get_spectrum(args, needed=args.L)
    char = _parse_character(args)
    _warn_scale(args.lam, args.L)
    ev = SigmaEvaluator(spectrum, char, _get_window(args), args.L)
    grid = _resolved_grid(args.lam, args.delta, args.L, args.points)
    return spectrum, char, ev, grid


def _cmd_variance(args) -> int:
    cfg = _resolved_config(args)
    spectrum, char, ev, grid = _variance_profile(args)
    if args.check:
        return _check_average(args, cfg, spectrum, char, ev)
    rows = []
    for mu in grid:
        rep = ev.report(mu)
        rows.append((float(mu), rep.sigma2, rep.smooth_part, rep.osc_part))
    csv_report(args.out, cfg, ["mu", "sigma2", "smooth", "osc"], rows)
    return _emit(args, None, f"{args.out}: {len(rows)} grid points")


def _check_average(args, cfg, spectrum, char, ev) -> int:
    from .characters import breaks_time_reversal
    from .variance import energy_average
    from .windows import sigma2_goe, sigma2_gue

    if args.target == "auto":
        _refuse_matrix_target(char, "pass --target goe or --target gue")
    w = _get_window(args)
    average = energy_average(ev.sigma2, args.lam, args.delta, args.L, args.points)
    goe, gue = sigma2_goe(w), sigma2_gue(w)
    if args.target == "auto":
        target = gue if breaks_time_reversal(char) else goe
    else:
        target = goe if args.target == "goe" else gue
    gap = abs(average - target)
    passed = gap <= args.band * target
    out = args.out if args.out.endswith(".json") else args.out + ".json"
    json_report(
        out,
        cfg,
        {
            "average": average,
            "target": target,
            "gap": gap,
            "band": args.band * target,
            "sigma2Goe": goe,
            "sigma2Gue": gue,
            "passed": passed,
        },
    )
    return _emit(args, passed, f"{out}: average={average:.6f} target={target:.6f} gap={gap:.6f}")


def _cmd_average(args) -> int:
    cfg = _resolved_config(args)
    spectrum, char, ev, _ = _variance_profile(args)
    return _check_average(args, cfg, spectrum, char, ev)


def _cmd_dirichlet(args) -> int:
    from . import fuchsian as F
    from .variance import SigmaEvaluator, dirichlet_lambda_search

    cfg = _resolved_config(args)
    spectrum = _get_spectrum(args, needed=args.L)
    lengths = sorted(
        {r.primitive_length for r in F.unoriented_primitives(spectrum) if r.primitive_length <= args.L}
    )
    lam = dirichlet_lambda_search(lengths, args.Y, args.M, args.lam_max, args.mode)
    ev = SigmaEvaluator(spectrum, None, _get_window(args), args.L)
    sigma2 = ev.sigma2(lam)
    smooth = ev.smooth()
    slack = 3.0 / args.Y * smooth
    if args.mode == "plus":
        passed = sigma2 >= 1.5 * smooth - slack
    else:
        passed = sigma2 <= 0.5 * smooth + slack
    json_report(
        args.out,
        cfg,
        {
            "lambda": lam,
            "sigma2": sigma2,
            "smoothPart": smooth,
            "ratio": sigma2 / smooth,
            "slack": slack,
            "mode": args.mode,
            "passed": passed,
        },
    )
    return _emit(args, passed, f"{args.out}: lambda={lam:.6f} sigma2/smooth={sigma2 / smooth:.4f}")


def _cmd_covers(args) -> int:
    from .covers import _batch_images, _require_free, empirical_cover_variance, moment_experiment

    cfg = _resolved_config(args)
    if args.n < 1:
        raise ConfigError(f"--n must be a positive cover degree, got {args.n}")
    if args.kmax < 1:
        raise ConfigError(f"--kmax must be at least 1, got {args.kmax}")
    if args.L is not None and args.lam is None:
        raise ConfigError("the variance bridge needs --lambda alongside --L")
    needed = args.L if args.L is not None else args.moment_lmax
    spectrum = _get_spectrum(args, needed=needed)
    words = [r.word for r in spectrum.records if r.length <= args.moment_lmax]
    if not words:
        raise ConfigError(f"no classes of length <= {args.moment_lmax:g} for the moment test")
    images = _batch_images(_require_free(spectrum), args.n, args.samples, args.seed)
    stats = moment_experiment(words, images, args.n, args.samples, kmax=args.kmax)
    result = {"moments": stats.as_dict(), "bridge": None}
    passed = stats.passed
    if args.L is not None:
        _warn_scale(args.lam, args.L)
        bridge = empirical_cover_variance(
            spectrum,
            _parse_character(args),
            _get_window(args),
            args.lam,
            args.L,
            images,
            args.n,
            args.samples,
            args.seed,
            centering=args.centering,
        )
        result["bridge"] = bridge.as_dict()
        passed = passed and bridge.agrees
    json_report(args.out, cfg, result)
    return _emit(args, passed, f"{args.out}: {len(words)} classes, n={args.n}, samples={args.samples}")


def _cmd_poisson(args) -> int:
    from .poisson import PoissonSurrogate, clt_test, exact_cumulants

    cfg = _resolved_config(args)
    spectrum = _get_spectrum(args, needed=args.L)
    _warn_scale(args.lam, args.L)
    surrogate = PoissonSurrogate(
        spectrum, _parse_character(args), _get_window(args), args.lam, args.L, args.seed
    )
    cumulants = exact_cumulants(surrogate, mmax=args.mmax)
    clt = clt_test(surrogate, args.draws)
    passed = (
        cumulants.kappa2_matches
        and clt.ks_stat <= 0.02
        and clt.skewness_pass
        and clt.kurtosis_pass
    )
    json_report(args.out, cfg, {"cumulants": cumulants.as_dict(), "clt": clt.as_dict()})
    return _emit(
        args, passed, f"{args.out}: ks={clt.ks_stat:.4f} kappa2RelErr={cumulants.kappa2_rel_err:.2e}"
    )


def _cmd_ergodicity(args) -> int:
    from .poisson import PoissonSurrogate, ergodicity_experiment

    cfg = _resolved_config(args)
    spectrum = _get_spectrum(args, needed=args.L)
    _warn_scale(args.lam, args.L)
    eps = args.epsilon
    if eps is None:
        # smallest eps the almost-sure bound supports at this L and span
        eps = math.sqrt(10.0 * (1.0 / args.L + 1.0 / args.span)) * 1.0001
    char = _parse_character(args)
    _refuse_matrix_target(char, "ergodicity needs a flux character or none")
    surrogate = PoissonSurrogate(
        spectrum, char, _get_window(args), args.lam, args.L, args.seed
    )
    report = ergodicity_experiment(
        surrogate, args.lam, args.span, args.points, args.draws, eps
    )
    passed = report.fraction <= 0.1
    json_report(args.out, cfg, report.as_dict())
    return _emit(args, passed, f"{args.out}: violation fraction {report.fraction:.4f} (eps={eps:.4f})")


def _cmd_sumrule(args) -> int:
    from .dynamics import sum_rule_check

    cfg = _resolved_config(args)
    grid = sorted(args.L)
    spectrum = _get_spectrum(args, needed=grid[-1])
    char = _parse_character(args)
    w = _get_window(args)
    reports = [sum_rule_check(spectrum, w, L, char=char) for L in grid]
    rows = [(r.L, r.value, r.target, r.gap) for r in reports]
    csv_report(args.out, cfg, ["L", "value", "target", "gap"], rows)
    last = reports[-1]
    gaps = [r.gap for r in reports]
    passed = all(a > b for a, b in zip(gaps, gaps[1:])) if len(gaps) > 1 else True
    if last.target != 0.0:
        passed = passed and last.gap <= 0.2 * last.target
    return _emit(args, passed, f"{args.out}: gap at L={last.L:g} is {last.gap:.6f} (target {last.target:.6f})")


def _cmd_orbit_clt(args) -> int:
    from .dynamics import orbit_clt_experiment, variance_estimator

    cfg = _resolved_config(args)
    spectrum = _get_spectrum(args, needed=args.T + 1.0)
    flux = args.flux or _unit_flux(spectrum)
    rep = orbit_clt_experiment(spectrum, flux, args.T, args.draws, args.seed)
    estimator = variance_estimator(spectrum, flux, args.T, args.epsilon)
    sweep = [estimator]
    for T in (args.T - 1.0, args.T + 1.0):
        if 0.0 < T and T + args.epsilon <= spectrum.certified_l_max:
            sweep.append(variance_estimator(spectrum, flux, T, args.epsilon))
    band = 3.0 * rep.variance_se + 0.5 * (max(sweep) - min(sweep))
    passed = (
        abs(rep.skewness) <= 0.15
        and abs(rep.excess_kurtosis) <= 0.3
        and abs(rep.variance - estimator) <= band
    )
    header = [
        "T", "draws", "mean", "mean_se", "variance", "variance_se",
        "skewness", "excess_kurtosis", "exact_mean", "exact_variance",
        "n_classes", "estimator", "joint_band",
    ]
    row = (
        rep.T, rep.draws, rep.mean, rep.mean_se, rep.variance, rep.variance_se,
        rep.skewness, rep.excess_kurtosis, rep.exact_mean, rep.exact_variance,
        rep.n_classes, estimator, band,
    )
    csv_report(args.out, cfg, header, [row])
    return _emit(
        args,
        passed,
        f"{args.out}: var={rep.variance:.4f} est={estimator:.4f} "
        f"skew={rep.skewness:+.4f} exkurt={rep.excess_kurtosis:+.4f}",
    )


def _cmd_transition(args) -> int:
    from .dynamics import empirical_transition

    cfg = _resolved_config(args)
    spectrum = _get_spectrum(args, needed=args.L)
    flux = args.flux or _unit_flux(spectrum)
    _warn_scale(args.lam, args.L)
    cmp_ = empirical_transition(
        spectrum,
        flux,
        args.s_grid,
        lam=args.lam,
        L=args.L,
        delta=args.delta,
        w=_get_window(args),
        variance=args.variance,
        with_average=not args.no_average,
    )
    rows = [
        (float(s), float(a), float(p), float(e), float(v))
        for s, a, p, e, v in zip(
            cmp_.s, cmp_.alpha, cmp_.predicted, cmp_.empirical, cmp_.averaged
        )
    ]
    csv_report(
        args.out, cfg, ["s", "alpha", "sigma2_pred", "sigma2_emp", "sigma2_avg"], rows
    )
    band = 0.1 * cmp_.goe
    emp = cmp_.empirical
    passed = (
        all(b <= a + band for a, b in zip(emp, emp[1:]))
        and all(cmp_.gue - band <= e <= cmp_.goe + band for e in emp)
    )
    return _emit(
        args,
        passed,
        f"{args.out}: {len(rows)} grid points, Var={cmp_.variance:.4f}, "
        f"range [{emp.min():.4f}, {emp.max():.4f}]",
    )


def _cmd_haar(args) -> int:
    from .characters import haar_sigma_constant

    cfg = _resolved_config(args)
    kind = args.group.upper()
    if kind not in HAAR_TARGETS:
        raise ConfigError(f"unknown group {args.group!r}; pick u1, su2 or un")
    estimate, se = haar_sigma_constant(kind, args.samples, args.seed, dim=args.dim)
    target = HAAR_TARGETS[kind]
    passed = abs(estimate - target) <= 3.0 * se
    json_report(
        args.out,
        cfg,
        {"estimate": estimate, "se": se, "target": target, "group": kind, "dim": args.dim},
    )
    return _emit(args, passed, f"{args.out}: {kind} estimate {estimate:.5f} +- {se:.5f} (target {target:g})")


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub, *, out_default: str) -> None:
    sub.add_argument("--config", help="key=value file; explicit flags win")
    sub.add_argument("--threads", type=int, default=None, help="BLAS thread budget (or SPECVAR_THREADS; default 1)")
    sub.add_argument("--out", default=out_default, help=f"artifact path (default {out_default})")
    sub.add_argument("--check", action="store_true", help="exit 3 when the acceptance-style check fails")


def _add_spectrum_source(sub, *, preset_default: str = "octagon_genus2") -> None:
    sub.add_argument("--preset", default=preset_default, help="octagon_genus2, schottky_pants or punctured_torus")
    sub.add_argument("--params", type=_floats, default=None, help="preset parameters, comma separated")
    sub.add_argument("--Lmax", dest="lmax", type=float, default=None, help="enumeration cutoff (defaults to what the run needs)")
    sub.add_argument("--spectrum-file", default=None, help="reuse a spectrum CSV instead of enumerating")
    sub.add_argument("--allow-incomplete", action="store_true", help="accept a spectrum whose certificate falls short of Lmax")


def _add_character(sub) -> None:
    sub.add_argument("--flux", type=_floats, default=None, help="flux vector, comma separated (trivial if omitted)")
    sub.add_argument("--flux-scale", type=float, default=1.0, help="phase scale multiplying the flux pairing")
    sub.add_argument("--character", default=None, help="character as JSON (inline or a file): {'flux':..,'scale':..} or {'images':..}")


def _add_window(sub) -> None:
    sub.add_argument("--window", default="triangle", choices=["triangle", "bump"], help="smoothing window")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specvar",
        description="Length spectra of hyperbolic surfaces and the number variance of their random covers.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("spectrum", help="enumerate a preset length spectrum to CSV")
    _add_spectrum_source(p)
    _add_common(p, out_default="spectrum.csv")
    p.set_defaults(func=_cmd_spectrum)

    for name, handler, default_out in (
        ("variance", _cmd_variance, "variance.csv"),
        ("average", _cmd_average, "average.json"),
    ):
        p = subs.add_parser(
            name,
            help="variance profile over an energy window" if name == "variance" else "energy-averaged variance vs the ensemble constant",
        )
        _add_spectrum_source(p)
        _add_character(p)
        _add_window(p)
        p.add_argument("--lambda", dest="lam", type=float, required=True, help="base frequency")
        p.add_argument("--L", type=float, required=True, help="geodesic cutoff")
        p.add_argument("--delta", type=float, default=2.0, help="averaging span")
        p.add_argument("--points", type=int, default=None, help="grid points (default: resolves the fastest oscillation)")
        p.add_argument("--target", default="auto", choices=["auto", "goe", "gue"], help="ensemble constant to compare against")
        p.add_argument("--band", type=float, default=0.25, help="check band as a fraction of the target")
        _add_common(p, out_default=default_out)
        p.set_defaults(func=handler)

    p = subs.add_parser("dirichlet", help="find a frequency aligning all geodesic phases")
    _add_spectrum_source(p)
    _add_window(p)
    p.add_argument("--L", type=float, required=True, help="geodesic cutoff")
    p.add_argument("--Y", type=float, default=8.0, help="alignment quality 1/Y")
    p.add_argument("--M", type=float, default=100.0, help="search start")
    p.add_argument("--lam-max", type=float, default=1e9, help="search ceiling")
    p.add_argument("--mode", default="plus", choices=["plus", "minus"], help="push the variance up (plus) or down (minus)")
    _add_common(p, out_default="dirichlet.json")
    p.set_defaults(func=_cmd_dirichlet)

    p = subs.add_parser("covers", help="random cover moments and the variance bridge")
    _add_spectrum_source(p, preset_default="schottky_pants")
    _add_character(p)
    _add_window(p)
    p.add_argument("--n", type=int, required=True, help="cover degree")
    p.add_argument("--samples", type=int, required=True, help="Monte Carlo samples")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--kmax", type=int, default=6, help="highest power in the moment test")
    p.add_argument("--moment-lmax", type=float, default=2.5, help="class cutoff for the moment test")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="bridge frequency (with --L)")
    p.add_argument("--L", type=float, default=None, help="bridge geodesic cutoff (enables the bridge)")
    p.add_argument("--centering", default="batch", choices=["batch", "dk"], help="variance centering mode")
    _add_common(p, out_default="covers.json")
    p.set_defaults(func=_cmd_covers)

    p = subs.add_parser("poisson", help="Poisson surrogate cumulants and CLT")
    _add_spectrum_source(p)
    _add_character(p)
    _add_window(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="base frequency")
    p.add_argument("--L", type=float, required=True, help="geodesic cutoff")
    p.add_argument("--draws", type=int, default=100000, help="surrogate draws")
    p.add_argument("--mmax", type=int, default=4, help="highest exact cumulant")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    _add_common(p, out_default="poisson.json")
    p.set_defaults(func=_cmd_poisson)

    p = subs.add_parser("ergodicity", help="violation fraction of energy-averaged surrogate draws")
    _add_spectrum_source(p)
    _add_character(p)
    _add_window(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="base frequency")
    p.add_argument("--L", type=float, required=True, help="geodesic cutoff")
    p.add_argument("--Lambda", dest="span", type=float, required=True, help="energy-averaging span")
    p.add_argument("--epsilon", type=float, default=None, help="violation threshold (default: precondition bound)")
    p.add_argument("--points", type=int, default=None, help="energy grid points")
    p.add_argument("--draws", type=int, default=1000, help="surrogate draws")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    _add_common(p, out_default="ergodicity.json")
    p.set_defaults(func=_cmd_ergodicity)

    p = subs.add_parser("sumrule", help="equidistribution sum rule over a cutoff grid")
    _add_spectrum_source(p)
    _add_character(p)
    _add_window(p)
    p.add_argument("--L", type=_floats, required=True, help="cutoff grid, comma separated")
    _add_common(p, out_default="sumrule.csv")
    p.set_defaults(func=_cmd_sumrule)

    p = subs.add_parser("orbit-clt", help="homology pairing moments over the orbit ensemble")
    _add_spectrum_source(p)
    p.add_argument("--T", type=float, required=True, help="ensemble center length")
    p.add_argument("--flux", type=_floats, default=None, help="flux vector (default 1,0,...)")
    p.add_argument("--draws", type=int, default=100000, help="ensemble draws")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--epsilon", type=float, default=1.0, help="estimator window width")
    _add_common(p, out_default="orbit-clt.csv")
    p.set_defaults(func=_cmd_orbit_clt)

    p = subs.add_parser("transition", help="flux transition: empirical sums vs the predicted curve")
    _add_spectrum_source(p)
    _add_window(p)
    p.add_argument("--flux", type=_floats, default=None, help="flux vector (default 1,0,...)")
    p.add_argument("--s-grid", dest="s_grid", type=_floats, default=(0.0, 0.5, 1.0, 2.0, 4.0), help="transition parameter grid")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="base frequency")
    p.add_argument("--L", type=float, required=True, help="geodesic cutoff")
    p.add_argument("--delta", type=float, default=2.0, help="averaging span")
    p.add_argument("--variance", type=float, default=None, help="diffusion variance (default: estimator at the deepest window)")
    p.add_argument("--no-average", action="store_true", help="skip the direct energy-average column")
    _add_common(p, out_default="transition.csv")
    p.set_defaults(func=_cmd_transition)

    p = subs.add_parser("haar", help="Haar moment constants by Monte Carlo")
    p.add_argument("--group", default="su2", help="u1, su2 or un")
    p.add_argument("--dim", type=int, default=5, help="N for un")
    p.add_argument("--samples", type=int, default=1000000, help="Monte Carlo samples")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    _add_common(p, out_default="haar.json")
    p.set_defaults(func=_cmd_haar)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _apply_thread_budget(argv)
        argv = _inject_config_file(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    import warnings

    warnings.showwarning = _show_warning

    parser = build_parser()
    args = parser.parse_args(argv)

    from .fuchsian import IncompleteEnumeration, InvalidParameters
    from .variance import DirichletNotFound, SpectrumTooShort, UnderResolved

    try:
        return args.func(args)
    except (
        ConfigError,
        InvalidParameters,
        IncompleteEnumeration,
        SpectrumTooShort,
        UnderResolved,
        DirichletNotFound,
        ValueError,
        LookupError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
