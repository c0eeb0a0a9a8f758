"""Every name a ``specvar`` module or test file imports is used there and
no ``specvar`` module imports SciPy; importing them loads no
``numpy.random``, parsing the command line loads no numpy, no module calls
a QR factorisation, only ``rng`` builds a Philox, no module defines a
per-word class closure, and every top-level def is reachable from the
program."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "specvar"
TESTS = pathlib.Path(__file__).resolve().parent
TRACER = SRC.parents[1] / "bench" / "tracer.py"


def _imported(tree, lines):
    """Names the source imports, less those marked ``# noqa: F401``
    (imports kept for their side effect)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(alias, alias.asname or alias.name) for alias in node.names]
        else:
            continue
        for alias, name in names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                yield name


def _used(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    unused = sorted(set(_imported(tree, source.splitlines())) - _used(tree))
    assert not unused, f"{path.name} imports unused names {unused}"


def _scipy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        yield from (name for name in names if name.split(".")[0] == "scipy")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    # function-local imports included: the runtime needs numpy only
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(set(_scipy_imports(tree)))
    assert not found, f"{path.name} imports {found}"


def _run(code: str) -> list[str]:
    """Run Python source in a fresh interpreter; return the lines it prints."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.splitlines()


def _import_every_module(report: str) -> list[str]:
    """Import every specvar module in a fresh interpreter; return the
    lines that ``report`` (Python source run afterwards) prints."""
    return _run(
        "import importlib, pkgutil, sys, specvar\n"
        "for info in pkgutil.iter_modules(specvar.__path__):\n"
        "    importlib.import_module('specvar.' + info.name)\n" + report
    )


def test_importing_every_module_loads_no_scipy():
    scipy_modules, specvar_modules = _import_every_module(
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
        "print(sorted(n for n in sys.modules if n.startswith('specvar.')))\n"
    )
    assert scipy_modules == "[]"
    assert len(ast.literal_eval(specvar_modules)) == len(list(SRC.glob("*.py"))) - 1  # all but __init__


def test_importing_every_module_loads_no_numpy_random():
    # numpy.random loads with the first stream, so start-up does not pay for it
    assert _import_every_module("print('numpy.random' in sys.modules)\n") == ["False"]


def test_parsing_the_command_line_loads_no_numpy():
    # main applies the parsed thread budget before numpy first loads
    argv = ["variance", "--lambda", "5000", "--L", "5", "--flux", "1,0", "--threads", "2"]
    assert _run(
        "import sys, specvar.cli\n"
        f"args = specvar.cli.build_parser().parse_args({argv!r})\n"
        "print(args.threads, 'numpy' in sys.modules)\n"
    ) == ["2 False"]


def _referenced(tree):
    # every attribute and bare name a module reads, imported names included
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_qr_and_one_seeding_path(path):
    # Haar traces come from Gram-Schmidt, and streams are keyed by rng's
    # bulk hash: only rng.py builds a Philox, and none a SeedSequence
    names = set(_referenced(ast.parse(path.read_text(encoding="utf-8"))))
    assert "qr" not in names, f"{path.name} calls a QR factorisation"
    assert "SeedSequence" not in names, f"{path.name} builds a SeedSequence"
    if path.name != "rng.py":
        assert "Philox" not in names, f"{path.name} builds a Philox outside rng.py"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_class_closure(path):
    # words.canonical_class names every class over code matrices; the
    # per-word closure lives on only as the reference in tests/oracles.py
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    per_word = sorted(defined & {"shortest_spellings", "_half_swap_closure", "dehn_cyclic_reduce"})
    assert not per_word, f"{path.name} defines the per-word closure {per_word}"


def _unreachable_defs() -> list[str]:
    """Top-level defs and classes of ``specvar`` that no path reaches from
    ``cli.main``, a benchmark hook or a module-level statement.

    Names resolve by spelling across modules, and a reached class keeps
    every method, so a dead def sharing a live name can slip through;
    a reported def is dead.
    """
    defs, todo = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[(path.stem, node.name)] = node
            else:
                todo.append(node)
    by_name: dict[str, list] = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    seen = {("cli", "main")} | {
        (module.removeprefix("specvar."), attribute.split(".")[0])
        for _, module, attribute, _ in tracer.HOOKS
    }
    todo += [defs[key] for key in seen]
    while todo:
        for name in _referenced(todo.pop()):
            for key in by_name.get(name, ()):
                if key not in seen:
                    seen.add(key)
                    todo.append(defs[key])
    return sorted(f"{module}.{name}" for module, name in defs if (module, name) not in seen)


def test_every_top_level_def_is_reachable():
    # library code that only tests call belongs in tests/oracles.py
    assert _unreachable_defs() == []
