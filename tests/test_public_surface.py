"""The package's public surface, checked from the source text alone.

The files are parsed with ``ast``; nothing is simulated.  Three rules
keep a second way in from growing back:

* every name a module exports (``__all__``) or imports from another
  ``repro`` module is actually bound there;
* every module is imported by some non-test code — a module only its
  own tests (or its package's re-export) import is dead weight;
* ``src/`` holds no ``DeprecationWarning``: an entry point is either
  the way to do something or it is deleted.

Plus the one number both ``setup.py`` and the package state.
"""

from __future__ import annotations

import ast
import functools
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Non-test code that may keep a module alive.
CONSUMERS = [
    *sorted(SRC.rglob("*.py")),
    *sorted((ROOT / "examples").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "benchmarks" / "run_bench.py",
]


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(p): p for p in sorted(SRC.rglob("*.py"))}


@functools.cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def bound_names(body: list[ast.stmt]) -> set[str]:
    """Names bound at module level (``if TYPE_CHECKING:`` blocks included)."""
    names: set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
        elif isinstance(node, ast.If):
            names |= bound_names(node.body) | bound_names(node.orelse)
    return names


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def repro_imports(tree: ast.Module):
    """``(module, name-or-None)`` for every import of a ``repro`` module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module and (
            node.module.split(".")[0] == "repro"
        ):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("name", sorted(MODULES))
def test_exported_and_imported_names_resolve(name):
    tree = parse(MODULES[name])
    missing = sorted(set(exported(tree)) - bound_names(tree.body))
    assert not missing, f"{name}.__all__ names unbound: {missing}"
    for module, attr in repro_imports(tree):
        assert module in MODULES, f"{name} imports missing module {module}"
        if attr is None or f"{module}.{attr}" in MODULES:
            continue
        assert attr in bound_names(parse(MODULES[module]).body), (
            f"{name} imports {attr!r}, which {module} does not define"
        )


#: Modules only a package ``__init__`` imports, kept on purpose.
KEPT_WITHOUT_IMPORTER = {
    "repro.functions.extra":
        "registers its functions by import; scenarios reach them by name",
    "repro.functions.counting":
        "the evaluation counter Swarm's docs hand to users",
    "repro.distributed.chaos":
        "fault-injection harness: safety tooling, next aimed at the shard fabric",
    "repro.analysis.compare":
        "the two-sample statistics (rank-sum test, bootstrap CI) the "
        "benchmarks judge engine and regime pairs with",
}


def test_every_module_has_a_non_test_importer():
    """Alive = non-test code imports the module, or imports through its
    package a name the module defines.  A package ``__init__``'s own
    re-export is not a use."""
    reexports = {
        (module_name(path), attr): module
        for path in MODULES.values() if path.name == "__init__.py"
        for module, attr in repro_imports(parse(path))
    }
    imported: set[str] = set()
    for path in CONSUMERS:
        if path.name == "__init__.py":
            continue
        for module, attr in repro_imports(parse(path)):
            imported.update((module, f"{module}.{attr}"))
            while (module, attr) in reexports:  # repro -> repro.scenario -> .spec
                module = reexports[module, attr]
                imported.add(module)
    entry_points = {
        name for name in MODULES
        if name.endswith("__main__") or name.startswith("repro.experiments.exp")
    }
    packages = {module_name(p) for p in MODULES.values() if p.name == "__init__.py"}
    orphans = set(MODULES) - imported - entry_points - packages
    assert orphans == set(KEPT_WITHOUT_IMPORTER), (
        f"imported by no src/examples/bench file: "
        f"{sorted(orphans - set(KEPT_WITHOUT_IMPORTER))}; "
        f"listed as kept but imported: "
        f"{sorted(set(KEPT_WITHOUT_IMPORTER) - orphans)}"
    )


def test_src_has_no_deprecation_shims():
    offenders = [
        str(path.relative_to(ROOT))
        for path in MODULES.values()
        if "DeprecationWarning" in path.read_text(encoding="utf-8")
    ]
    assert not offenders, f"DeprecationWarning in: {offenders}"


def test_setup_py_reads_the_package_version():
    pytest.importorskip("setuptools")
    import repro

    out = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip().splitlines()[-1] == repro.__version__
