"""Public-surface guard: `__all__` lists and package re-exports stay in step."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import casrod

MODULES = sorted(f"casrod.{m.name}" for m in pkgutil.iter_modules(casrod.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


def test_package_reexports_are_public_names_of_their_module():
    tree = ast.parse(Path(casrod.__file__).read_text(encoding="utf-8"))
    stale = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"casrod.{node.module}")
            public = getattr(module, "__all__", ())
            stale += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert not stale, f"re-exported but missing from the module's __all__: {stale}"


# Public names with no caller in the program, kept on purpose:
KEEP_UNUSED = {
    "evaluate_geometry",             # custom-model surface the README documents
    "make_open_uniform_knot_vector",  # custom-model surface the README documents
    "standard_slenderness_cases",    # the slenderness sweeps of the locking map
    "convergence_rate",              # observed rates of the locking map
}


def _used_names(path: Path) -> set[str]:
    """Names a file reads, as a name or an attribute. Definitions, import
    lines and the strings of `__all__` are not reads, so they do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_public_name_has_a_caller():
    root = Path(casrod.__file__).parent
    sources = sorted(root.glob("*.py")) + sorted((root.parents[1] / "perfbench").glob("*.py"))
    used = set().union(*map(_used_names, sources))
    unused = [f"{name}.{n}" for name in MODULES
              for n in getattr(importlib.import_module(name), "__all__", ())
              if n not in used and n not in KEEP_UNUSED]
    assert not unused, f"public names with no caller in src/casrod or perfbench: {unused}"
