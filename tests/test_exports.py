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
