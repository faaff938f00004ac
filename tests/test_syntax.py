"""Python 3.10 syntax guard for the package and its tests.

`requires-python` is >= 3.10, but the suite may run under a newer
interpreter. Parsing with `feature_version=(3, 10)` rejects most syntax
added after 3.10 (best effort: the parser does not catch every newer form).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "casrod").glob("*.py"), *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
