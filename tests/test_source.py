"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

import pytest

import gpfree

MODULES = sorted(Path(gpfree.__file__).parent.glob("*.py"))


def test_modules_found():
    assert "quaternion.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so an invariant that guards a
    # result must be an explicit raise.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"
