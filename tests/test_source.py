"""Checks on the package source itself, read as syntax trees."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import gpfree

MODULES = sorted(Path(gpfree.__file__).parent.glob("*.py"))


def test_modules_found():
    assert "quaternion.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_all_names_defined(path):
    # perfbench's tracer wraps exactly the names in each module's __all__.
    module = gpfree if path.stem == "__init__" else importlib.import_module(f"gpfree.{path.stem}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so an invariant that guards a
    # result must be an explicit raise.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


# Private names one module may import from another, as (importer, module,
# name).  Every other import of a _-prefixed name across modules fails.
PRIVATE_IMPORTS = {
    ("greedy", "quaternion", "_mul"),
    ("greedy", "quaternion", "_collector_paused"),
    # check_valuation_shares reads the sieve directly and stays as it is.
    ("checks", "counting", "_norm_counts_upto"),
    # The 343 check revalidates witnesses on coordinate tuples.
    ("checks", "quaternion", "_mul"),
    # The Euler product folds the odd primes of counting's one sieve.
    ("density", "counting", "_primes_upto"),
}


def test_no_private_imports_across_modules():
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rpartition(".")[2]
                found.update((path.stem, module, alias.name) for alias in node.names
                             if alias.name.startswith("_"))
    assert found - PRIVATE_IMPORTS == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_stdlib(path):
    # Run time stays stdlib-only: every import, at any depth in the
    # module, names the standard library or gpfree itself.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        outside.update(name.partition(".")[0] for name in names)
    assert outside - sys.stdlib_module_names - {"gpfree"} == set()
