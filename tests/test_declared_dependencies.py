"""Packaging guard: ``pyproject.toml`` declares what ``src/repro`` imports.

The third-party set is read off the source with an AST walk that includes
function-level imports, so a deferred import (scipy, loaded on the first
§4.6 LP solve) still has to be declared.  The console script must resolve
to a callable entry point.
"""

import ast
import importlib
import re
import sys
import tomllib
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def pyproject():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def _canonical(name: str) -> str:
    """PEP 503 normalised distribution name."""
    return re.sub(r"[-_.]+", "-", name).lower()


@pytest.fixture(scope="module")
def third_party_imports():
    """Top-level non-stdlib modules imported anywhere under ``src/repro``."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def test_declared_dependencies_are_exactly_the_imported_ones(pyproject, third_party_imports):
    declared = {
        _canonical(re.match(r"[A-Za-z0-9_.-]+", spec).group())
        for spec in pyproject["project"]["dependencies"]
    }
    assert declared == {_canonical(name) for name in third_party_imports}


def test_version_is_read_from_the_package(pyproject):
    assert "version" in pyproject["project"]["dynamic"]
    attr = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module, _, name = attr.rpartition(".")
    assert getattr(importlib.import_module(module), name) == repro.__version__


def test_console_script_resolves_to_a_callable(pyproject):
    target = pyproject["project"]["scripts"]["repro-experiments"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
