"""The test suite's third-party imports are declared in pyproject.toml.

An environment built from `pip install .[test]` must be able to collect every
test module: each package a test imports is named in `dependencies` or in the
`test` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def _import_roots(path: Path) -> set[str]:
    """The top-level package of every absolute import in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def _requirement_name(spec: str) -> str:
    """The distribution name of a requirement, normalized as an import name."""
    return re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")


def test_every_third_party_test_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = {
        _requirement_name(spec)
        for spec in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    modules = sorted(TESTS.glob("*.py"))
    local = {path.stem for path in modules} | {"mimosim"}
    roots = set().union(*map(_import_roots, modules)) - set(sys.stdlib_module_names) - local
    assert "hypothesis" in roots and "numpy" in roots
    assert sorted(roots - declared) == []
