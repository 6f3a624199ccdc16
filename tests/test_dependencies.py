"""The test suite's third-party imports are declared in pyproject.toml, and the
library's modules carry no dead imports, private names or parameters.

An environment built from `pip install .[test]` must be able to collect every
test module: each package a test imports is named in `dependencies` or in the
`test` extra. In `src/mimosim`, what a deletion leaves behind fails here: an
import the module no longer uses, a private module-level name nothing in it
references, or a function parameter, `self` aside, that the function's body
never reads. The import check skips `__init__.py`, as its imports are the
public API.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"
PACKAGE = TESTS.parent / "src" / "mimosim"


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


def _unused_names(path: Path) -> list[str]:
    """Imported names, and private module-level names, that the module never loads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        bound += [n for n in names if n.startswith("_") and not n.startswith("__")]
    return [f"{path.name}: {name}" for name in bound if name not in loaded]


def test_every_library_import_and_private_name_is_used():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(modules) >= 8
    assert [name for path in modules for name in _unused_names(path)] == []


def _unread_parameters(path: Path) -> list[str]:
    """Parameters, `self` aside, that their function's body never loads.

    The argparse handlers `_cmd_*` of cli.py all take `args`, read or not.
    """
    unread = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for stmt in body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        handler = path.name == "cli.py" and name.startswith("_cmd_")
        unread += [f"{path.name}: {name}({param})" for param in params
                   if param not in loaded and param != "self" and not (handler and param == "args")]
    return unread


def test_every_library_parameter_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    assert [entry for path in modules for entry in _unread_parameters(path)] == []
