"""Source hygiene a linter would check: unread imports, the package's __all__."""

import ast
import types
from pathlib import Path

import pytest

import helistar

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for top in ("src/helistar", "tests", "demos") for path in (ROOT / top).rglob("*.py")
)


def unread_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that the module never reads (__all__ entries count as reads)."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_imports(path):
    assert unread_imports(ast.parse(path.read_text(), str(path))) == []


def test_unread_import_is_caught():
    tree = ast.parse("import os\nfrom sys import argv, path as p\nprint(argv)\n")
    assert unread_imports(tree) == ["line 1: os", "line 2: p"]


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(helistar).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(helistar.__all__) == sorted(public)
