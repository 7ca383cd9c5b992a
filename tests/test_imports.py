"""Every name a library module imports is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mton"
# __init__ imports to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                names[bound] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Names read anywhere, annotations written as strings included."""
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            for part in ast.walk(note) if note else ():
                if isinstance(part, ast.Constant) and isinstance(part.value,
                                                                 str):
                    seen |= _read(ast.parse(part.value, mode="eval"))
    return seen


def test_the_checker_sees_plain_and_annotation_reads():
    tree = ast.parse("from a import b, c, d\nimport e.f\nimport g as h\n"
                     "def k(x: 'c') -> list[d]:\n    return b, e.f\n")
    assert set(_imported(tree)) - _read(tree) == {"h"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = {name: line for name, line in _imported(tree).items()
              if name not in _read(tree)}
    assert unread == {}, f"{path.name}: imported and never read"
