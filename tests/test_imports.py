"""Every name a `bootforge` module imports is referenced or exported.

The package's `__init__.py` is exempt: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bootforge"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Imported names that no expression, quoted annotation or `__all__` names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            used |= {node.id for node in ast.walk(quoted) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_detects_a_planted_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Optional\n"
        "from .sigparser import ParserConfig, ParserMode, StackModel\n"
        "__all__ = ['StackModel']\n"
        "def f(x: 'Optional[int]') -> ParserMode:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["osp", "ParserConfig"]
