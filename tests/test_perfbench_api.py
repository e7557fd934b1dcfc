"""Every `bootforge` name the benchmark in `perfbench/` uses still exists.

The benchmark is run unchanged against each commit, so an API edit that
breaks it (a renamed function, a dropped keyword such as
`ParserConfig(require_walk=...)`) must fail here first.  The benchmark's
files are only read: every name imported from `bootforge`, every attribute
taken from such a name, and every call to one, whose arguments must bind to
the callee's signature.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(p.name for p in PERFBENCH.glob("*.py"))


def _bootforge_names(tree: ast.AST) -> dict:
    """Local name -> object, for every name the file imports from bootforge."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "bootforge":
                    names[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bootforge"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")  # a submodule
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _resolve(node: ast.expr, names: dict):
    """The object a `name` or `name.attr...` expression rooted in bootforge
    denotes, or None for anything else; a missing attribute fails the test."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        if owner is None:
            return None
        assert hasattr(owner, node.attr), f"{ast.unparse(node)} is gone (line {node.lineno})"
        return getattr(owner, node.attr)
    return None


@pytest.mark.parametrize("source", SOURCES)
def test_names_and_calls_resolve(source):
    tree = ast.parse((PERFBENCH / source).read_text())
    names = _bootforge_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _resolve(node, names)
        elif isinstance(node, ast.Call):
            callee = _resolve(node.func, names)
            if callee is None or not callable(callee):
                continue
            keywords = {k.arg: None for k in node.keywords}
            if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                continue  # unpacked arguments cannot be bound without running the call
            try:
                inspect.signature(callee).bind(*node.args, **keywords)
            except TypeError as exc:
                pytest.fail(f"{ast.unparse(node)} (line {node.lineno}): {exc}")


def test_the_benchmark_uses_bootforge():
    # Guards the guard: an import style the parser above misses would make
    # every file look like it uses nothing.
    used = set()
    for source in SOURCES:
        used |= set(_bootforge_names(ast.parse((PERFBENCH / source).read_text())))
    assert {"bootsim", "firm", "forge", "modmath", "sigparser", "cli", "ParserConfig"} <= used
