"""Every name the benchmark imports from remdecay still exists, and every
call the benchmark makes to one still binds its positional and keyword
arguments, so a change that removes a name or a parameter fails here
instead of in a benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_imports():
    """(file, module, name) for each ``from remdecay... import name`` in bench/*.py."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "remdecay":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def bench_keyword_calls():
    """(file, line, callee, n_positional, keywords) for each call in bench/*.py
    to a name imported from remdecay, or to an attribute of one
    (``Name.attr(...)``)."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "remdecay"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imported:
                callee = imported[func.id]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in imported):
                callee = getattr(imported[func.value.id], func.attr)
            else:
                continue
            keywords = [kw.arg for kw in node.keywords if kw.arg is not None]  # not **kwargs
            yield path.name, node.lineno, callee, len(node.args), keywords


def test_bench_imports_resolve():
    imports = list(bench_imports())
    assert imports
    missing = [
        f"{path}: from {module} import {name}"
        for path, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_bench_keywords_are_parameters():
    calls = list(bench_keyword_calls())
    assert any(keywords for *_, keywords in calls)
    unknown = []
    for path, line, callee, n_positional, keywords in calls:
        try:
            inspect.signature(callee).bind_partial(*[None] * n_positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unknown.append(f"{path}:{line}: {callee.__qualname__}: {exc}")
    assert unknown == []
