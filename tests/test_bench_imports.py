"""Every name the benchmark imports from remdecay still exists, so a change
that removes one fails here instead of in a benchmark run."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_imports():
    """(file, module, name) for each ``from remdecay... import name`` in bench/*.py."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "remdecay":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_bench_imports_resolve():
    imports = list(bench_imports())
    assert imports
    missing = [
        f"{path}: from {module} import {name}"
        for path, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
