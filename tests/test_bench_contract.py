"""The benchmark scripts import package names directly; a refactor must keep each one."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_imports(path):
    """``(module, name)`` for every ``from ilrgp.<mod> import name`` in a script."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ilrgp.")
        for alias in node.names
    }


def test_bench_imports_resolve():
    imports = set().union(*(_package_imports(p) for p in sorted(BENCH.glob("*.py"))))
    assert ("ilrgp.gp", "predict_latent_batch") in imports  # the parse found the probes
    missing = sorted(f"{m}.{n}" for m, n in imports if not hasattr(importlib.import_module(m), n))
    assert not missing, f"bench/ imports names the package no longer has: {missing}"
