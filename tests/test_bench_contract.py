"""The benchmark scripts use the package directly; a refactor must keep what they use working."""

import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from ilrgp.data import gen_circle_mixture, save_table

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


def _run(*argv):
    """stdout of a Python child started with ``argv``; it must exit 0."""
    proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "data.csv"
    save_table(gen_circle_mixture(3, 120, 0.15, seed=1), path)
    return path


@pytest.mark.parametrize("backend", [[], ["--set", "backend=collapsed", "--set", "num_inducing=8"]],
                         ids=["exact", "collapsed"])
def test_traced_twin_matches_the_cli(backend, bench_csv, tmp_path):
    """bench/traced.py's fit and eval print and write what `ilrgp fit` / `ilrgp eval` do."""
    sets = [*backend, "--set", "max_iters=3", "--set", "mc_samples=50"]
    traced, cli = [BENCH / "traced.py"], ["-m", "ilrgp.cli"]
    fits = {}
    for name, script, extra in (("traced", traced, ["--spans", tmp_path / "fit.spans"]), ("cli", cli, [])):
        model = tmp_path / f"{name}.json"
        out = _run(*script, "fit", "--data", bench_csv, "--out", model, *extra, *sets)
        fits[name] = (out.replace(json.dumps(str(model)), '"MODEL"'), model.read_bytes())
    assert fits["traced"] == fits["cli"]

    model = tmp_path / "cli.json"
    traced_eval = _run(*traced, "eval", "--model", model, "--data", bench_csv, "--spans", tmp_path / "eval.spans")
    assert traced_eval == _run(*cli, "eval", "--model", model, "--data", bench_csv, "--split", "test")

    probe = json.loads(_run(*traced, "probe", "--model", model, "--data", bench_csv,
                            "--spans", tmp_path / "probe.spans", "--scratch", tmp_path / "scratch.json"))
    assert probe and all(math.isfinite(v) for v in probe.values())
