#!/usr/bin/env python3
"""Self-test of the benchmark harness, at smoke size.

    python3 bench/selftest.py

Runs ``bench/run.py --smoke`` (a few dozen to a few hundred rows, a handful
of optimizer steps, 50 Monte-Carlo samples) on every workload named in
BENCHMARK.json, untraced and traced. Each result line must hold exactly the
metrics BENCHMARK.json names for that mode, with their units, and no failed
operation. Then runs the harness in a copy holding only BENCHMARK.json and
bench/, where it must fail without printing a result. Exits 0 when all
checks pass; takes about 40 seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def run_bench(root: Path, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def result_problems(proc, declared: dict) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        return [f"last stdout line is not JSON: {e!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}: {lines[-2][:500]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"missing {sorted(set(declared) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
    return problems


def bare_copy_problems() -> list:
    """The harness must refuse to run without the program's sources."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(bare, "exact-ilr", 0, smoke=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["exit code 0 without the program's sources"]
    if '"metrics"' in proc.stdout:
        return ["printed a result without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in modes.items():
            problems = result_problems(run_bench(ROOT, workload, trace), declared)
            failures += [f"{workload} --trace {trace}: {p}" for p in problems]
            print(f"{workload} --trace {trace}: {'FAIL' if problems else 'ok'}", flush=True)
    problems = bare_copy_problems()
    failures += [f"bare copy: {p}" for p in problems]
    print(f"bare copy: {'FAIL' if problems else 'ok'}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
