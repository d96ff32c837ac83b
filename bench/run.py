#!/usr/bin/env python3
"""ilrgp benchmark: a user running `ilrgp fit`, then `ilrgp eval --split test`.

Run from the repository root (nothing needs installing; children import
ilrgp from ./src):

    python3 bench/run.py --workload exact-ilr --seed 1 --seconds 30 --trace 0

Set-up draws DATASETS workload CSVs from ``--seed``. With ``--trace 0`` the
run is a closed loop with one client: one `ilrgp fit` child, then one
`ilrgp eval` child, on each dataset in turn, repeated while another cycle
still fits in ``--seconds`` (every dataset at least once). With ``--trace 1``
it runs one such cycle on the first dataset, the same fit and eval traced
in-process (bench/traced.py), per-layer probes, and no-op CLI starts. Every
child gets one BLAS thread; every operation passes a correctness gate.

The last stdout line is the result JSON; the line before it holds details
(environment, fit info, failures, per-layer self times). Both are also
written to ``.bench_out/`` in the repository root, with a traced run's spans.
"""

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, split_sizes, write_csv

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Each dataset CSV is written this many times; setup_s is the median.
SETUP_REPEATS = 3
# No-op CLI starts timed for cli.startup_s.
STARTUP_REPEATS = 5
# Whole-run limit; a child still running past it is killed and counted failed.
RUN_LIMIT_S = 170.0
# Chance error for K=3 classes; a working classifier must beat it.
CHANCE_ERROR = 2.0 / 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "eval_s": "s",
    "fit_neg_objective": "nats",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "data.load_table_s": "s",
    "data.split_normalize_s": "s",
    "kernel.gram_s": "s",
    "kernel.cholesky_s": "s",
    "kernel.cross_gram_s": "s",
    "gp.mll_s": "s",
    "gp.mll_gradient_s": "s",
    "gp.initial_kernel_s": "s",
    "gp.predictive_s": "s",
    "gp.finalize_s": "s",
    "sparse.bound_s": "s",
    "sparse.kmeanspp_s": "s",
    "sparse.predictive_s": "s",
    "sparse.finalize_s": "s",
    "optimize.iterations": "count",
    "optimize.converged": "bool",
    "optimize.final_grad_max": "nats",
    "optimize.step_s": "s",
    "classifiers.fit_classifier_s": "s",
    "classifiers.predict_proba_s": "s",
    "classifiers.mc_link_s": "s",
    "classifiers.mc_draws": "count",
    "metrics.evaluate_s": "s",
    "model_io.save_s": "s",
    "model_io.load_s": "s",
    "model_io.model_bytes": "bytes",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "test_error": "fraction",
    "test_nll": "nats",
    "test_ece": "fraction",
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_BLAS)
    env.pop("PYTHONHOME", None)
    return env


class Child:
    """One finished child process: wall time, exit code, peak RSS and output."""

    def __init__(self, argv, work: Path, tag: str, deadline: float):
        out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=work)
            killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")

    def problem(self):
        if self.code != 0:
            return f"exit code {self.code}: {self.stderr.strip()[-300:]}"
        return None


class Run:
    """State of one benchmark run: work directory, deadline, operation gate."""

    def __init__(self, workload, smoke: bool, work: Path):
        self.rows, self.sets = workload.size(smoke)
        self.n_test = split_sizes(self.rows, self.sets)[2]
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failures = []
        # Per dataset: the first cycle's fit stdout, model bytes and eval stdout.
        self.reference = {}

    def check(self, op: str, problem) -> bool:
        self.attempted += 1
        if problem:
            self.failures.append(f"{op}: {problem}")
        return not problem

    def child(self, argv, tag) -> Child:
        return Child(argv, self.work, tag, self.deadline)

    def cli(self, tag, *args) -> Child:
        return self.child([sys.executable, "-m", "ilrgp.cli", *args], tag)

    def traced_child(self, tag, *args) -> Child:
        return self.child([sys.executable, str(BENCH / "traced.py"), *args], tag)

    def set_args(self) -> list:
        return [a for s in self.sets for a in ("--set", s)]

    def cycle(self, data: Path, tag: str):
        """One `ilrgp fit` then one `ilrgp eval` on ``data``, both gated.

        Returns ``(fit child, eval child, fit info, report)``; info and report
        are ``None`` when an operation failed. Later cycles on the same data
        must repeat the first one's outputs byte for byte.
        """
        model = data.with_suffix(".model.json")
        fit = self.cli(f"fit{tag}", "fit", "--data", str(data), "--out", str(model), *self.set_args())
        problem, info = fit_problem(fit)
        ref = self.reference.get(data)
        if not problem and ref and (fit.stdout, model.read_bytes()) != ref[:2]:
            problem = "fit output or model file differs from the first fit of this dataset"
        if not self.check(f"fit{tag}", problem):
            self.check(f"eval{tag}", "skipped: fit failed")
            return fit, None, None, None
        ev = self.cli(f"eval{tag}", "eval", "--model", str(model), "--data", str(data), "--split", "test")
        problem, report = eval_problem(ev, self.n_test)
        if not problem and ref and ev.stdout != ref[2]:
            problem = "eval report differs from the first eval of this dataset"
        if not self.check(f"eval{tag}", problem):
            return fit, ev, None, None
        self.reference.setdefault(data, (fit.stdout, model.read_bytes(), ev.stdout))
        return fit, ev, info, report


def fit_problem(child: Child):
    problem = child.problem()
    if problem:
        return problem, None
    try:
        fit = json.loads(child.stdout)["fit"]
        objective = float(fit["objective"])
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable fit output: {e!r}", None
    if not math.isfinite(objective):
        return f"objective not finite: {objective}", None
    return None, fit


def eval_problem(child: Child, n_test: int):
    problem = child.problem()
    if problem:
        return problem, None
    try:
        report = json.loads(child.stdout)
        values = [float(report[k]) for k in ("error", "nll", "ece")]
        counted = sum(int(b["count"]) for b in report["bins"])
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable eval report: {e!r}", None
    if not all(math.isfinite(v) for v in values):
        return f"non-finite report values {values}", None
    if counted != n_test:
        return f"bin counts sum to {counted}, the test split has {n_test} rows", None
    if not report["error"] < CHANCE_ERROR:
        return f"test error {report['error']} not below chance {CHANCE_ERROR:.4f}", None
    return None, report


def setup(run: Run, seed: int, count: int):
    """Draw ``count`` datasets from ``seed`` into CSVs; returns paths and write times."""
    import ilrgp.data  # noqa: F401  (importing is not set-up work)

    paths, times = [], []
    for j in range(count):
        path = run.work / f"data{j}.csv"
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            write_csv(path, run.rows, [seed, j])
            times.append(time.perf_counter() - start)
        paths.append(path)
    return paths, times


def untraced(run: Run, datasets, seconds: float):
    cycles, fits = [], {}
    start = time.perf_counter()
    for i in itertools.count():
        data = datasets[i % len(datasets)]
        fit, ev, info, report = run.cycle(data, str(i))
        if report is not None:
            cycles.append((fit, ev))
            fits.setdefault(data.name, info)
        elapsed = time.perf_counter() - start
        if i + 1 >= len(datasets) and elapsed * (i + 2) / (i + 1) > seconds:
            break
    if len(fits) < len(datasets):
        return None, {}
    metrics = {
        "fit_s": statistics.median(f.wall for f, _ in cycles),
        "eval_s": statistics.median(e.wall for _, e in cycles),
        "fit_neg_objective": statistics.median(-info["objective"] for info in fits.values()),
        "peak_rss_mb": max(max(f.rss_mb, e.rss_mb) for f, e in cycles),
    }
    detail = {
        "fit": fits,
        "fit_s_all": [f.wall for f, _ in cycles],
        "eval_s_all": [e.wall for _, e in cycles],
    }
    return metrics, detail


def traced(run: Run, data: Path, spans_path: Path):
    from spans import layer_self_times, read_spans, self_times, write_spans

    fit, ev, info, report = run.cycle(data, "")
    if report is None:
        return None, {}
    model = data.with_suffix(".model.json")
    t_model = run.work / "traced.model.json"
    t_fit = run.traced_child("traced_fit", "fit", "--data", str(data), "--out", str(t_model),
                             "--spans", str(run.work / "fit.spans"), *run.set_args())
    problem = t_fit.problem()
    if not problem:
        cli_out, traced_out = json.loads(fit.stdout), json.loads(t_fit.stdout)
        if (cli_out["fit"], cli_out["config"]) != (traced_out["fit"], traced_out["config"]):
            problem = "traced fit output differs from `ilrgp fit`'s"
        elif t_model.read_bytes() != model.read_bytes():
            problem = "traced model file differs from `ilrgp fit`'s"
    if not run.check("traced_fit", problem):
        return None, {}
    t_eval = run.traced_child("traced_eval", "eval", "--model", str(t_model), "--data", str(data),
                              "--spans", str(run.work / "eval.spans"))
    problem = t_eval.problem()
    if not problem and t_eval.stdout != ev.stdout:
        problem = "traced eval report differs from `ilrgp eval`'s"
    if not run.check("traced_eval", problem):
        return None, {}
    probe = run.traced_child("probe", "probe", "--model", str(model), "--data", str(data),
                             "--spans", str(run.work / "probe.spans"),
                             "--scratch", str(run.work / "probe.model.json"))
    if not run.check("probe", probe.problem()):
        return None, {}
    starts = []
    for i in range(STARTUP_REPEATS):
        child = run.cli(f"startup{i}", "sigma-bound", "--lambda", "0.99", "--classes", "3")
        if not run.check(f"startup{i}", child.problem()):
            return None, {}
        starts.append(child.wall)

    spans = read_spans(run.work / "fit.spans") + read_spans(run.work / "eval.spans")
    write_spans(spans_path, spans + read_spans(run.work / "probe.spans"))
    metrics = json.loads(probe.stdout.decode().strip().splitlines()[-1])
    metrics.update({
        "optimize.step_s": fit.wall / max(info["iterations"], 1),
        "classifiers.fit_classifier_s": sum(
            s["end"] - s["start"] for s in spans if s["name"] == "classifiers.fit_classifier"),
        "cli.startup_s": statistics.median(starts),
        "trace.overhead_s": (t_fit.wall + t_eval.wall) - (fit.wall + ev.wall),
        "test_error": report["error"],
        "test_nll": report["nll"],
        "test_ece": report["ece"],
    })
    detail = {
        "fit": info,
        "cli_fit_s": fit.wall,
        "cli_eval_s": ev.wall,
        "traced_fit_s": t_fit.wall,
        "traced_eval_s": t_eval.wall,
        "self_time_s": self_times(spans),
        "layer_self_time_s": layer_self_times(spans),
    }
    return metrics, detail


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        import threadpoolctl  # noqa: F401

        has_threadpoolctl = True
    except ImportError:
        has_threadpoolctl = False
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threadpoolctl_importable": has_threadpoolctl,
        "child_blas_env": PINNED_BLAS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ilrgp fit/eval benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test (bench/selftest.py)")
    args = parser.parse_args(argv)
    if not (SRC / "ilrgp" / "__init__.py").is_file():
        print(f"error: no ilrgp sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_BLAS)  # before numpy loads in this process
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload, args.smoke, work)
    try:
        datasets, setup_times = setup(run, args.seed, 1 if args.trace else workload.datasets)
        if args.trace:
            metrics, detail = traced(run, datasets[0], out_dir / f"{tag}.spans.jsonl")
            units = PER_LAYER_UNITS
        else:
            metrics, detail = untraced(run, datasets, args.seconds)
            if metrics:
                metrics["setup_s"] = statistics.median(setup_times)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(workload=workload.name, rows=run.rows, sets=list(run.sets), setup_s_all=setup_times,
                  failures=run.failures, environment=environment(args.seed))
    print(json.dumps(detail, sort_keys=True))
    if metrics is None or set(metrics) != set(units):
        print(f"error: no complete measurement; failures: {run.failures}", file=sys.stderr)
        return 1
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (out_dir / f"{tag}.json").write_text(
        json.dumps({"result": result, "detail": detail}, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
