"""Command-line front end: fit, eval, predict, sweep, experiment, sigma-bound.

Configuration is a flat JSON file; every ``--set key=value`` flag overrides
the matching key. The effective configuration is echoed into every output
for provenance. All commands are deterministic given the seeds in their
configuration; outputs carry no timestamps, so reruns are byte-identical.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage or
configuration errors (including missing input files, a directory given
as a file path and an output path through a regular file). Such output
paths, and output files that are directories, fail before any data is read.

BLAS runs on one thread unless the caller sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``: the matrices here are small, and
a fixed thread count keeps outputs the same bits on any core count. The
default is set before numpy loads, which is the only time it takes effect.
"""

import argparse
import json
import os
import sys
from itertools import chain
from pathlib import Path

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .classifiers import classifier_config, fit_classifier, predict_proba
from .data import (
    ConfigError,
    SplitSpec,
    _check_output_dir,
    _check_output_file,
    _number,
    apply_normalizer,
    fit_normalizer,
    json_text,
    load_table,
    read_json,
    split,
    write_csv,
    write_json,
)
from .experiments import EXPERIMENT_NAMES, run_experiment
from .metrics import evaluate
from .model_io import ModelArtifact, load_model, save_model
from .optimize import OptConfig
from .simplex import SmoothingConfig, separation_delta, sigma_bound


DEFAULT_CONFIG = {
    "model": "ilr",
    "backend": "exact",
    "num_inducing": 64,
    "backend_seed": 0,
    "lambda": 0.99,
    "epsilon": 1e-6,
    "noise_sigma": None,
    "alpha_eps": 0.01,
    "mc_samples": 1000,
    "prediction_mode": "latent-f",
    "normalization": "zscore",
    "label_column": "label",
    "split_train": 0.72,
    "split_val": 0.08,
    "split_test": 0.2,
    "seed": 0,
    "max_iters": 500,
    "grad_tol": 1e-5,
    "lambda_grid": [0.95, 0.99, 0.999, 0.9999],
    "alpha_eps_grid": [0.1, 0.01, 0.001, 0.0001],
}


def _parse_set(item: str):
    if "=" not in item:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def load_config(path, sets) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    items = []
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        user = read_json(p, "config file")
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        items = list(user.items())
    for key, value in chain(items, map(_parse_set, sets or [])):
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    return cfg


def opt_config(cfg: dict) -> OptConfig:
    try:
        return OptConfig(
            max_iters=_number(cfg, "max_iters", int),
            grad_tol=_number(cfg, "grad_tol", float),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _split_spec(cfg: dict) -> SplitSpec:
    try:
        return SplitSpec(cfg["split_train"], cfg["split_val"], cfg["split_test"], seed=_number(cfg, "seed", int))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _require_file(path) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"input file not found: {path}")
    return p


def _prepare_training(cfg, data_path):
    if cfg["normalization"] not in ("zscore", "minmax11", "none"):
        raise ConfigError(f"normalization must be zscore, minmax11 or none, got {cfg['normalization']!r}")
    ds = load_table(_require_file(data_path), cfg["label_column"])
    spec = _split_spec(cfg)
    try:
        train, val, test = split(ds, spec)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if train.n < 2:
        raise ConfigError(f"the training split has {train.n} rows; fitting needs at least 2")
    if cfg["normalization"] == "none":
        stats = None
    else:
        stats = fit_normalizer(train.X, cfg["normalization"])
        train = apply_normalizer(train, stats)
        val = apply_normalizer(val, stats)
        test = apply_normalizer(test, stats)
    return ds, spec, stats, train, val, test


def _dump_json(obj):
    sys.stdout.write(json_text(obj))


def _fit(train, ccfg, opt: OptConfig):
    if ccfg.backend == "collapsed" and ccfg.num_inducing > train.n:
        raise ConfigError(
            f"num_inducing={ccfg.num_inducing} exceeds the {train.n} training rows"
        )
    return fit_classifier(train.X, train.labels, ccfg, opt)


def cmd_fit(args) -> int:
    cfg = load_config(args.config, args.set)
    _check_output_file(args.out)
    ds, spec, stats, train, _, _ = _prepare_training(cfg, args.data)
    ccfg = classifier_config(cfg, ds.num_classes)
    opt = opt_config(cfg)
    model = _fit(train, ccfg, opt)
    info = model.fit_info
    if not info["converged"]:
        print(
            f"warning: fit did not converge: stop={info['stop']}, iterations={info['iterations']}, "
            f"evaluations={info['evaluations']}, final_grad_max={info['final_grad_max']:.3g}, "
            f"grad_tol={opt.grad_tol:.3g}",
            file=sys.stderr,
        )
    artifact = ModelArtifact(
        classifier_config=ccfg,
        model=model,
        norm_stats=stats,
        seed=spec.seed,
        split=spec,
        label_column=cfg["label_column"],
        data_fingerprint={"n": ds.n, "num_classes": ds.num_classes},
        effective_config=cfg,
    )
    save_model(args.out, artifact)
    _dump_json({"model_file": str(args.out), "fit": model.fit_info, "config": cfg})
    return 0


def _eval_subset(artifact, data_path, which):
    ds = load_table(_require_file(data_path), artifact.label_column)
    fp = artifact.data_fingerprint
    if fp and (fp.get("n") != ds.n or fp.get("num_classes") != ds.num_classes):
        raise ConfigError(
            f"data file does not match the model's training data "
            f"(expected n={fp.get('n')}, K={fp.get('num_classes')}; got n={ds.n}, K={ds.num_classes})"
        )
    if which == "all" or artifact.split is None:
        subset = ds
    else:
        try:
            train, val, test = split(ds, artifact.split)
        except ValueError as e:  # fractions or counts in the model file that do not fit the data
            raise ConfigError(f"the model's split does not apply to {data_path}: {e}") from None
        subset = {"train": train, "val": val, "test": test}[which]
    if subset.n == 0:
        raise ConfigError(f"the {which} split of {data_path} is empty")
    if artifact.norm_stats is not None:
        subset = apply_normalizer(subset, artifact.norm_stats)
    return subset


def cmd_eval(args) -> int:
    if args.out:
        _check_output_file(args.out)
    artifact = load_model(_require_file(args.model))
    subset = _eval_subset(artifact, args.data, args.split)
    pred = predict_proba(artifact.model, subset.X, artifact.classifier_config, artifact.seed)
    report = evaluate(pred.probs, subset.labels, pred.labels_hat)
    payload = report.to_dict()
    payload["config"] = artifact.effective_config
    _dump_json(payload)
    if args.out:
        write_json(args.out, payload)
    return 0


def cmd_predict(args) -> int:
    meta = str(args.out) + ".meta.json"
    _check_output_file(args.out)
    _check_output_file(meta)
    artifact = load_model(_require_file(args.model))
    subset = _eval_subset(artifact, args.data, args.split)
    pred = predict_proba(artifact.model, subset.X, artifact.classifier_config, artifact.seed)
    header = [f"prob_{k}" for k in range(1, pred.probs.shape[1] + 1)] + ["label_hat"]
    rows = [p + [lh] for p, lh in zip(pred.probs.tolist(), pred.labels_hat.tolist())]
    write_csv(args.out, header, rows)
    write_json(meta, {"config": artifact.effective_config, "rows": len(rows)})
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set)
    grid_key = "lambda" if cfg["model"] == "ilr" else "alpha_eps"
    grid = cfg[f"{grid_key}_grid"]
    if not isinstance(grid, list) or not grid:
        raise ConfigError(f"{grid_key}_grid must be a non-empty list, got {grid!r}")
    _check_output_dir(args.out_dir)
    ds, spec, _, train, val, _ = _prepare_training(cfg, args.data)
    if val.n == 0:
        raise ConfigError("sweep selects on the validation split, which is empty")
    opt = opt_config(cfg)
    rows = []
    for value in grid:
        cell_cfg = dict(cfg)
        cell_cfg[grid_key] = value
        ccfg = classifier_config(cell_cfg, ds.num_classes)
        model = _fit(train, ccfg, opt)
        pred = predict_proba(model, val.X, ccfg, spec.seed)
        rep = evaluate(pred.probs, val.labels, pred.labels_hat)
        rows.append([value, rep.nll, rep.error, rep.ece])
    setting, val_nll = min(rows, key=lambda r: r[1])[:2]
    out_dir = Path(args.out_dir)
    write_csv(out_dir / "grid.csv", ["setting", "val_nll", "val_error", "val_ece"], rows)
    selection = {"parameter": grid_key, "selected": setting, "val_nll": val_nll, "config": cfg}
    write_json(out_dir / "selection.json", selection)
    _dump_json(selection)
    return 0


def cmd_experiment(args) -> int:
    params = {}
    for item in args.set or []:
        key, value = _parse_set(item)
        params[key] = value
    _check_output_dir(args.out_dir)
    try:
        rows, summary = run_experiment(args.name, params)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    out_dir = Path(args.out_dir)
    runs = out_dir / "runs" / args.name
    columns = list(rows[0]) if rows else []
    table = [list(row.values()) for row in rows]
    seed_key = next((key for key in ("seed", "repeat") if key in columns), None)
    if seed_key is None:
        write_csv(runs / "0" / "results.csv", columns, table)
    else:
        i = columns.index(seed_key)
        for seed_value in sorted({row[i] for row in table}):
            chunk = [row for row in table if row[i] == seed_value]
            write_csv(runs / str(seed_value) / "results.csv", columns, chunk)
    write_csv(out_dir / "results.csv", columns, table)
    payload = {"experiment": args.name, "params": params, "summary": summary}
    write_json(out_dir / "summary.json", payload)
    _dump_json(payload)
    return 0


def cmd_sigma_bound(args) -> int:
    try:
        cfg = SmoothingConfig(args.lam, args.classes, args.epsilon)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    _dump_json({
        "lambda": args.lam,
        "K": args.classes,
        "epsilon": args.epsilon,
        "delta": separation_delta(cfg),
        "sigma": sigma_bound(cfg),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilrgp",
        description="Conjugate multiclass GP classification in log-ratio coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="train a classifier and save the model file")
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--data", required=True, help="CSV data file")
    p.add_argument("--out", required=True, help="output model file (JSON)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="evaluate a saved model on a data split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write predictive probabilities to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="grid sweep with validation-NLL selection")
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("experiment", help="run a named experiment pipeline")
    p.add_argument("name", choices=list(EXPERIMENT_NAMES))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="experiment parameter")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sigma-bound", help="closed-form noise bound for a smoothing setup")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.set_defaults(func=cmd_sigma_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
