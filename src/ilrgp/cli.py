"""Command-line front end: fit, eval, predict, sweep, experiment, sigma-bound.

Configuration is a flat JSON file; every ``--set key=value`` flag overrides
the matching key. The effective configuration is echoed into every output
for provenance. All commands are deterministic given the seeds in their
configuration; outputs carry no timestamps, so reruns are byte-identical.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage or
configuration errors (including missing input files).
"""

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .classifiers import GpdClassifierConfig, IlrClassifierConfig, fit_classifier, predict_proba
from .data import (
    ConfigError,
    SplitSpec,
    _number,
    apply_normalizer,
    fit_normalizer,
    load_table,
    split,
    write_text,
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


def load_config(path, sets, validate_keys=True) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        with open(p, encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key in user:
            if validate_keys and key not in DEFAULT_CONFIG:
                raise ConfigError(f"unknown config key {key!r}")
        cfg.update(user)
    for item in sets or []:
        key, value = _parse_set(item)
        if validate_keys and key not in DEFAULT_CONFIG:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    return cfg


def classifier_config(cfg: dict, num_classes: int):
    common = {
        "mc_samples": _number(cfg, "mc_samples", int),
        "prediction_mode": cfg["prediction_mode"],
        "backend": cfg["backend"],
        "num_inducing": None if cfg["num_inducing"] is None else _number(cfg, "num_inducing", int),
        "backend_seed": _number(cfg, "backend_seed", int),
    }
    try:
        if cfg["model"] == "ilr":
            smoothing = SmoothingConfig(float(cfg["lambda"]), num_classes, float(cfg["epsilon"]))
            noise = cfg["noise_sigma"]
            return IlrClassifierConfig(smoothing, None if noise is None else float(noise), **common)
        if cfg["model"] == "gpd":
            return GpdClassifierConfig(float(cfg["alpha_eps"]), num_classes, **common)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    raise ConfigError(f"model must be 'ilr' or 'gpd', got {cfg['model']!r}")


def opt_config(cfg: dict) -> OptConfig:
    try:
        return OptConfig(
            max_iters=_number(cfg, "max_iters", int),
            grad_tol=_number(cfg, "grad_tol", float),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _split_spec(cfg: dict) -> SplitSpec:
    return SplitSpec(cfg["split_train"], cfg["split_val"], cfg["split_test"], seed=_number(cfg, "seed", int))


def _require_file(path) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"input file not found: {path}")
    return p


def _prepare_training(cfg, data_path):
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


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _dump_json(obj):
    sys.stdout.write(_json_text(obj))


def write_json(path, obj):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_text(path, _json_text(obj))


def write_csv(path, rows, columns):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[c]) for c in columns])
    write_text(path, buf.getvalue())


def _format_cell(v):
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


def _fit(train, ccfg, opt: OptConfig):
    if ccfg.backend == "collapsed" and ccfg.num_inducing > train.n:
        raise ConfigError(
            f"num_inducing={ccfg.num_inducing} exceeds the {train.n} training rows"
        )
    return fit_classifier(train.X, train.labels, ccfg, opt)


def cmd_fit(args) -> int:
    cfg = load_config(args.config, args.set)
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
        train, val, test = split(ds, artifact.split)
        subset = {"train": train, "val": val, "test": test}[which]
    if subset.n == 0:
        raise ConfigError(f"the {which} split of {data_path} is empty")
    if artifact.norm_stats is not None:
        subset = apply_normalizer(subset, artifact.norm_stats)
    return subset


def cmd_eval(args) -> int:
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
    artifact = load_model(_require_file(args.model))
    subset = _eval_subset(artifact, args.data, args.split)
    pred = predict_proba(artifact.model, subset.X, artifact.classifier_config, artifact.seed)
    K = pred.probs.shape[1]
    columns = [f"prob_{k}" for k in range(1, K + 1)] + ["label_hat"]
    rows = [
        {**{f"prob_{k + 1}": float(p[k]) for k in range(K)}, "label_hat": int(lh)}
        for p, lh in zip(pred.probs, pred.labels_hat)
    ]
    write_csv(args.out, rows, columns)
    write_json(str(args.out) + ".meta.json", {"config": artifact.effective_config, "rows": len(rows)})
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.set)
    ds, spec, _, train, val, _ = _prepare_training(cfg, args.data)
    if val.n == 0:
        raise ConfigError("sweep selects on the validation split, which is empty")
    if cfg["model"] == "ilr":
        grid_key, grid = "lambda", cfg["lambda_grid"]
    else:
        grid_key, grid = "alpha_eps", cfg["alpha_eps_grid"]
    opt = opt_config(cfg)
    rows = []
    for value in grid:
        cell_cfg = dict(cfg)
        cell_cfg[grid_key] = value
        ccfg = classifier_config(cell_cfg, ds.num_classes)
        model = _fit(train, ccfg, opt)
        pred = predict_proba(model, val.X, ccfg, spec.seed)
        rep = evaluate(pred.probs, val.labels, pred.labels_hat)
        rows.append({"setting": value, "val_nll": rep.nll, "val_error": rep.error, "val_ece": rep.ece})
    winner = min(rows, key=lambda r: r["val_nll"])
    out_dir = Path(args.out_dir)
    write_csv(out_dir / "grid.csv", rows, ["setting", "val_nll", "val_error", "val_ece"])
    selection = {
        "parameter": grid_key,
        "selected": winner["setting"],
        "val_nll": winner["val_nll"],
        "config": cfg,
    }
    write_json(out_dir / "selection.json", selection)
    _dump_json(selection)
    return 0


def cmd_experiment(args) -> int:
    params = {}
    for item in args.set or []:
        key, value = _parse_set(item)
        params[key] = value
    try:
        rows, summary = run_experiment(args.name, params)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    out_dir = Path(args.out_dir)
    columns = list(rows[0].keys()) if rows else []
    seed_key = "seed" if rows and "seed" in rows[0] else ("repeat" if rows and "repeat" in rows[0] else None)
    if seed_key is None:
        write_csv(out_dir / "runs" / args.name / "0" / "results.csv", rows, columns)
    else:
        for seed_value in sorted({row[seed_key] for row in rows}):
            chunk = [r for r in rows if r[seed_key] == seed_value]
            write_csv(out_dir / "runs" / args.name / str(seed_value) / "results.csv", chunk, columns)
    write_csv(out_dir / "results.csv", rows, columns)
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
    # Single-threaded BLAS: the matrices here are small enough that thread
    # spin-up costs more than it saves, and results stay bit-reproducible
    # regardless of core count.
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(1)
    except ImportError:
        pass
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
