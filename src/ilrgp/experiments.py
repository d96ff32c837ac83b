"""Reproducible desk-scale experiment pipelines.

Each runner returns ``(rows, summary)``: tidy per-run records plus an
aggregate keyed by experiment cell. All randomness is derived from the
experiment seed(s), so reruns with the same parameters produce identical
results.
"""

from dataclasses import replace

import numpy as np

from .classifiers import (
    PREDICTION_MODES,
    GpdClassifierConfig,
    IlrClassifierConfig,
    derive_seed,
    fit_classifier,
    gpd_label_recovery_error,
    predict_proba,
)
from .data import (
    ConfigError,
    SplitSpec,
    _number,
    circle_centers,
    default_circle_mix_sd,
    gen_circle_mixture,
    gen_overlap_toy,
    split,
)
from .metrics import error_rate, evaluate
from .optimize import OptConfig
from .simplex import SmoothingConfig, separation_delta, sigma_bound


def _mean_sd(values):
    vals = np.asarray(values, dtype=float)
    sd = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
    return float(vals.mean()), sd


# Smallest count values: below them a runner averages over nothing (NaN). A fit
# needs 2 training rows; the overlap toy's 60/20/20 split needs n >= 5.
_MINIMUMS = {"num_repeats": 1, "num_seeds": 1, "num_samples": 1, "mc_samples": 1,
             "n": 5, "n_train": 2, "n_test": 1}


def _read_params(params: dict, defaults: dict) -> dict:
    """``defaults`` overridden by ``params``, each value converted like its default.

    The defaults are also the runner's known keys: any other key is an
    error. An int default takes integers and a float default any number, by
    the rule of :func:`ilrgp.data._number`; a list default takes a list of
    its elements' kind; a ``None`` default takes a number or ``None``. A
    count below its entry in ``_MINIMUMS`` is an error.
    """
    for key in params:
        if key not in defaults:
            raise ConfigError(f"unknown parameter {key!r}; expected one of {sorted(defaults)}")
    out = {}
    for key, default in defaults.items():
        value = params.get(key, default)
        if isinstance(default, list):
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list, got {value!r}")
            items = {f"{key}[{i}]": v for i, v in enumerate(value)}
            out[key] = [_number(items, k, type(default[0])) for k in items]
        elif default is None and value is None:
            out[key] = None
        else:
            out[key] = _number({key: value}, key, float if default is None else type(default))
        if key in _MINIMUMS and out[key] < _MINIMUMS[key]:
            raise ConfigError(f"{key} must be at least {_MINIMUMS[key]}, got {out[key]}")
    return out


def run_breakdown(params: dict):
    """Error rates of both classifiers under both prediction modes.

    Trains the exact log-ratio and Dirichlet-based classifiers on a
    well-separated mixture and predicts with a single Monte-Carlo sample,
    once from the latent predictive and once from the noisy-observation
    predictive. Repeats over ``num_repeats`` data draws; one row per run,
    and the mean and standard deviation per classifier and mode.
    """
    p = _read_params(params, {
        "num_classes": 3, "mix_sd": 0.1, "lambda": 0.9, "alpha_eps": 0.01, "seed": 0,
        "n_train": 1000, "n_test": 1000, "num_repeats": 5, "max_iters": 100,
    })
    K, seed = p["num_classes"], p["seed"]
    cfgs = {
        "ilr": IlrClassifierConfig(SmoothingConfig(p["lambda"], K), mc_samples=1),
        "gpd": GpdClassifierConfig(p["alpha_eps"], K, mc_samples=1),
    }
    opt = OptConfig(max_iters=p["max_iters"])
    errors = {(name, mode): [] for name in cfgs for mode in PREDICTION_MODES}
    for r in range(p["num_repeats"]):
        train = gen_circle_mixture(K, p["n_train"], p["mix_sd"], derive_seed(seed, r, 0))
        test = gen_circle_mixture(K, p["n_test"], p["mix_sd"], derive_seed(seed, r, 1))
        models = {name: fit_classifier(train.X, train.labels, cfg, opt) for name, cfg in cfgs.items()}
        for mi, (name, cfg) in enumerate(cfgs.items()):
            for mo, mode in enumerate(PREDICTION_MODES):
                pred = predict_proba(models[name], test.X, replace(cfg, prediction_mode=mode),
                                     seed=derive_seed(seed, r, 2 + mi, mo))
                errors[name, mode].append(error_rate(pred.labels_hat, test.labels))
    rows = [{"model": name, "mode": mode, "repeat": r, "error": err}
            for (name, mode), errs in errors.items() for r, err in enumerate(errs)]
    summary = {}
    for (name, mode), errs in errors.items():
        mean, sd = _mean_sd(errs)
        summary[f"{name}/{mode}"] = {"mean": mean, "sd": sd}
    return rows, summary


def run_overlap_lambda(params: dict):
    """Validation-NLL sweep of the smoothing weight across class overlap levels."""
    p = _read_params(params, {
        "s_values": [0.1, 0.4, 0.7], "lambda_grid": [0.95, 0.99, 0.999, 0.9999],
        "num_seeds": 3, "n": 600, "seed": 0, "mc_samples": 1000, "max_iters": 200,
    })
    s_values, grid, n, base_seed, mc_samples = (
        p["s_values"], p["lambda_grid"], p["n"], p["seed"], p["mc_samples"])
    seeds = list(range(p["num_seeds"]))
    opt = OptConfig(max_iters=p["max_iters"])

    rows = []
    summary = {}
    for s in s_values:
        cell_nll = {lam: [] for lam in grid}
        for r in seeds:
            ds = gen_overlap_toy(s, n, derive_seed(base_seed, round(s * 1000), r))
            spec = SplitSpec(0.6, 0.2, 0.2, seed=derive_seed(base_seed, round(s * 1000), r, 1))
            train, val, test = split(ds, spec)
            for lam in grid:
                cfg = IlrClassifierConfig(SmoothingConfig(lam, 3), mc_samples=mc_samples)
                model = fit_classifier(train.X, train.labels, cfg, opt)
                mc_seed = derive_seed(base_seed, round(s * 1000), r, round(lam * 1e6))
                val_pred = predict_proba(model, val.X, cfg, mc_seed)
                val_rep = evaluate(val_pred.probs, val.labels, val_pred.labels_hat)
                test_pred = predict_proba(model, test.X, cfg, mc_seed + 1)
                test_rep = evaluate(test_pred.probs, test.labels, test_pred.labels_hat)
                cell_nll[lam].append(val_rep.nll)
                rows.append({
                    "s": s, "seed": r, "lambda": lam,
                    "val_nll": val_rep.nll, "val_error": val_rep.error, "val_ece": val_rep.ece,
                    "test_nll": test_rep.nll, "test_error": test_rep.error, "test_ece": test_rep.ece,
                })
        means = {lam: _mean_sd(cell_nll[lam]) for lam in grid}
        winner = min(grid, key=lambda lam: means[lam][0])
        summary[f"s={s}"] = {
            "winner_lambda": winner,
            "largest_lambda": max(grid),
            "val_nll": {str(lam): {"mean": means[lam][0], "sd": means[lam][1]} for lam in grid},
        }
    return rows, summary


def nearest_center_labels(X, centers) -> np.ndarray:
    """Assign each row to its nearest center (1-based labels)."""
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1) + 1


def run_scaling_k(params: dict):
    """Accuracy of the exact latent classifier as the class count grows.

    The mixture components sit on the unit circle with a shared standard
    deviation of half the adjacent-center chord, so neighbors overlap and
    the nearest-center rule is the Bayes classifier to compare against.
    """
    p = _read_params(params, {
        "k_values": [4, 16], "num_seeds": 1, "n_train": 1000, "n_test": 1000, "seed": 0,
        "lambda_grid": [0.95, 0.99], "mc_samples": 1000, "mix_sd": None, "max_iters": 150,
    })
    k_values, n_train, n_test, base_seed, grid, mc_samples, mix_sd = (
        p["k_values"], p["n_train"], p["n_test"], p["seed"], p["lambda_grid"], p["mc_samples"],
        p["mix_sd"])
    seeds = list(range(p["num_seeds"]))
    opt = OptConfig(max_iters=p["max_iters"])

    rows = []
    summary = {}
    for K in k_values:
        sd_k = default_circle_mix_sd(K) if mix_sd is None else mix_sd
        errs, gaps = [], []
        for r in seeds:
            train = gen_circle_mixture(K, n_train, sd_k, derive_seed(base_seed, K, r, 0))
            test = gen_circle_mixture(K, n_test, sd_k, derive_seed(base_seed, K, r, 1))
            baseline = error_rate(nearest_center_labels(test.X, circle_centers(K)), test.labels)
            best = None
            for lam in grid:
                cfg = IlrClassifierConfig(SmoothingConfig(lam, K), mc_samples=mc_samples)
                model = fit_classifier(train.X, train.labels, cfg, opt)
                train_pred = predict_proba(model, train.X, cfg, derive_seed(base_seed, K, r, 2))
                train_rep = evaluate(train_pred.probs, train.labels, train_pred.labels_hat)
                if best is None or train_rep.nll < best[0]:
                    best = (train_rep.nll, lam, model, cfg)
            _, lam, model, cfg = best
            pred = predict_proba(model, test.X, cfg, derive_seed(base_seed, K, r, 3))
            rep = evaluate(pred.probs, test.labels, pred.labels_hat)
            rows.append({
                "K": K, "seed": r, "mix_sd": sd_k, "selected_lambda": lam,
                "test_error": rep.error, "test_nll": rep.nll, "test_ece": rep.ece,
                "nearest_center_error": baseline, "error_gap": rep.error - baseline,
            })
            errs.append(rep.error)
            gaps.append(rep.error - baseline)
        err_mean, err_sd = _mean_sd(errs)
        gap_mean, gap_sd = _mean_sd(gaps)
        summary[f"K={K}"] = {
            "test_error": {"mean": err_mean, "sd": err_sd},
            "error_gap": {"mean": gap_mean, "sd": gap_sd},
        }
    return rows, summary


def run_gpd_recovery(params: dict):
    """Label-recovery error of the Dirichlet construction, no GP involved."""
    p = _read_params(params, {
        "k_values": [2, 4, 8, 16, 32, 64, 128, 256], "alpha_eps_grid": [0.1, 0.01, 0.001, 0.0001],
        "num_samples": 100_000, "seed": 0,
    })
    k_values, alpha_grid, num_samples, base_seed = (
        p["k_values"], p["alpha_eps_grid"], p["num_samples"], p["seed"])
    rows = []
    summary = {}
    for K in k_values:
        for alpha in alpha_grid:
            err = gpd_label_recovery_error(
                K, alpha, num_samples=num_samples,
                seed=derive_seed(base_seed, K, round(alpha * 1e7)),
            )
            rows.append({"K": K, "alpha_eps": alpha, "num_samples": num_samples, "error": err})
            summary[f"K={K},alpha_eps={alpha}"] = {"error": err}
    return rows, summary


def run_sigma_bound_table(params: dict):
    """Closed-form noise bound over the smoothing grid."""
    p = _read_params(params, {
        "lambda_grid": [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999], "k_values": [2, 3, 5, 10, 26],
        "epsilon": 1e-6,
    })
    lam_grid, k_values, epsilon = p["lambda_grid"], p["k_values"], p["epsilon"]
    rows = []
    summary = {}
    for K in k_values:
        for lam in lam_grid:
            cfg = SmoothingConfig(lam, K, epsilon)
            delta = separation_delta(cfg)
            sigma = sigma_bound(cfg)
            rows.append({"lambda": lam, "K": K, "epsilon": epsilon, "delta": delta, "sigma": sigma})
            summary[f"K={K},lambda={lam}"] = {"delta": delta, "sigma": sigma}
    return rows, summary


RUNNERS = {
    "overlap-lambda": run_overlap_lambda,
    "scaling-k": run_scaling_k,
    "breakdown": run_breakdown,
    "gpd-recovery": run_gpd_recovery,
    "sigma-bound-table": run_sigma_bound_table,
}
EXPERIMENT_NAMES = tuple(RUNNERS)


def run_experiment(name: str, params: dict):
    if name not in RUNNERS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(RUNNERS)}")
    return RUNNERS[name](params)
