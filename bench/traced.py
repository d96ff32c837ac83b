"""Traced in-process twin of `ilrgp fit` / `ilrgp eval`, and per-layer probes.

    python3 bench/traced.py fit   --data D --out MODEL --spans S [--set KEY=VALUE ...]
    python3 bench/traced.py eval  --model MODEL --data D --spans S
    python3 bench/traced.py probe --model MODEL --data D --spans S --scratch F

``fit`` and ``eval`` repeat what ``ilrgp.cli`` does for those verbs, step for
step, through the package's public functions, with a span around each call.
Their stdout (minus the model path) and model files must equal the CLI's
byte for byte, which shows that the traced run measured the same program.

``probe`` loads a fitted model and calls each layer's public functions on it
several times, one span per call, then prints one JSON object mapping each
per-layer metric to its value (medians for times).

bench/run.py starts these as child processes with BLAS pinned to one thread.
"""

import argparse
import json
import math
import os
import statistics
import sys

from spans import Tracer, write_spans

# A probe repeats its call until this much time is spent or PROBE_REPS calls
# are made; calls slower than the budget run once.
PROBE_BUDGET_S = 0.3
PROBE_REPS = 7
# Exact-GP probes on the collapsed workload (which bypasses the exact backend)
# use this many training rows, the training size of the exact workloads.
EXACT_CONTROL_ROWS = 504
# Central-difference step for the collapsed bound's gradient, as ilrgp.sparse uses.
FD_STEP = 1e-4


def _dump(obj, fh=sys.stdout):
    json.dump(obj, fh, sort_keys=True, indent=2)
    fh.write("\n")


def _split_normalize(ds, spec, stats_or_mode):
    """Split, then normalize each part: with fitted stats, a mode name, or ``None``."""
    from ilrgp.data import apply_normalizer, fit_normalizer, split

    train, val, test = split(ds, spec)
    if stats_or_mode is None or stats_or_mode == "none":
        return None, train, val, test
    stats = stats_or_mode
    if isinstance(stats, str):
        stats = fit_normalizer(train.X, stats)
    return stats, apply_normalizer(train, stats), apply_normalizer(val, stats), apply_normalizer(test, stats)


def traced_fit(tracer, args):
    from ilrgp.classifiers import fit_classifier
    from ilrgp.cli import classifier_config, load_config, opt_config
    from ilrgp.data import SplitSpec, load_table
    from ilrgp.model_io import ModelArtifact, save_model

    with tracer.span("cli.fit"):
        cfg = load_config(None, args.set)
        with tracer.span("data.load_table"):
            ds = load_table(args.data, cfg["label_column"])
        spec = SplitSpec(cfg["split_train"], cfg["split_val"], cfg["split_test"], seed=int(cfg["seed"]))
        with tracer.span("data.split_normalize"):
            stats, train, _, _ = _split_normalize(ds, spec, cfg["normalization"])
        ccfg = classifier_config(cfg, ds.num_classes)
        with tracer.span("classifiers.fit_classifier"):
            model = fit_classifier(train.X, train.labels, ccfg, opt_config(cfg))
        artifact = ModelArtifact(
            classifier_config=ccfg,
            model=model,
            norm_stats=stats,
            seed=int(cfg["seed"]),
            split=spec,
            label_column=cfg["label_column"],
            data_fingerprint={"n": ds.n, "num_classes": ds.num_classes},
            effective_config=cfg,
        )
        with tracer.span("model_io.save"):
            save_model(args.out, artifact)
    _dump({"model_file": str(args.out), "fit": model.fit_info, "config": cfg})


def _eval_subset(tracer, artifact, data_path):
    from ilrgp.data import load_table

    with tracer.span("data.load_table"):
        ds = load_table(data_path, artifact.label_column)
    fp = artifact.data_fingerprint
    if fp.get("n") != ds.n or fp.get("num_classes") != ds.num_classes:
        raise SystemExit(f"{data_path} does not match the model's training data")
    with tracer.span("data.split_normalize"):
        return _split_normalize(ds, artifact.split, artifact.norm_stats)


def traced_eval(tracer, args):
    from ilrgp.classifiers import predict_proba
    from ilrgp.metrics import evaluate
    from ilrgp.model_io import load_model

    with tracer.span("cli.eval"):
        with tracer.span("model_io.load"):
            artifact = load_model(args.model)
        _, _, _, test = _eval_subset(tracer, artifact, args.data)
        with tracer.span("classifiers.predict_proba"):
            pred = predict_proba(artifact.model, test.X, artifact.classifier_config, artifact.seed)
        with tracer.span("metrics.evaluate"):
            report = evaluate(pred.probs, test.labels, pred.labels_hat)
        payload = report.to_dict()
        payload["config"] = artifact.effective_config
    _dump(payload)


def _probe(tracer, name, fn):
    spent = 0.0
    for _ in range(PROBE_REPS):
        with tracer.span(name) as s:
            result = fn()
        spent += s["end"] - s["start"]
        if spent >= PROBE_BUDGET_S:
            break
    return result


def _head(pseudo, n):
    from ilrgp.gp import PseudoObservations

    noise = pseudo.noise if pseudo.noise_kind == "scalar" else pseudo.noise[:n]
    return PseudoObservations(pseudo.Z[:n], noise)


def _final_grad_max(model, X):
    """max|gradient| of the fit objective at the fitted kernel, from public functions."""
    import numpy as np
    from ilrgp.gp import ExactGpModel, mll_gradient
    from ilrgp.sparse import collapsed_bound

    k = model.kernel
    if isinstance(model, ExactGpModel):
        return float(np.max(np.abs(mll_gradient(k, X, model.pseudo))))
    p = [k.log_signal_variance, k.log_lengthscale]
    grad = []
    for i in range(2):
        hi, lo = list(p), list(p)
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        f_hi = collapsed_bound(k.with_params(*hi), X, model.Xu, model.pseudo)
        f_lo = collapsed_bound(k.with_params(*lo), X, model.Xu, model.pseudo)
        grad.append((f_hi - f_lo) / (2.0 * FD_STEP))
    return float(max(abs(g) for g in grad))


def probe(tracer, args):
    import numpy as np
    from ilrgp.classifiers import predict_proba
    from ilrgp.data import load_table
    from ilrgp.gp import (ExactGpModel, finalize_exact, initial_kernel, marginal_log_likelihood,
                          mll_gradient, predict_latent_batch)
    from ilrgp.kernel import cholesky_with_jitter, cross_gram, gram
    from ilrgp.metrics import evaluate
    from ilrgp.model_io import load_model, save_model
    from ilrgp.sparse import (collapsed_bound, finalize_collapsed, kmeanspp_select,
                              predict_latent_sparse_batch)

    artifact = _probe(tracer, "model_io.load", lambda: load_model(args.model))
    ds = _probe(tracer, "data.load_table", lambda: load_table(args.data, artifact.label_column))
    _, train, _, test = _probe(
        tracer, "data.split_normalize", lambda: _split_normalize(ds, artifact.split, artifact.norm_stats)
    )
    _probe(tracer, "model_io.save", lambda: save_model(args.scratch, artifact))
    model, ccfg, kern = artifact.model, artifact.classifier_config, artifact.model.kernel
    X, Xt, pseudo = train.X, test.X, artifact.model.pseudo
    exact = isinstance(model, ExactGpModel)

    # Exact layers, at the fitted kernel (a control on the collapsed workload).
    ex_X, ex_pseudo = (X, pseudo) if exact else (X[:EXACT_CONTROL_ROWS], _head(pseudo, EXACT_CONTROL_ROWS))
    K = _probe(tracer, "kernel.gram", lambda: gram(kern, ex_X))
    A = K + np.diag(ex_pseudo.noise_diagonal(0))
    _probe(tracer, "kernel.cholesky", lambda: cholesky_with_jitter(A, kern.signal_variance))
    _probe(tracer, "gp.mll", lambda: marginal_log_likelihood(kern, ex_X, ex_pseudo))
    _probe(tracer, "gp.mll_gradient", lambda: mll_gradient(kern, ex_X, ex_pseudo))
    _probe(tracer, "gp.initial_kernel", lambda: initial_kernel(X, pseudo))
    ex_model = _probe(tracer, "gp.finalize", lambda: finalize_exact(ex_X, ex_pseudo, kern))
    _probe(tracer, "gp.predictive", lambda: predict_latent_batch(ex_model, Xt))

    # Collapsed layers: the fitted inducing set, or k-means++ at the configured M.
    M = min(int(artifact.effective_config["num_inducing"]), X.shape[0])
    seed = int(artifact.effective_config["backend_seed"])
    Xu = _probe(tracer, "sparse.kmeanspp", lambda: kmeanspp_select(X, M, seed))
    if not exact:
        Xu = model.Xu
    _probe(tracer, "sparse.bound", lambda: collapsed_bound(kern, X, Xu, pseudo))
    sp_model = _probe(tracer, "sparse.finalize", lambda: finalize_collapsed(X, Xu, pseudo, kern))
    _probe(tracer, "sparse.predictive", lambda: predict_latent_sparse_batch(sp_model, Xt))

    _probe(tracer, "kernel.cross_gram", lambda: cross_gram(kern, X if exact else Xu, Xt))
    pred = _probe(tracer, "classifiers.predict_proba",
                  lambda: predict_proba(model, Xt, ccfg, artifact.seed))
    _probe(tracer, "metrics.evaluate", lambda: evaluate(pred.probs, test.labels, pred.labels_hat))

    med = {s["name"]: statistics.median(tracer.durations(s["name"])) for s in tracer.spans}
    out = {f"{name}_s": value for name, value in med.items()}
    backend_predictive = med["gp.predictive"] if exact else med["sparse.predictive"]
    out["classifiers.mc_link_s"] = med["classifiers.predict_proba"] - backend_predictive
    out["classifiers.mc_draws"] = int(Xt.shape[0]) * int(ccfg.mc_samples)
    out["model_io.model_bytes"] = os.path.getsize(args.model)
    out["optimize.iterations"] = int(model.fit_info["iterations"])
    out["optimize.converged"] = int(bool(model.fit_info["converged"]))
    out["optimize.final_grad_max"] = _final_grad_max(model, X)
    if not all(math.isfinite(v) for v in out.values()):
        raise SystemExit(f"non-finite probe result: {out}")
    print(json.dumps(out, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("verb", choices=["fit", "eval", "probe"])
    parser.add_argument("--data", required=True)
    parser.add_argument("--model")
    parser.add_argument("--out")
    parser.add_argument("--scratch")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--set", action="append", default=[])
    args = parser.parse_args(argv)
    tracer = Tracer(f"{args.verb}:{os.getpid()}")
    {"fit": traced_fit, "eval": traced_eval, "probe": probe}[args.verb](tracer, args)
    write_spans(args.spans, tracer.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
