"""Conjugate multiclass GP classification in log-ratio coordinates.

The public names load on first use (PEP 562), so ``import ilrgp`` does not
import numpy; :mod:`ilrgp.cli` relies on that to pin BLAS threads first.
"""

import importlib

_EXPORTS = {
    "classifiers": ("GpdClassifierConfig", "IlrClassifierConfig", "PredictionSet", "fit_classifier",
                    "gpd_label_recovery_error", "predict_proba"),
    "data": ("Dataset", "SplitSpec", "gen_circle_mixture", "gen_overlap_toy", "load_table", "split"),
    "gp": ("ExactGpModel", "PseudoObservations", "fit_exact", "marginal_log_likelihood", "mll_gradient"),
    "kernel": ("RbfKernel", "cross_gram", "gram"),
    "metrics": ("EvalReport", "ece", "error_rate", "evaluate", "nll"),
    "optimize": ("FitError", "OptConfig"),
    "simplex": ("SmoothingConfig", "aitchison_distance", "aitchison_inner", "class_target", "helmert_basis",
                "ilr_forward", "ilr_inverse", "normal_quantile", "separation_delta", "sigma_bound"),
    "sparse": ("CollapsedGpModel", "collapsed_bound", "fit_collapsed", "kmeanspp_select"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
