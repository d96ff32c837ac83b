"""Conjugate multiclass GP classification in log-ratio coordinates."""

from .classifiers import (
    GpdClassifierConfig,
    IlrClassifierConfig,
    PredictionSet,
    breakdown_experiment,
    build_gpd_pseudo,
    build_ilr_pseudo,
    fit_classifier,
    gpd_label_recovery_error,
    predict_proba,
)
from .data import Dataset, SplitSpec, gen_circle_mixture, gen_overlap_toy, load_table, normalize, split
from .gp import ExactGpModel, PseudoObservations, fit_exact, marginal_log_likelihood, mll_gradient
from .kernel import RbfKernel, cross_gram, gram, gram_gradients
from .metrics import EvalReport, ece, error_rate, evaluate, nll
from .optimize import FitError, OptConfig
from .simplex import (
    SmoothingConfig,
    aitchison_distance,
    aitchison_inner,
    class_target,
    helmert_basis,
    ilr_forward,
    ilr_inverse,
    normal_quantile,
    separation_delta,
    sigma_bound,
)
from .sparse import CollapsedGpModel, collapsed_bound, fit_collapsed, kmeanspp_select

__version__ = "0.1.0"
