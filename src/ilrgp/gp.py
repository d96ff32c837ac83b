"""Exact multi-output GP regression with Gaussian pseudo-observations.

The D output coordinates share one kernel and are conditionally independent,
so the marginal log-likelihood is a sum of per-coordinate Gaussian terms and
prediction needs only per-coordinate solves against a common Gram matrix.
Noise may be a single shared variance, one variance per data point, or a
full per-point-per-coordinate table (one factorization per coordinate).

All per-coordinate quantities are accumulated coordinate by coordinate in a
fixed order, so a per-coordinate noise table whose columns are all equal
reproduces the shared-noise path bit for bit.
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .kernel import RbfKernel, _as_inputs, cholesky_with_jitter, cross_gram, lower_inverse, sq_distances
from .optimize import Evaluation, OptConfig, maximize_kernel

log = logging.getLogger(__name__)

_LOG_2PI = math.log(2.0 * math.pi)

# Predictive variances this far below zero indicate a real numerical
# problem rather than benign round-off.
_VAR_ROUNDOFF = -1e-10


@dataclass(frozen=True)
class PseudoObservations:
    """Latent regression targets with their Gaussian noise variances.

    ``Z`` is (N, D). ``noise`` is a scalar variance, a length-N vector of
    per-point variances shared across coordinates, or an (N, D) table of
    per-point, per-coordinate variances.
    """

    Z: np.ndarray
    noise: float | np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] < 1 or Z.shape[1] < 1:
            raise ValueError(f"Z must be a (N, D) matrix with N, D >= 1, got shape {Z.shape}")
        if not np.all(np.isfinite(Z)):
            raise ValueError("Z contains non-finite values")
        object.__setattr__(self, "Z", Z)
        noise = self.noise
        if np.isscalar(noise):
            if not (np.isfinite(noise) and noise > 0):
                raise ValueError(f"noise variance must be positive, got {noise}")
            object.__setattr__(self, "noise", float(noise))
        else:
            noise = np.asarray(noise, dtype=float)
            if noise.shape not in ((Z.shape[0],), Z.shape):
                raise ValueError(
                    f"noise must be scalar, shape ({Z.shape[0]},) or {Z.shape}, got {noise.shape}"
                )
            if not np.all(np.isfinite(noise)) or np.any(noise <= 0):
                raise ValueError("noise variances must all be positive and finite")
            object.__setattr__(self, "noise", noise)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.Z.shape[1]

    @property
    def noise_kind(self) -> str:
        if np.isscalar(self.noise):
            return "scalar"
        return "per_point" if self.noise.ndim == 1 else "per_coordinate"

    def noise_diagonal(self, d: int) -> np.ndarray:
        """Noise variance diagonal for output coordinate ``d`` (0-based)."""
        if self.noise_kind == "scalar":
            return np.full(self.n, self.noise)
        if self.noise_kind == "per_point":
            return self.noise
        return self.noise[:, d]

    def noise_groups(self) -> list:
        """``(noise diagonal, columns)`` for each factorization the noise needs.

        ``columns`` is a slice of the D output coordinates. Shared noise
        (scalar or per point) is one group over all columns; a per-coordinate
        table is one group per column.
        """
        if self.noise_kind == "per_coordinate":
            return [(self.noise[:, d], slice(d, d + 1)) for d in range(self.latent_dim)]
        return [(self.noise_diagonal(0), slice(0, self.latent_dim))]

    def scale_noise(self, log_scale: float) -> "PseudoObservations":
        """The same targets with every noise entry multiplied by ``exp(log_scale)``."""
        return PseudoObservations(self.Z, float(np.exp(log_scale)) * self.noise)

    def observation_variance(self):
        """Likelihood noise to add when predicting a noisy observation.

        With a shared scalar variance this is that variance, exactly. With
        label-dependent heteroscedastic noise the value at a fresh (still
        unlabeled) input is not defined by the construction, so a
        conservative envelope is used: per coordinate, the sum of the
        distinct noise levels the labels can assign to it. The envelope
        dominates the tails of every per-label component and of their
        mixture, and collapses back to the single level when the noise
        does not actually vary.
        """
        if self.noise_kind == "scalar":
            return self.noise
        if self.noise_kind == "per_point":
            return float(np.unique(self.noise).sum())
        return np.array([np.unique(self.noise[:, d]).sum() for d in range(self.latent_dim)])


@dataclass(frozen=True)
class ExactGpModel:
    """Fitted exact GP: training data plus cached factorizations.

    ``inv_chols`` holds the inverse Cholesky factor of ``K + S`` for each
    noise group; ``solves`` column d is ``(K + S_d)^-1 z_d``.
    """

    X_train: np.ndarray
    kernel: RbfKernel
    pseudo: PseudoObservations
    inv_chols: tuple
    solves: np.ndarray
    fit_info: dict | None = field(default=None, compare=False)

    def predictive(self, X_star):
        """Latent predictive means and variances for a batch of inputs.

        Returns ``(means, variances)``, both of shape (T, D); coordinates
        that share a noise diagonal share their variance column.
        """
        Kstar = cross_gram(self.kernel, self.X_train, X_star)
        means = Kstar.T @ self.solves
        var = np.empty(means.shape)
        for L_inv, (_, cols) in zip(self.inv_chols, self.pseudo.noise_groups()):
            V = L_inv @ Kstar
            var[:, cols] = (self.kernel.signal_variance - (V * V).sum(axis=0))[:, None]
        return means, _clamp_variance(var)


class _ExactObjective:
    """Marginal log-likelihood, its gradient and the fitted model's factors, in one evaluation.

    Parameters: log signal variance, log lengthscale and optionally ``log c``,
    a scale on every noise entry (``c = 1`` when absent). The pairwise
    squared distances never change during a fit, so they are computed once.
    Each :meth:`evaluate` builds the Gram matrix, factors it and returns the
    :class:`ExactGpModel` at that point, so a fit's model is its last
    accepted evaluation and :func:`finalize_exact` is one evaluation without
    the gradient.

    The gradient uses the standard identity: for each coordinate, one half
    of ``alpha' dA alpha - tr(A^{-1} dA)`` with ``A = K + c S`` and
    ``alpha = A^{-1} z``. Both come from products with the inverse Cholesky
    factor, ``A^{-1} = L^-T L^-1``, formed once per noise group. On the log
    scale ``dA`` is ``K`` for the signal variance, ``K * ||x_i - x_j||^2 / l^2``
    for the lengthscale and the scaled noise diagonal ``c S`` for the noise
    scale.
    """

    def __init__(self, X, pseudo, base_kernel):
        X = _as_inputs(X, base_kernel.input_dim)
        if X.shape[0] != pseudo.n:
            raise ValueError(f"X has {X.shape[0]} rows but Z has {pseudo.n}")
        self.X = X
        self.pseudo = pseudo
        self.base = base_kernel
        self.d2 = sq_distances(X, X)

    def evaluate(self, params, grad=True) -> Evaluation:
        """The objective at ``params``, with its gradient unless ``grad`` is false (else ``None``)."""
        kernel = self.base.with_params(*params[:2])
        K = kernel.covariance(self.d2)
        pseudo = self.pseudo.scale_noise(params[2]) if len(params) > 2 else self.pseudo
        factors = []  # per noise group: L^-1 for A = K + c S, log det A, c S, columns
        for s2, cols in pseudo.noise_groups():
            A = K.copy()
            A[np.diag_indices_from(A)] += s2
            L = cholesky_with_jitter(A, kernel.signal_variance)
            factors.append((lower_inverse(L), 2.0 * float(np.log(np.diag(L)).sum()), s2, cols))
        del A, L  # so they and the gradient's N x N terms are never alive together
        Z, D = self.pseudo.Z, self.pseudo.latent_dim
        if grad:
            dK_len = kernel.dlog_lengthscale(K, self.d2)
            g = np.zeros(len(params))
        ll = 0.0
        solves = np.empty(Z.shape)
        for L_inv, logdet, s2, cols in factors:
            if grad:
                A_inv = L_inv.T @ L_inv
                traces = (float((A_inv * K).sum()), float((A_inv * dK_len).sum()),
                          float(np.diag(A_inv) @ s2))
            for d in range(D)[cols]:
                w = L_inv @ Z[:, d]
                ll += -0.5 * float(w @ w) - 0.5 * logdet
                alpha = L_inv.T @ w
                solves[:, d] = alpha
                if grad:
                    g[0] += 0.5 * (alpha @ K @ alpha - traces[0])
                    g[1] += 0.5 * (alpha @ dK_len @ alpha - traces[1])
                    if len(g) > 2:
                        g[2] += 0.5 * (alpha @ (s2 * alpha) - traces[2])
        value = ll - 0.5 * self.pseudo.n * D * _LOG_2PI
        model = ExactGpModel(self.X, kernel, pseudo, tuple(f[0] for f in factors), solves)
        return Evaluation(value, g if grad else None, model)


def marginal_log_likelihood(kernel: RbfKernel, X, pseudo: PseudoObservations) -> float:
    """Log-marginal of the pseudo-observations, summed over coordinates.

    Includes the additive normal constant ``-(N D / 2) log(2 pi)``.
    """
    return _ExactObjective(X, pseudo, kernel).evaluate(kernel.log_params, grad=False).value


def mll_gradient(kernel: RbfKernel, X, pseudo: PseudoObservations) -> np.ndarray:
    """Gradient of :func:`marginal_log_likelihood` w.r.t. the log parameters."""
    return _ExactObjective(X, pseudo, kernel).evaluate(kernel.log_params).grad


# The starting lengthscale is a median over all pairs of rows, or over this
# many fixed-seed pairs when there are more, so its cost does not grow as N^2.
_MEDIAN_SAMPLE = 1 << 18


def _median_pairwise_distance(X) -> float:
    """Median distance between the rows of X; nan if X is not finite.

    Up to ``_MEDIAN_SAMPLE`` pairs (N <= 724) this is ``np.median(pdist(X))``
    bit for bit, as squares are summed column by column like :func:`sq_distances`.
    The squares are formed over slices of 2^14 pairs, so beyond the pair
    indices and the distances no array larger than a slice is held.
    """
    if not np.all(np.isfinite(X)):
        return math.nan
    n = X.shape[0]
    if n * (n - 1) // 2 <= _MEDIAN_SAMPLE:
        i, j = np.triu_indices(n, 1)
    else:
        rng = np.random.default_rng(0)
        i = rng.integers(n, size=_MEDIAN_SAMPLE)
        j = rng.integers(1, n, size=_MEDIAN_SAMPLE)
        j += i
        j %= n
    d2 = np.zeros(i.size)
    step = 1 << 14
    with np.errstate(over="ignore"):  # pdist overflows to inf silently too
        for start in range(0, i.size, step):
            s = slice(start, start + step)
            for col in X.T:
                diff = col[i[s]] - col[j[s]]
                diff *= diff
                d2[s] += diff
    return float(np.median(np.sqrt(d2, out=d2), overwrite_input=True))


def initial_log_noise_scale(pseudo: PseudoObservations) -> float:
    """``log c`` at the start: the target variance over the mean noise, at least 1."""
    ratio = float(np.var(pseudo.Z)) / float(np.mean(pseudo.noise))
    return math.log(ratio) if ratio > 1.0 else 0.0


def initial_kernel(X, pseudo: PseudoObservations) -> RbfKernel:
    """Scale-aware starting point: target variance and median input distance."""
    X = np.asarray(X, dtype=float)
    sf2 = float(np.var(pseudo.Z))
    if not (np.isfinite(sf2) and sf2 > 0):
        sf2 = 1.0
    ls = _median_pairwise_distance(X) if X.shape[0] > 1 else 1.0
    if not (np.isfinite(ls) and ls > 0):
        ls = 1.0
    return RbfKernel(math.log(sf2), math.log(ls), X.shape[1])


def finalize_exact(X, pseudo: PseudoObservations, kernel: RbfKernel, fit_info=None) -> ExactGpModel:
    """The model at a given kernel, from one evaluation without the gradient."""
    model = _ExactObjective(X, pseudo, kernel).evaluate(kernel.log_params, grad=False).model
    return replace(model, fit_info=fit_info)


def fit_exact(X, pseudo: PseudoObservations, opt_config: OptConfig | None = None,
              fit_noise: bool = True) -> ExactGpModel:
    """Fit kernel hyperparameters and, if ``fit_noise``, a noise scale ``c >= 1`` by MLL ascent.

    The model carries the pseudo-observations with their noise scaled by ``c``
    and the factors of the ascent's evaluation at the fitted point.
    Deterministic: the starting point is data-derived and the ascent has no
    random component, so refitting the same inputs reproduces the model
    exactly.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 training points, got {X.shape[0]}")
    k0 = initial_kernel(X, pseudo)
    log_c0 = initial_log_noise_scale(pseudo) if fit_noise else None
    return maximize_kernel(_ExactObjective(X, pseudo, k0), k0, opt_config, log_c0)


def _clamp_variance(var):
    if np.any(var < _VAR_ROUNDOFF):
        log.warning("predictive variance %.3e below round-off tolerance; clamping to 0", var.min())
    return np.maximum(var, 0.0)


# Function-style name of the method, kept for the benchmark's per-layer probe
# and the acceptance tests.
predict_latent_batch = ExactGpModel.predictive
