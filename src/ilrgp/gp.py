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
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotri
from scipy.spatial.distance import cdist, pdist

from .kernel import RbfKernel, cholesky_with_jitter, cross_gram, gram, gram_gradients
from .optimize import OptConfig, adam_maximize

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

    @property
    def shared_noise(self) -> bool:
        """True when all coordinates see the same noise diagonal."""
        return self.noise_kind != "per_coordinate"

    def noise_diagonal(self, d: int) -> np.ndarray:
        """Noise variance diagonal for output coordinate ``d`` (0-based)."""
        if self.noise_kind == "scalar":
            return np.full(self.n, self.noise)
        if self.noise_kind == "per_point":
            return self.noise
        return self.noise[:, d]

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
    """Fitted exact GP: training data plus cached factorizations."""

    X_train: np.ndarray
    kernel: RbfKernel
    pseudo: PseudoObservations
    chols: tuple
    solves: np.ndarray
    fit_info: dict | None = field(default=None, compare=False)

    def predictive(self, X_star):
        """Latent predictive means and variances for a batch of inputs.

        Returns ``(means, variances)`` with means of shape (T, D) and variances
        of shape (T,) for shared noise or (T, D) otherwise.
        """
        X_star = np.asarray(X_star, dtype=float)
        if X_star.ndim == 1:
            X_star = X_star[None, :]
        Kstar = cross_gram(self.kernel, self.X_train, X_star)
        means = Kstar.T @ self.solves
        kss = self.kernel.signal_variance
        var = np.empty((X_star.shape[0], len(self.chols)))
        for d, L in enumerate(self.chols):
            V = solve_triangular(L, Kstar, lower=True, check_finite=False)
            var[:, d] = kss - (V * V).sum(axis=0)
        return means, _clamp_variance(var[:, 0] if self.pseudo.shared_noise else var)


def _factors_from_gram(K, kernel, pseudo):
    """Cholesky factor of K + noise for each coordinate (shared factor reused)."""
    sf2 = kernel.signal_variance
    if pseudo.shared_noise:
        A = K.copy()
        A[np.diag_indices_from(A)] += pseudo.noise_diagonal(0)
        L = cholesky_with_jitter(A, sf2)
        return [L] * pseudo.latent_dim
    factors = []
    for d in range(pseudo.latent_dim):
        A = K.copy()
        A[np.diag_indices_from(A)] += pseudo.noise_diagonal(d)
        factors.append(cholesky_with_jitter(A, sf2))
    return factors


def _coordinate_factors(kernel, X, pseudo):
    K = gram(kernel, X)
    return _factors_from_gram(K, kernel, pseudo), K


def _mll_from_factors(factors, pseudo) -> float:
    seen = {}
    ll = 0.0
    for d in range(pseudo.latent_dim):
        L = factors[d]
        key = id(L)
        if key not in seen:
            seen[key] = 2.0 * float(np.log(np.diag(L)).sum())
        logdet = seen[key]
        z = pseudo.Z[:, d]
        alpha = cho_solve((L, True), z, check_finite=False)
        ll += -0.5 * float(z @ alpha) - 0.5 * logdet
    return ll - 0.5 * pseudo.n * pseudo.latent_dim * _LOG_2PI


def marginal_log_likelihood(kernel: RbfKernel, X, pseudo: PseudoObservations) -> float:
    """Log-marginal of the pseudo-observations, summed over coordinates.

    Includes the additive normal constant ``-(N D / 2) log(2 pi)``.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] != pseudo.n:
        raise ValueError(f"X has {X.shape[0]} rows but Z has {pseudo.n}")
    factors, _ = _coordinate_factors(kernel, X, pseudo)
    return _mll_from_factors(factors, pseudo)


def _symmetric_inverse_from_chol(L):
    inv, info = dpotri(L, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotri failed with info={info}")
    diag = np.diag(inv).copy()
    full = inv + inv.T
    np.fill_diagonal(full, diag)
    return full


def _grad_from_factors(factors, dK_sf2, dK_len, pseudo) -> np.ndarray:
    inverses = {}
    grad = np.zeros(2)
    for d in range(pseudo.latent_dim):
        L = factors[d]
        key = id(L)
        if key not in inverses:
            inverses[key] = _symmetric_inverse_from_chol(L)
        A_inv = inverses[key]
        alpha = cho_solve((L, True), pseudo.Z[:, d], check_finite=False)
        grad[0] += 0.5 * (alpha @ dK_sf2 @ alpha - float((A_inv * dK_sf2).sum()))
        grad[1] += 0.5 * (alpha @ dK_len @ alpha - float((A_inv * dK_len).sum()))
    return grad


def mll_gradient(kernel: RbfKernel, X, pseudo: PseudoObservations) -> np.ndarray:
    """Gradient of :func:`marginal_log_likelihood` w.r.t. the log parameters.

    Uses the standard identity: for each coordinate, one half of
    ``alpha' dK alpha - tr(A^{-1} dK)`` with ``alpha = A^{-1} z``.
    """
    X = np.asarray(X, dtype=float)
    K, dK_sf2, dK_len = gram_gradients(kernel, X)
    factors = _factors_from_gram(K, kernel, pseudo)
    return _grad_from_factors(factors, dK_sf2, dK_len, pseudo)


class _ExactObjective:
    """Marginal-likelihood objective with cached distances and factors.

    The pairwise squared distances never change during a fit, and the
    halving search evaluates the objective at a point immediately before
    the gradient is requested there, so a one-entry factor cache removes
    the duplicated Gram build and factorization. All terms go through the
    same helpers as the public functions, so values match them exactly.
    """

    def __init__(self, X, pseudo, base_kernel):
        self.pseudo = pseudo
        self.base = base_kernel
        self.d2 = cdist(X, X, "sqeuclidean")
        self._key = None
        self._gram = None
        self._factors = None

    def _prepare(self, params):
        key = (float(params[0]), float(params[1]))
        if key != self._key:
            kernel = self.base.with_params(*key)
            K = kernel.signal_variance * np.exp(-self.d2 / (2.0 * kernel.lengthscale**2))
            self._gram = K
            self._factors = _factors_from_gram(K, kernel, self.pseudo)
            self._key = key
        return self._gram, self._factors

    def value(self, params) -> float:
        _, factors = self._prepare(params)
        return _mll_from_factors(factors, self.pseudo)

    def value_and_grad(self, params):
        K, factors = self._prepare(params)
        kernel = self.base.with_params(float(params[0]), float(params[1]))
        dK_len = K * (self.d2 / kernel.lengthscale**2)
        return (
            _mll_from_factors(factors, self.pseudo),
            _grad_from_factors(factors, K, dK_len, self.pseudo),
        )


# The streamed median places its bracket with this many sampled pairs, and
# computes distances in blocks of about this many entries (16 MB of float64).
_MEDIAN_SAMPLE = 1 << 18
_MEDIAN_BLOCK = 1 << 21


def _count_and_collect(X, lo, hi):
    """One pass over the pairwise distances ``d`` of the rows of X, for ``lo <= hi``.

    Returns ``(#{d < lo}, #{d <= lo}, the d with lo < d < hi, #{d <= hi})``.
    Row blocks go through ``pdist`` (pairs inside the block) and ``cdist``
    (block against the rows after it), which give the same bits per pair as
    one ``pdist`` over all rows.
    """
    n = X.shape[0]
    rows = max(1, _MEDIAN_BLOCK // n)
    below = at_lo = at_hi = 0
    inside = []
    for r0 in range(0, n - 1, rows):
        r1 = min(r0 + rows, n)
        for D in (pdist(X[r0:r1]), cdist(X[r0:r1], X[r1:]).ravel()):
            below += np.count_nonzero(D < lo)
            at_lo += np.count_nonzero(D <= lo)
            at_hi += np.count_nonzero(D <= hi)
            inside.append(D[(D > lo) & (D < hi)])
    return below, at_lo, np.concatenate(inside), at_hi


def _median_pairwise_distance(X, sample_size=_MEDIAN_SAMPLE) -> float:
    """``np.median(pdist(X))``, bit for bit, without the N(N-1)/2 distance array.

    Pivots from a fixed-seed sample of pairs bracket the middle rank(s) five
    binomial standard deviations wide; one pass counts the distances below
    the bracket and collects those inside it (about 1% of the pairs at the
    default sample size). If the bracket misses, the missed side is opened
    to infinity and a second pass settles it exactly. Ties at a pivot are
    counted, not collected. Non-finite X gives nan.
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        return math.nan
    n = X.shape[0]
    pairs = n * (n - 1) // 2
    ranks = [pairs // 2] if pairs % 2 else [pairs // 2 - 1, pairs // 2]
    lo, hi = -math.inf, math.inf
    if pairs > sample_size:
        rng = np.random.default_rng(0)
        i = rng.integers(n, size=sample_size)
        j = (i + rng.integers(1, n, size=sample_size)) % n
        chunk = max(1, _MEDIAN_BLOCK // X.shape[1])
        with np.errstate(over="ignore"):  # pdist overflows to inf silently too
            sample = np.concatenate([
                np.sqrt(((X[i[s:s + chunk]] - X[j[s:s + chunk]]) ** 2).sum(axis=1))
                for s in range(0, sample_size, chunk)
            ])
        sample.sort()
        margin = 2.5 * math.sqrt(sample_size)
        lo = sample[max(int(ranks[0] / pairs * sample_size - margin), 0)]
        hi = sample[min(int(ranks[-1] / pairs * sample_size + margin), sample_size - 1)]
    while True:
        below, at_lo, inside, at_hi = _count_and_collect(X, lo, hi)
        if below <= ranks[0] and ranks[-1] < at_hi:
            break
        if below > ranks[0]:
            lo = -math.inf
        if ranks[-1] >= at_hi:
            hi = math.inf
    kth = [r - at_lo for r in ranks if at_lo <= r < at_lo + inside.size]
    if kth:
        inside.partition(kth)
    middle = [
        lo if r < at_lo else inside[r - at_lo] if r < at_lo + inside.size else hi
        for r in ranks
    ]
    return float(np.mean(np.array(middle)))


def initial_kernel(X, pseudo: PseudoObservations) -> RbfKernel:
    """Scale-aware starting point: target variance and median input distance."""
    X = np.asarray(X, dtype=float)
    sf2 = float(np.var(pseudo.Z))
    if not (np.isfinite(sf2) and sf2 > 0):
        sf2 = 1.0
    if X.shape[0] > 1:
        ls = _median_pairwise_distance(X)
    else:
        ls = 1.0
    if not (np.isfinite(ls) and ls > 0):
        ls = 1.0
    return RbfKernel(math.log(sf2), math.log(ls), X.shape[1])


def finalize_exact(X, pseudo: PseudoObservations, kernel: RbfKernel, fit_info=None) -> ExactGpModel:
    """Build the cached factorizations for a given kernel."""
    X = np.asarray(X, dtype=float)
    factors, _ = _coordinate_factors(kernel, X, pseudo)
    D = pseudo.latent_dim
    solves = np.empty((pseudo.n, D))
    for d in range(D):
        solves[:, d] = cho_solve((factors[d], True), pseudo.Z[:, d], check_finite=False)
    chols = (factors[0],) if pseudo.shared_noise else tuple(factors)
    return ExactGpModel(X, kernel, pseudo, chols, solves, fit_info)


def fit_exact(X, pseudo: PseudoObservations, opt_config: OptConfig | None = None) -> ExactGpModel:
    """Fit kernel hyperparameters by marginal-likelihood ascent.

    Deterministic: the starting point is data-derived and the ascent has no
    random component, so refitting the same inputs reproduces the model
    exactly.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 training points, got {X.shape[0]}")
    if X.shape[0] != pseudo.n:
        raise ValueError(f"X has {X.shape[0]} rows but Z has {pseudo.n}")
    k0 = initial_kernel(X, pseudo)
    objective = _ExactObjective(X, pseudo, k0)
    x0 = np.array([k0.log_signal_variance, k0.log_lengthscale])
    result = adam_maximize(objective.value_and_grad, x0, opt_config, value_only=objective.value)
    fitted = k0.with_params(result.params[0], result.params[1])
    return finalize_exact(X, pseudo, fitted, fit_info=result.fit_info())


def _clamp_variance(var):
    arr = np.asarray(var, dtype=float)
    if np.any(arr < _VAR_ROUNDOFF):
        log.warning(
            "predictive variance %.3e below round-off tolerance; clamping to 0", arr.min()
        )
    return np.maximum(arr, 0.0)


# Function-style name of the method, kept for the benchmark's per-layer probe
# and the acceptance tests.
predict_latent_batch = ExactGpModel.predictive
