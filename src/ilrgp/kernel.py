"""Isotropic RBF covariance with log-scale hyperparameters.

Hyperparameters live on the log scale so unconstrained gradient ascent can
never leave the positive cone. The kernel is shared across all latent output
coordinates.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

log = logging.getLogger(__name__)

# Jitter escalation for factorizations that fail: start at 1e-8 * signal
# variance, multiply by 10 up to 1e-4 * signal variance, then give up.
_JITTER_START = 1e-8
_JITTER_MAX = 1e-4


@dataclass(frozen=True)
class RbfKernel:
    """Squared-exponential kernel ``sf2 * exp(-||x - x'||^2 / (2 l^2))``."""

    log_signal_variance: float
    log_lengthscale: float
    input_dim: int

    def __post_init__(self):
        if not (np.isfinite(self.log_signal_variance) and np.isfinite(self.log_lengthscale)):
            raise ValueError("kernel hyperparameters must be finite")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")

    @property
    def signal_variance(self) -> float:
        return float(np.exp(self.log_signal_variance))

    @property
    def lengthscale(self) -> float:
        return float(np.exp(self.log_lengthscale))

    def with_params(self, log_signal_variance, log_lengthscale) -> "RbfKernel":
        return RbfKernel(float(log_signal_variance), float(log_lengthscale), self.input_dim)


def _as_inputs(X, input_dim) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise ValueError(f"expected inputs of shape (n, {input_dim}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs contain non-finite values")
    return X


def gram(k: RbfKernel, X) -> np.ndarray:
    """Symmetric Gram matrix K(X, X)."""
    X = _as_inputs(X, k.input_dim)
    d2 = cdist(X, X, "sqeuclidean")
    return k.signal_variance * np.exp(-d2 / (2.0 * k.lengthscale**2))


def cross_gram(k: RbfKernel, X, X2) -> np.ndarray:
    """Cross-covariance matrix K(X, X2) of shape (n, m)."""
    X = _as_inputs(X, k.input_dim)
    X2 = _as_inputs(X2, k.input_dim)
    d2 = cdist(X, X2, "sqeuclidean")
    return k.signal_variance * np.exp(-d2 / (2.0 * k.lengthscale**2))


def gram_gradients(k: RbfKernel, X):
    """Gram matrix plus its derivatives w.r.t. the log hyperparameters.

    Returns ``(K, dK/dlog_sf2, dK/dlog_len)``. On the log scale the signal
    derivative is the Gram matrix itself, and the lengthscale derivative is
    ``K * ||x_i - x_j||^2 / l^2``.
    """
    X = _as_inputs(X, k.input_dim)
    d2 = cdist(X, X, "sqeuclidean")
    ls2 = k.lengthscale**2
    K = k.signal_variance * np.exp(-d2 / (2.0 * ls2))
    return K, K.copy(), K * (d2 / ls2)


def cholesky_with_jitter(A, signal_variance: float) -> np.ndarray:
    """Lower Cholesky factor of ``A``, adding escalating diagonal jitter.

    The first attempt is jitter-free; on failure, multiples of the signal
    variance from 1e-8 up to 1e-4 are added to the diagonal. Raises
    ``numpy.linalg.LinAlgError`` once the ladder is exhausted.
    """
    jitter = 0.0
    while True:
        try:
            if jitter == 0.0:
                return np.linalg.cholesky(A)
            log.warning("adding diagonal jitter %.1e * signal variance", jitter)
            return np.linalg.cholesky(A + (jitter * signal_variance) * np.eye(A.shape[0]))
        except np.linalg.LinAlgError:
            if jitter >= _JITTER_MAX:
                raise np.linalg.LinAlgError(
                    f"matrix not positive definite even with jitter {jitter:.1e} * signal variance"
                )
            jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
