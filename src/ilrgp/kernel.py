"""Isotropic RBF covariance with log-scale hyperparameters.

Hyperparameters live on the log scale so unconstrained gradient ascent can
never leave the positive cone. The kernel is shared across all latent output
coordinates.
"""

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# Triangular inverses recurse on 2x2 blocks down to this order.
_INV_BASE = 32

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

    @property
    def log_params(self) -> tuple:
        """``(log_signal_variance, log_lengthscale)``, the coordinates a fit moves in."""
        return (self.log_signal_variance, self.log_lengthscale)

    def with_params(self, log_signal_variance, log_lengthscale) -> "RbfKernel":
        return RbfKernel(float(log_signal_variance), float(log_lengthscale), self.input_dim)

    def covariance(self, d2) -> np.ndarray:
        """Covariances at squared distances ``d2``."""
        return self.signal_variance * np.exp(-d2 / (2.0 * self.lengthscale**2))

    def dlog_lengthscale(self, K, d2) -> np.ndarray:
        """Derivative of the covariances ``K`` at squared distances ``d2`` with respect to log l."""
        return K * (d2 / self.lengthscale**2)


def _as_inputs(X, input_dim) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise ValueError(f"expected inputs of shape (n, {input_dim}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs contain non-finite values")
    return X


def sq_distances(A, B) -> np.ndarray:
    """Squared Euclidean distances between the rows of A (n, P) and B (m, P).

    Sums the squared coordinate differences column by column, the order
    ``scipy.spatial.distance.cdist(A, B, "sqeuclidean")`` uses, so the
    result has the same bits, and its square root those of ``pdist``; like
    them it overflows to inf silently. Needs one temporary the size of the
    (n, m) output.
    """
    with np.errstate(over="ignore"):
        out = np.subtract.outer(A[:, 0], B[:, 0])
        out *= out
        if A.shape[1] > 1:
            tmp = np.empty_like(out)
            for j in range(1, A.shape[1]):
                np.subtract.outer(A[:, j], B[:, j], out=tmp)
                tmp *= tmp
                out += tmp
    return out


def lower_inverse(L) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, exactly lower-triangular.

    Recursive 2x2 blocks: the inverse of ``[[L11, 0], [L21, L22]]`` is
    ``[[X11, 0], [-X22 L21 X11, X22]]``; blocks of order at most
    ``_INV_BASE`` are inverted by LU and their upper triangle zeroed.
    """
    n = L.shape[0]
    if n <= _INV_BASE:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    X11 = lower_inverse(L[:h, :h])
    X22 = lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = X11
    out[h:, h:] = X22
    out[h:, :h] = -(X22 @ (L[h:, :h] @ X11))
    return out


def gram(k: RbfKernel, X) -> np.ndarray:
    """Symmetric Gram matrix K(X, X)."""
    return cross_gram(k, X, X)


def cross_gram(k: RbfKernel, X, X2) -> np.ndarray:
    """Cross-covariance matrix K(X, X2) of shape (n, m)."""
    X = _as_inputs(X, k.input_dim)
    X2 = _as_inputs(X2, k.input_dim)
    return k.covariance(sq_distances(X, X2))


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
