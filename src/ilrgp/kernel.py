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

    @property
    def _squared_lengthscale(self) -> np.float64:
        # Squared in float64, so a huge lengthscale gives inf, not OverflowError;
        # numpy's scalar power has the bits of Python's float power.
        with np.errstate(over="ignore"):
            return np.float64(self.lengthscale) ** 2

    def covariance(self, d2, out=None) -> np.ndarray:
        """Covariances at squared distances ``d2``, written into ``out`` if given (may be ``d2``)."""
        out = np.negative(d2, out=out)
        out /= 2.0 * self._squared_lengthscale
        np.exp(out, out=out)
        out *= self.signal_variance
        return out

    def dlog_lengthscale(self, K, d2, out=None) -> np.ndarray:
        """Derivative of the covariances ``K`` at squared distances ``d2`` with respect to log l.

        Written into ``out`` if given, which may be ``d2``.
        """
        out = np.divide(d2, self._squared_lengthscale, out=out)
        out *= K
        return out


def _as_inputs(X, input_dim) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise ValueError(f"expected inputs of shape (n, {input_dim}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs contain non-finite values")
    return X


def sq_distances(A, B, out=None, work=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of A (n, P) and B (m, P).

    Sums the squared coordinate differences column by column, the order
    ``scipy.spatial.distance.cdist(A, B, "sqeuclidean")`` uses, so the
    result has the same bits, and its square root those of ``pdist``; like
    them it overflows to inf silently. Needs one temporary the size of the
    (n, m) output; ``out`` and ``work``, if given, are used for the two.
    """
    with np.errstate(over="ignore"):
        out = np.subtract.outer(A[:, 0], B[:, 0], out=out)
        out *= out
        if A.shape[1] > 1:
            tmp = np.empty_like(out) if work is None else work
            for j in range(1, A.shape[1]):
                np.subtract.outer(A[:, j], B[:, j], out=tmp)
                tmp *= tmp
                out += tmp
    return out


def lower_inverse(L) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, exactly lower-triangular.

    Recursive 2x2 blocks: the inverse of ``[[L11, 0], [L21, L22]]`` is
    ``[[X11, 0], [-X22 L21 X11, X22]]``; blocks of order at most
    ``_INV_BASE`` are inverted by LU and their upper triangle zeroed. Every
    block is written straight into the one array returned.
    """
    out = np.empty_like(L)
    _lower_inverse_into(L, out)
    return out


def _lower_inverse_into(L, out):
    n = L.shape[0]
    if n <= _INV_BASE:
        out[...] = np.tril(np.linalg.inv(L))
        return
    h = n // 2
    _lower_inverse_into(L[:h, :h], out[:h, :h])
    _lower_inverse_into(L[h:, h:], out[h:, h:])
    out[:h, h:] = 0.0
    off = out[h:, :h]
    np.matmul(out[h:, h:], L[h:, :h] @ out[:h, :h], out=off)
    np.negative(off, out=off)


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
    ``numpy.linalg.LinAlgError`` once the ladder is exhausted. The jitter is
    added to ``A``'s own diagonal, which holds its original values again
    when this returns or raises, so no second matrix the size of ``A`` is made.
    """
    jitter, base = 0.0, None
    try:
        while True:
            try:
                return np.linalg.cholesky(A)
            except np.linalg.LinAlgError:
                if jitter >= _JITTER_MAX:
                    raise np.linalg.LinAlgError(
                        f"matrix not positive definite even with jitter {jitter:.1e} * signal variance"
                    )
                jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
                log.warning("adding diagonal jitter %.1e * signal variance", jitter)
                if base is None:
                    diag = np.diag_indices_from(A)
                    base = A[diag]
                A[diag] = base + jitter * signal_variance
    finally:
        if base is not None:
            A[diag] = base
