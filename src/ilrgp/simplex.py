"""Aitchison geometry on the open probability simplex.

Probability vectors live on the simplex (positive entries summing to one).
The natural geometry there is built from pairwise log-ratios; the isometric
log-ratio (ILR) map carries it to plain Euclidean geometry on ``R^{K-1}``
without distortion, so Gaussian noise placed in ILR coordinates has a
well-defined meaning back on the simplex.

This module provides the orthonormal contrast (Helmert) basis defining the
ILR coordinates, the forward/inverse maps, the Aitchison inner product and
distance in their raw double-sum form (useful as an independent cross-check
of the ILR isometry), smoothed per-class targets, and the closed-form noise
level that keeps the per-class Gaussian components from overlapping beyond a
chosen tolerance.

Classes are numbered ``1..K`` throughout.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# Largest class count for which the contrast matrix is materialized densely.
MAX_DENSE_CLASSES = 1024

# Entries at or below this are treated as boundary points and rejected;
# nothing is clamped, so degenerate inputs surface as errors.
_MIN_INTERIOR = 1e-300

_SUM_TOL = 1e-12

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class SmoothingConfig:
    """Label-smoothing setup for a K-class problem.

    Parameters
    ----------
    lam : float
        Interpolation weight in (0, 1) pulling one-hot labels toward the
        uniform vector. Larger values put class targets closer to the
        simplex vertices.
    num_classes : int
        Number of classes K, at least 2.
    epsilon : float
        Tolerance probability in (0, 1) for inter-class overlap of the
        latent Gaussian components; used by :func:`sigma_bound`.
    """

    lam: float
    num_classes: int
    epsilon: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ValueError(f"lam must be in (0, 1), got {self.lam}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")

    @property
    def latent_dim(self) -> int:
        return self.num_classes - 1


def _as_interior_vector(p, num_classes=None) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D probability vector, got shape {p.shape}")
    if num_classes is not None and p.shape[0] != num_classes:
        raise ValueError(f"expected length {num_classes}, got {p.shape[0]}")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector has non-finite entries")
    if np.any(p <= _MIN_INTERIOR):
        raise ValueError("probability vector is not strictly interior to the simplex")
    total = p.sum()
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"probability vector sums to {total!r}, not 1")
    return p


def helmert_basis(num_classes: int) -> np.ndarray:
    """Orthonormal contrast matrix defining the ILR coordinates.

    Row ``d`` (1-indexed) has its first ``d`` entries equal to
    ``1/sqrt(d(d+1))``, entry ``d+1`` equal to ``-d/sqrt(d(d+1))`` and zeros
    elsewhere. The rows are orthonormal and orthogonal to the all-ones
    vector, so ``H @ H.T = I`` and ``H @ 1 = 0``.

    Parameters
    ----------
    num_classes : int
        Number of classes K >= 2.

    Returns
    -------
    ndarray of shape (K - 1, K)
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if num_classes > MAX_DENSE_CLASSES:
        raise ValueError(
            f"dense contrast matrix limited to K <= {MAX_DENSE_CLASSES}, got {num_classes}"
        )
    H = np.zeros((num_classes - 1, num_classes))
    for d in range(1, num_classes):
        s = 1.0 / math.sqrt(d * (d + 1))
        H[d - 1, :d] = s
        H[d - 1, d] = -d * s
    return H


def ilr_forward(p, H=None) -> np.ndarray:
    """Map an interior probability vector to its ILR coordinates.

    Computes ``H @ log(p)``. The input must be strictly interior (all
    entries positive); boundary points have no log-ratio representation.

    Parameters
    ----------
    p : array_like of shape (K,)
        Interior probability vector.
    H : ndarray of shape (K - 1, K), optional
        Contrast basis; built with :func:`helmert_basis` when omitted.

    Returns
    -------
    ndarray of shape (K - 1,)
    """
    p = _as_interior_vector(p)
    if H is None:
        H = helmert_basis(p.shape[0])
    elif H.shape[1] != p.shape[0]:
        raise ValueError(f"basis is for K={H.shape[1]}, vector has K={p.shape[0]}")
    return H @ np.log(p)


def ilr_inverse(z, H=None) -> np.ndarray:
    """Map ILR coordinates back to the interior of the simplex.

    Computes ``softmax(H.T @ z)`` with max-subtraction, so large coordinate
    magnitudes cannot overflow. The output is strictly positive and sums to
    one.

    Parameters
    ----------
    z : array_like of shape (K - 1,)
        Latent coordinates.
    H : ndarray of shape (K - 1, K), optional
        Contrast basis; built from the length of ``z`` when omitted.

    Returns
    -------
    ndarray of shape (K,)
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"expected a 1-D latent vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("latent vector has non-finite entries")
    if H is None:
        H = helmert_basis(z.shape[0] + 1)
    elif H.shape[0] != z.shape[0]:
        raise ValueError(f"basis has D={H.shape[0]}, vector has D={z.shape[0]}")
    return softmax_rows(H.T @ z)


def softmax_rows(Z, axis=-1, out=None) -> np.ndarray:
    """Max-subtracted softmax over the class axis ``axis`` of an array.

    The max and sum over classes are taken class by class, K - 1 elementwise
    operations over the other axes, in place of reductions along the class
    axis, which pay a per-row overhead when that axis is short. Sums
    accumulate left to right; for K < 8 that is the order numpy's own row
    sum uses, so the results are bit-identical to
    ``w / w.sum(axis=axis, keepdims=True)``, whatever the layout. ``out``
    may be ``Z`` itself, which normalises in place.
    """
    Z = np.asarray(Z, dtype=float)
    if out is None:
        out = np.empty_like(Z)
    Zk = np.moveaxis(Z, axis, 0)
    W = np.moveaxis(out, axis, 0)
    m = np.array(Zk[0])
    for k in range(1, Zk.shape[0]):
        np.maximum(m, Zk[k], out=m)
    np.subtract(Zk, m, out=W)
    np.exp(out, out=out)
    total = np.array(W[0])
    for k in range(1, W.shape[0]):
        total += W[k]
    W /= total
    return out


def ilr_inverse_rows(Z, H) -> np.ndarray:
    """Row-wise :func:`ilr_inverse` for an (n, K-1) array of latent vectors."""
    L = np.asarray(Z, dtype=float) @ H
    return softmax_rows(L, out=L)


def aitchison_inner(x, y) -> float:
    """Aitchison inner product of two interior probability vectors.

    Evaluates the raw double sum ``(1/2K) * sum_{i,j} log(x_i/x_j) *
    log(y_i/y_j)``. This deliberately avoids the ILR shortcut so it can
    serve as an independent oracle for the isometry of the transform.
    """
    x = _as_interior_vector(x)
    y = _as_interior_vector(y, num_classes=x.shape[0])
    lx = np.log(x)
    ly = np.log(y)
    dx = lx[:, None] - lx[None, :]
    dy = ly[:, None] - ly[None, :]
    return float((dx * dy).sum() / (2 * x.shape[0]))


def aitchison_distance(x, y) -> float:
    """Aitchison distance between two interior probability vectors.

    Evaluates ``sqrt((1/2K) * sum_{i,j} (log(x_i/x_j) - log(y_i/y_j))^2)``,
    which equals the Euclidean distance between the ILR images.
    """
    x = _as_interior_vector(x)
    y = _as_interior_vector(y, num_classes=x.shape[0])
    lx = np.log(x)
    ly = np.log(y)
    dx = lx[:, None] - lx[None, :]
    dy = ly[:, None] - ly[None, :]
    return math.sqrt(((dx - dy) ** 2).sum() / (2 * x.shape[0]))


def class_target(k: int, cfg: SmoothingConfig, H=None):
    """Smoothed simplex target and its ILR image for class ``k``.

    The simplex target interpolates the one-hot vertex toward the uniform
    vector, ``lam * e_k + (1 - lam) * (1/K) * 1``, which keeps it strictly
    interior so the ILR image exists.

    Parameters
    ----------
    k : int
        Class index in ``1..K``.
    cfg : SmoothingConfig
    H : ndarray, optional
        Contrast basis for ``cfg.num_classes``.

    Returns
    -------
    (ndarray of shape (K,), ndarray of shape (K - 1,))
        The simplex target and its latent image.
    """
    K = cfg.num_classes
    if not 1 <= k <= K:
        raise IndexError(f"class index {k} out of range 1..{K}")
    mu = np.full(K, (1.0 - cfg.lam) / K)
    mu[k - 1] += cfg.lam
    return mu, ilr_forward(mu, H)


def class_target_matrix(cfg: SmoothingConfig, H=None) -> np.ndarray:
    """Stack of all K latent class targets, one per row."""
    if H is None:
        H = helmert_basis(cfg.num_classes)
    return np.vstack([class_target(k, cfg, H)[1] for k in range(1, cfg.num_classes + 1)])


def separation_delta(cfg: SmoothingConfig) -> float:
    """Common pairwise distance between latent class targets.

    All pairs of smoothed targets are equidistant; the distance is
    ``sqrt(2) * log(1 + K*lam/(1 - lam))`` and grows without bound as the
    smoothing weight approaches 1.
    """
    return math.sqrt(2.0) * math.log1p(cfg.num_classes * cfg.lam / (1.0 - cfg.lam))


def normal_quantile(q):
    """Standard normal quantile function (inverse CDF).

    Accepts a scalar or an array of probabilities in the open interval
    (0, 1) and returns the corresponding quantiles, by Wichura's AS241
    (``statistics.NormalDist.inv_cdf``), accurate to about 1e-16.
    """
    arr = np.asarray(q, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = np.vectorize(_STANDARD_NORMAL.inv_cdf, otypes=[float])(arr)
    return float(out) if out.ndim == 0 else out


def sigma_bound(cfg: SmoothingConfig) -> float:
    """Largest latent noise standard deviation with negligible class overlap.

    With equidistant class targets, a Gaussian component centered on one
    target escapes its own nearest-target cell with probability at most
    ``epsilon`` whenever the noise standard deviation is at most
    ``delta / (2 * Phi^{-1}(1 - epsilon/D))``, where ``delta`` is the target
    separation and ``D = K - 1``. This bound is the default noise level for
    the latent classifier; any smaller value is also valid.
    """
    D = cfg.latent_dim
    z = normal_quantile(1.0 - cfg.epsilon / D)
    return separation_delta(cfg) / (2.0 * z)
