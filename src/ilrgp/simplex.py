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

import numpy as np

# Largest class count for which the contrast matrix is materialized densely.
MAX_DENSE_CLASSES = 1024

# Entries at or below this are treated as boundary points and rejected;
# nothing is clamped, so degenerate inputs surface as errors.
_MIN_INTERIOR = 1e-300

_SUM_TOL = 1e-12


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
    logits = H.T @ z
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def softmax_rows(Z) -> np.ndarray:
    """Max-subtracted softmax of each row of an (n, K) array.

    The row max and row sum are taken column by column, K - 1 elementwise
    operations over length-n vectors, in place of ``axis=1`` reductions,
    which pay a per-row overhead on the short trailing axis. Sums accumulate
    left to right; for K < 8 that is the order numpy's own row sum uses, so
    the results are bit-identical to ``w / w.sum(axis=1, keepdims=True)``.
    """
    Z = np.asarray(Z, dtype=float)
    m = Z[:, 0].copy()
    for k in range(1, Z.shape[1]):
        np.maximum(m, Z[:, k], out=m)
    W = Z - m[:, None]
    np.exp(W, out=W)
    total = W[:, 0].copy()
    for k in range(1, W.shape[1]):
        total += W[:, k]
    W /= total[:, None]
    return W


def ilr_inverse_rows(Z, H) -> np.ndarray:
    """Row-wise :func:`ilr_inverse` for an (n, K-1) array of latent vectors."""
    return softmax_rows(Z @ H)


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


# Rational minimax approximation to the standard normal quantile function
# (Wichura's PPND16 scheme); relative accuracy is far below the 1e-9
# contract across (1e-12, 1 - 1e-12), including the deep tails needed for
# epsilon/D down to ~5e-7 and beyond.
_PPND_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_PPND_B = (
    4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_PPND_D = (
    2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_PPND_F = (
    5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _poly(coeffs, r):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * r + c
    return acc


def _ppnd16(p: float) -> float:
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _poly(_PPND_A, r) / (_poly((1.0,) + _PPND_B, r))
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        val = _poly(_PPND_C, r) / _poly((1.0,) + _PPND_D, r)
    else:
        r -= 5.0
        val = _poly(_PPND_E, r) / _poly((1.0,) + _PPND_F, r)
    return -val if q < 0.0 else val


def normal_quantile(q):
    """Standard normal quantile function (inverse CDF).

    Accepts a scalar or an array of probabilities in the open interval
    (0, 1) and returns the corresponding quantiles.
    """
    arr = np.asarray(q, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    if arr.ndim == 0:
        return _ppnd16(float(arr))
    out = np.empty_like(arr)
    flat_in = arr.ravel()
    flat_out = out.ravel()
    for i, v in enumerate(flat_in):
        flat_out[i] = _ppnd16(v)
    return out


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
