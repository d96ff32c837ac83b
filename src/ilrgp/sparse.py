"""Collapsed inducing-point approximation for the latent regression model.

The variational distribution over inducing values is optimized out
analytically, leaving a lower bound on the marginal log-likelihood: the
Gaussian log-density under the Nystrom approximation ``Q = Knm Km^-1 Kmn``
plus a trace penalty for the discarded residual. Everything is evaluated
through an M x M factorization in O(N M^2); the N x N matrix ``Q`` is never
formed. The gradient with respect to the kernel hyperparameters is analytic
and uses the same whitened terms.

Inducing inputs are chosen by k-means++ seeding and then held fixed; only
the kernel hyperparameters are optimized. Per-point (and per-coordinate)
noise is supported by folding the noise diagonal into the projected
statistics, one factorization per distinct noise column.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from .gp import PseudoObservations, _clamp_variance, initial_kernel
from .kernel import RbfKernel, _as_inputs, cholesky_with_jitter, cross_gram
from .optimize import OptConfig, adam_maximize

_LOG_2PI = math.log(2.0 * math.pi)


def kmeanspp_select(X, M: int, seed) -> np.ndarray:
    """Choose M rows of X by the k-means++ seeding rule (no Lloyd steps).

    The first center is uniform; each subsequent center is drawn with
    probability proportional to its squared distance to the nearest center
    already chosen. Deterministic given ``seed``.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= M <= n:
        raise ValueError(f"need 1 <= M <= {n}, got M={M}")
    rng = np.random.default_rng(seed)
    chosen = np.empty(M, dtype=int)
    chosen[0] = rng.integers(n)
    min_d2 = ((X - X[chosen[0]]) ** 2).sum(axis=1)
    taken = np.zeros(n, dtype=bool)
    taken[chosen[0]] = True
    for m in range(1, M):
        total = min_d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=min_d2 / total))
        else:
            # All remaining points coincide with a center; fall back to a
            # uniform draw over the untaken ones.
            idx = int(rng.choice(np.flatnonzero(~taken)))
        chosen[m] = idx
        taken[idx] = True
        min_d2 = np.minimum(min_d2, ((X - X[idx]) ** 2).sum(axis=1))
    return X[chosen].copy()


class _Coordinate(NamedTuple):
    """Bound terms of one output coordinate (see :func:`_coordinate_pieces`)."""

    s: np.ndarray
    A: np.ndarray
    LB: np.ndarray
    zs: np.ndarray
    c: np.ndarray
    quad: float
    logdet: float
    trace: float


def _coordinate_pieces(kernel, Km, Kmn, pseudo):
    """Shared ``L``, ``V = L^-1 Kmn`` and ``q = diag(V'V)``, plus per-coordinate terms.

    For coordinate d with noise diagonal s^2:
      A  = V diag(1/s)                 (M x N)
      B  = I + A A'                    (M x M), LB its Cholesky
      c  = LB^-1 A (z/s)
      quad   = (z/s)'(z/s) - c'c       = z' (Q + diag(s^2))^-1 z
      logdet = 2 sum log diag LB + sum log s^2
      trace  = sum_i (k_ii - q_ii) / s_i^2
    Coordinates with the same noise diagonal share (s, A, LB, logdet, trace).
    """
    L = cholesky_with_jitter(Km, kernel.signal_variance)
    V = solve_triangular(L, Kmn, lower=True, check_finite=False)
    q_diag = (V * V).sum(axis=0)
    kss = kernel.signal_variance

    pieces = []
    cache = {}
    for d in range(pseudo.latent_dim):
        s2 = pseudo.noise_diagonal(d)
        key = 0 if pseudo.shared_noise else d
        if key not in cache:
            s = np.sqrt(s2)
            A = V / s[None, :]
            B = np.eye(Km.shape[0]) + A @ A.T
            LB = np.linalg.cholesky(B)
            logdet = 2.0 * float(np.log(np.diag(LB)).sum()) + float(np.log(s2).sum())
            # tr(K - Q) is non-negative by construction; guard round-off.
            trace = float(np.maximum(kss - q_diag, 0.0) @ (1.0 / s2))
            cache[key] = (s, A, LB, logdet, trace)
        s, A, LB, logdet, trace = cache[key]
        zs = pseudo.Z[:, d] / s
        c = solve_triangular(LB, A @ zs, lower=True, check_finite=False)
        quad = float(zs @ zs) - float(c @ c)
        pieces.append(_Coordinate(s, A, LB, zs, c, quad, logdet, trace))
    return L, V, q_diag, pieces


class _CollapsedObjective:
    """Collapsed bound with cached distances and factors, and its analytic gradient.

    The inducing-inducing and inducing-training squared distances never
    change during a fit, and the halving search evaluates the bound at a
    point immediately before the gradient is requested there, so a
    one-entry cache lets both share one factorization. Gram blocks are built
    with the same arithmetic as :func:`gram` / :func:`cross_gram`, so values
    match a fresh evaluation exactly.

    The gradient is taken in whitened form: with ``Psi = L^-1 dKmn`` and
    ``Phi = L^-1 dKm L^-T``, ``dQ = Psi'V + V'Psi - V'Phi V``. Because the
    jitter scales with the signal variance, the log-signal-variance
    derivative is ``Psi = V``, ``Phi = I`` exactly. No inverse of the
    (often nearly singular) ``Km`` is ever formed.
    """

    def __init__(self, X, Xu, pseudo, base_kernel):
        X = _as_inputs(X, base_kernel.input_dim)
        Xu = _as_inputs(Xu, base_kernel.input_dim)
        if X.shape[0] != pseudo.n:
            raise ValueError(f"X has {X.shape[0]} rows but Z has {pseudo.n}")
        self.pseudo = pseudo
        self.base = base_kernel
        self.d2_uu = cdist(Xu, Xu, "sqeuclidean")
        self.d2_un = cdist(Xu, X, "sqeuclidean")
        self._key = None
        self._state = None

    def prepare(self, params):
        """``(kernel, Km, Kmn, L, V, q_diag, pieces)`` at the log parameters."""
        key = (float(params[0]), float(params[1]))
        if key != self._key:
            kernel = self.base.with_params(*key)
            sf2, two_ls2 = kernel.signal_variance, 2.0 * kernel.lengthscale**2
            Km = sf2 * np.exp(-self.d2_uu / two_ls2)
            Kmn = sf2 * np.exp(-self.d2_un / two_ls2)
            self._state = (kernel, Km, Kmn) + _coordinate_pieces(kernel, Km, Kmn, self.pseudo)
            self._key = key
        return self._state

    def value(self, params) -> float:
        pieces = self.prepare(params)[-1]
        n = self.pseudo.n
        bound = 0.0
        for p in pieces:
            bound += -0.5 * p.quad - 0.5 * p.logdet - 0.5 * n * _LOG_2PI - 0.5 * p.trace
        return bound

    def value_and_grad(self, params):
        kernel, Km, Kmn, L, V, q_diag, pieces = self.prepare(params)
        ls2 = kernel.lengthscale**2
        Psi = solve_triangular(L, Kmn * (self.d2_un / ls2), lower=True, check_finite=False)
        W = solve_triangular(L, Km * (self.d2_uu / ls2), lower=True, check_finite=False)
        Phi = solve_triangular(L, W.T, lower=True, check_finite=False)
        # d q_ii / d log l; the trace penalty is flat where its clamp is active.
        dq = 2.0 * (V * Psi).sum(axis=0) - (V * (Phi @ V)).sum(axis=0)
        dq[kernel.signal_variance - q_diag <= 0.0] = 0.0
        M = V.shape[0]
        grad = np.zeros(2)
        shared = {}
        for p in pieces:
            key = id(p.LB)
            if key not in shared:
                # Terms shared by coordinates with this noise column:
                # -1/2 tr((Q + S)^-1 dQ) via V (Q + S)^-1 V' = I - B^-1 and
                # V (Q + S)^-1 Psi' = B^-1 H, plus the trace penalty's part.
                B_inv = cho_solve((p.LB, True), np.eye(M), check_finite=False)
                inv_s2 = 1.0 / (p.s * p.s)
                H = (V * inv_s2) @ Psi.T
                shared[key] = (
                    -0.5 * (M - np.trace(B_inv)) - 0.5 * p.trace,
                    -float((B_inv * H).sum()) + 0.5 * float(np.trace(Phi) - (B_inv * Phi).sum())
                    + 0.5 * float(dq @ inv_s2),
                )
            g_sf2, g_len = shared[key]
            # alpha = (Q + S)^-1 z by Woodbury; u = V alpha.
            w = solve_triangular(p.LB, p.c, lower=True, trans="T", check_finite=False)
            alpha = (p.zs - p.A.T @ w) / p.s
            u = V @ alpha
            grad[0] += g_sf2 + 0.5 * float(u @ u)
            grad[1] += g_len + float(u @ (Psi @ alpha)) - 0.5 * float(u @ Phi @ u)
        return self.value(params), grad


def collapsed_bound(kernel: RbfKernel, X, Xu, pseudo: PseudoObservations) -> float:
    """Collapsed variational lower bound on the marginal log-likelihood.

    Attains the exact marginal log-likelihood when the inducing inputs
    coincide with the training inputs, and is dominated by it otherwise.
    """
    params = (kernel.log_signal_variance, kernel.log_lengthscale)
    return _CollapsedObjective(X, Xu, pseudo, kernel).value(params)


@dataclass(frozen=True)
class CollapsedGpModel:
    """Fitted collapsed model: inducing set plus projected statistics."""

    X_train: np.ndarray
    Xu: np.ndarray
    kernel: RbfKernel
    pseudo: PseudoObservations
    chol_km: np.ndarray
    chol_bs: tuple
    gammas: np.ndarray  # (M, D), column d = LB_d^-1 A_d (z_d / s_d)
    fit_info: dict | None = field(default=None, compare=False)

    @property
    def num_inducing(self) -> int:
        return self.Xu.shape[0]

    def predictive(self, X_star):
        """Sparse latent predictive means and variances for a batch of inputs.

        Shapes as for :meth:`ilrgp.gp.ExactGpModel.predictive`.
        """
        X_star = np.asarray(X_star, dtype=float)
        if X_star.ndim == 1:
            X_star = X_star[None, :]
        Ksu = cross_gram(self.kernel, self.Xu, X_star)  # (M, T)
        T1 = solve_triangular(self.chol_km, Ksu, lower=True, check_finite=False)
        prior = self.kernel.signal_variance - (T1 * T1).sum(axis=0)
        means = np.empty((X_star.shape[0], self.gammas.shape[1]))
        var = np.empty((X_star.shape[0], len(self.chol_bs)))
        for d, LB in enumerate(self.chol_bs):
            T2 = solve_triangular(LB, T1, lower=True, check_finite=False)
            # One shared factor predicts every column in a single product.
            cols = slice(None) if self.pseudo.shared_noise else d
            means[:, cols] = T2.T @ self.gammas[:, cols]
            var[:, d] = prior + (T2 * T2).sum(axis=0)
        return means, _clamp_variance(var[:, 0] if self.pseudo.shared_noise else var)


def finalize_collapsed(X, Xu, pseudo: PseudoObservations, kernel: RbfKernel, fit_info=None) -> CollapsedGpModel:
    """Cache the factorizations needed for sparse prediction."""
    params = (kernel.log_signal_variance, kernel.log_lengthscale)
    _, _, _, L, _, _, pieces = _CollapsedObjective(X, Xu, pseudo, kernel).prepare(params)
    gammas = np.column_stack([p.c for p in pieces])
    chol_bs = (pieces[0].LB,) if pseudo.shared_noise else tuple(p.LB for p in pieces)
    return CollapsedGpModel(
        np.asarray(X, dtype=float), np.asarray(Xu, dtype=float), kernel, pseudo,
        L, chol_bs, gammas, fit_info,
    )


def fit_collapsed(X, pseudo: PseudoObservations, M: int, seed,
                  opt_config: OptConfig | None = None) -> CollapsedGpModel:
    """Fit kernel hyperparameters on the collapsed bound.

    Inducing inputs come from k-means++ seeding and stay fixed; the two log
    hyperparameters are optimized with the same ascent loop as the exact
    model, on the analytic gradient of the bound. No N x N matrix is formed:
    the bound and its gradient work on O(N M) blocks, and the starting
    lengthscale comes from a streamed median.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] != pseudo.n:
        raise ValueError(f"X has {X.shape[0]} rows but Z has {pseudo.n}")
    Xu = kmeanspp_select(X, M, seed)
    k0 = initial_kernel(X, pseudo)
    objective = _CollapsedObjective(X, Xu, pseudo, k0)
    x0 = np.array([k0.log_signal_variance, k0.log_lengthscale])
    result = adam_maximize(objective.value_and_grad, x0, opt_config, value_only=objective.value)
    fitted = k0.with_params(result.params[0], result.params[1])
    info = {**result.fit_info(), "num_inducing": int(M)}
    return finalize_collapsed(X, Xu, pseudo, fitted, fit_info=info)


# Function-style name of the method, kept for the benchmark's per-layer probe
# and the acceptance tests.
predict_latent_sparse_batch = CollapsedGpModel.predictive
