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

from .gp import PseudoObservations, _clamp_variance, initial_kernel, initial_log_noise_scale
from .kernel import RbfKernel, _as_inputs, cholesky_with_jitter, cross_gram, lower_inverse, sq_distances
from .optimize import OptConfig, maximize_kernel

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


class _Group(NamedTuple):
    """Bound terms of one noise group (see :func:`_group_pieces`)."""

    s: np.ndarray
    A: np.ndarray
    LB_inv: np.ndarray
    logdet: float
    trace: float
    coords: list  # (zs, c, quad) for each column of the group, in order


def _group_pieces(kernel, Km, Kmn, pseudo):
    """Shared ``L^-1`` (L the Cholesky factor of Km), ``V = L^-1 Kmn`` and
    ``q = diag(V'V)``, plus per-group terms.

    For a noise group with diagonal s^2, and each of its coordinates d:
      A  = V diag(1/s)                 (M x N)
      B  = I + A A'                    (M x M), LB its Cholesky
      logdet = 2 sum log diag LB + sum log s^2
      trace  = sum_i (k_ii - q_ii) / s_i^2
      c  = LB^-1 A (z_d/s)
      quad   = (z_d/s)'(z_d/s) - c'c   = z_d' (Q + diag(s^2))^-1 z_d
    """
    L_inv = lower_inverse(cholesky_with_jitter(Km, kernel.signal_variance))
    V = L_inv @ Kmn
    q_diag = (V * V).sum(axis=0)
    kss = kernel.signal_variance

    groups = []
    for s2, cols in pseudo.noise_groups():
        s = np.sqrt(s2)
        A = V / s[None, :]
        B = np.eye(Km.shape[0]) + A @ A.T
        LB = np.linalg.cholesky(B)
        LB_inv = lower_inverse(LB)
        logdet = 2.0 * float(np.log(np.diag(LB)).sum()) + float(np.log(s2).sum())
        # tr(K - Q) is non-negative by construction; guard round-off.
        trace = float(np.maximum(kss - q_diag, 0.0) @ (1.0 / s2))
        coords = []
        for d in range(pseudo.latent_dim)[cols]:
            zs = pseudo.Z[:, d] / s
            c = LB_inv @ (A @ zs)
            coords.append((zs, c, float(zs @ zs) - float(c @ c)))
        groups.append(_Group(s, A, LB_inv, logdet, trace, coords))
    return L_inv, V, q_diag, groups


class _CollapsedObjective:
    """Collapsed bound with cached distances and factors, and its analytic gradient.

    The inducing-inducing and inducing-training squared distances never
    change during a fit, and the line search evaluates the bound at a
    point immediately before the gradient is requested there, so a
    one-entry cache lets both share one factorization. Gram blocks are built
    with the same arithmetic as :func:`gram` / :func:`cross_gram`, so values
    match a fresh evaluation exactly.

    Parameters as for :class:`ilrgp.gp._ExactObjective`. The gradient is taken in whitened form: with ``Psi = L^-1 dKmn`` and
    ``Phi = L^-1 dKm L^-T``, ``dQ = Psi'V + V'Psi - V'Phi V``. Because the
    jitter scales with the signal variance, the log-signal-variance
    derivative is ``Psi = V``, ``Phi = I`` exactly. No inverse of the
    (often nearly singular) ``Km`` is ever formed, only of its Cholesky
    factor, whose condition number is the square root of Km's. For the noise scale, with
    ``S`` the scaled noise, ``tr((Q + S)^-1 S) = N - M + tr B^-1``.
    """

    def __init__(self, X, Xu, pseudo, base_kernel):
        X = _as_inputs(X, base_kernel.input_dim)
        Xu = _as_inputs(Xu, base_kernel.input_dim)
        if X.shape[0] != pseudo.n:
            raise ValueError(f"X has {X.shape[0]} rows but Z has {pseudo.n}")
        self.pseudo = pseudo
        self.base = base_kernel
        self.d2_uu = sq_distances(Xu, Xu)
        self.d2_un = sq_distances(Xu, X)
        self._key = None
        self._state = None

    def prepare(self, params):
        """``(kernel, Km, Kmn, L^-1, V, q_diag, groups)`` at the parameters."""
        key = tuple(float(p) for p in params)
        if key != self._key:
            kernel = self.base.with_params(*key[:2])
            sf2, two_ls2 = kernel.signal_variance, 2.0 * kernel.lengthscale**2
            Km = sf2 * np.exp(-self.d2_uu / two_ls2)
            Kmn = sf2 * np.exp(-self.d2_un / two_ls2)
            pseudo = self.pseudo.scale_noise(key[2]) if len(key) > 2 else self.pseudo
            self._state = (kernel, Km, Kmn) + _group_pieces(kernel, Km, Kmn, pseudo)
            self._key = key
        return self._state

    def value(self, params) -> float:
        n = self.pseudo.n
        bound = 0.0
        for grp in self.prepare(params)[-1]:
            for _, _, quad in grp.coords:
                bound += -0.5 * quad - 0.5 * grp.logdet - 0.5 * n * _LOG_2PI - 0.5 * grp.trace
        return bound

    def value_and_grad(self, params):
        kernel, Km, Kmn, L_inv, V, q_diag, groups = self.prepare(params)
        ls2 = kernel.lengthscale**2
        Psi = L_inv @ (Kmn * (self.d2_un / ls2))
        W = L_inv @ (Km * (self.d2_uu / ls2))
        Phi = L_inv @ W.T
        # d q_ii / d log l; the trace penalty is flat where its clamp is active.
        dq = 2.0 * (V * Psi).sum(axis=0) - (V * (Phi @ V)).sum(axis=0)
        dq[kernel.signal_variance - q_diag <= 0.0] = 0.0
        M, N = V.shape
        grad = np.zeros(len(params))
        for grp in groups:
            # Terms shared by the group's coordinates:
            # -1/2 tr((Q + S)^-1 dQ) via V (Q + S)^-1 V' = I - B^-1 and
            # V (Q + S)^-1 Psi' = B^-1 H, plus the trace penalty's part.
            B_inv = grp.LB_inv.T @ grp.LB_inv
            inv_s2 = 1.0 / (grp.s * grp.s)
            H = (V * inv_s2) @ Psi.T
            g_sf2 = -0.5 * (M - np.trace(B_inv)) - 0.5 * grp.trace
            g_len = (-float((B_inv * H).sum()) + 0.5 * float(np.trace(Phi) - (B_inv * Phi).sum())
                     + 0.5 * float(dq @ inv_s2))
            g_noise = -0.5 * (N - M + np.trace(B_inv)) + 0.5 * grp.trace
            for zs, c, _ in grp.coords:
                # alpha = (Q + S)^-1 z by Woodbury; u = V alpha.
                w = grp.LB_inv.T @ c
                s_alpha = zs - grp.A.T @ w
                alpha = s_alpha / grp.s
                u = V @ alpha
                grad[0] += g_sf2 + 0.5 * float(u @ u)
                grad[1] += g_len + float(u @ (Psi @ alpha)) - 0.5 * float(u @ Phi @ u)
                if len(grad) > 2:
                    grad[2] += g_noise + 0.5 * float(s_alpha @ s_alpha)
        return self.value(params), grad


def collapsed_bound(kernel: RbfKernel, X, Xu, pseudo: PseudoObservations) -> float:
    """Collapsed variational lower bound on the marginal log-likelihood.

    Attains the exact marginal log-likelihood when the inducing inputs
    coincide with the training inputs, and is dominated by it otherwise.
    """
    return _CollapsedObjective(X, Xu, pseudo, kernel).value(kernel.log_params)


@dataclass(frozen=True)
class CollapsedGpModel:
    """Fitted collapsed model: inducing set plus projected statistics."""

    X_train: np.ndarray
    Xu: np.ndarray
    kernel: RbfKernel
    pseudo: PseudoObservations
    inv_chol_km: np.ndarray  # L^-1, L the Cholesky factor of Km
    inv_chol_bs: tuple  # LB^-1 for each noise group
    gammas: np.ndarray  # (M, D), column d = LB_d^-1 A_d (z_d / s_d)
    fit_info: dict | None = field(default=None, compare=False)

    def predictive(self, X_star):
        """Sparse latent predictive means and variances for a batch of inputs.

        Shapes as for :meth:`ilrgp.gp.ExactGpModel.predictive`.
        """
        X_star = np.asarray(X_star, dtype=float)
        if X_star.ndim == 1:
            X_star = X_star[None, :]
        Ksu = cross_gram(self.kernel, self.Xu, X_star)  # (M, T)
        T1 = self.inv_chol_km @ Ksu
        prior = self.kernel.signal_variance - (T1 * T1).sum(axis=0)
        means = np.empty((X_star.shape[0], self.gammas.shape[1]))
        var = np.empty((X_star.shape[0], len(self.inv_chol_bs)))
        for g, (LB_inv, (_, cols)) in enumerate(zip(self.inv_chol_bs, self.pseudo.noise_groups())):
            T2 = LB_inv @ T1
            means[:, cols] = T2.T @ self.gammas[:, cols]
            var[:, g] = prior + (T2 * T2).sum(axis=0)
        return means, _clamp_variance(var[:, 0] if self.pseudo.shared_noise else var)


def finalize_collapsed(X, Xu, pseudo: PseudoObservations, kernel: RbfKernel, fit_info=None) -> CollapsedGpModel:
    """Cache the factorizations needed for sparse prediction."""
    _, _, _, L_inv, _, _, groups = _CollapsedObjective(X, Xu, pseudo, kernel).prepare(kernel.log_params)
    gammas = np.column_stack([c for grp in groups for _, c, _ in grp.coords])
    inv_chol_bs = tuple(grp.LB_inv for grp in groups)
    return CollapsedGpModel(
        np.asarray(X, dtype=float), np.asarray(Xu, dtype=float), kernel, pseudo,
        L_inv, inv_chol_bs, gammas, fit_info,
    )


def fit_collapsed(X, pseudo: PseudoObservations, M: int, seed,
                  opt_config: OptConfig | None = None, fit_noise: bool = True) -> CollapsedGpModel:
    """Fit kernel hyperparameters and, if ``fit_noise``, a noise scale ``c >= 1`` on the collapsed bound.

    Inducing inputs come from k-means++ seeding and stay fixed; the ascent
    and the fitted model are as for :func:`ilrgp.gp.fit_exact`, on the
    analytic gradient of the bound. No N x N matrix is formed: the bound
    and its gradient work on O(N M) blocks, and the starting lengthscale
    is a median over at most 2^18 pairs of rows.
    """
    X = np.asarray(X, dtype=float)
    Xu = kmeanspp_select(X, M, seed)
    k0 = initial_kernel(X, pseudo)
    log_c0 = initial_log_noise_scale(pseudo) if fit_noise else None
    kernel, log_c, info = maximize_kernel(_CollapsedObjective(X, Xu, pseudo, k0), k0, opt_config, log_c0)
    info["num_inducing"] = int(M)
    return finalize_collapsed(X, Xu, pseudo.scale_noise(log_c), kernel, fit_info=info)


# Function-style name of the method, kept for the benchmark's per-layer probe
# and the acceptance tests.
predict_latent_sparse_batch = CollapsedGpModel.predictive
