"""Collapsed inducing-point approximation for the latent regression model.

The variational distribution over inducing values is optimized out
analytically, leaving a lower bound on the marginal log-likelihood: the
Gaussian log-density under the Nystrom approximation ``Q = Knm Km^-1 Kmn``
plus a trace penalty for the discarded residual. Everything is evaluated
through an M x M factorization in O(N M^2); the N x N matrix ``Q`` is never
formed. The gradient with respect to the kernel hyperparameters is analytic
and uses the same whitened terms.

The bound is a sum over data points, so one pass over fixed blocks of rows
accumulates everything the value and the gradient need into M x M and
M-sized sums. Fit, finalize and prediction memory is O(M^2 + M * block),
not O(N M): no N x M array outlives one block of rows.

Inducing inputs are chosen by k-means++ seeding and then held fixed; only
the kernel hyperparameters are optimized. Per-point (and per-coordinate)
noise is supported by folding the noise diagonal into the projected
statistics, one factorization per distinct noise column.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .gp import _LOG_2PI, PseudoObservations, _clamp_variance, initial_kernel, initial_log_noise_scale
from .kernel import RbfKernel, _as_inputs, cholesky_with_jitter, cross_gram, lower_inverse, sq_distances
from .optimize import Evaluation, OptConfig, maximize_kernel

# Entries of one M x block array in the collapsed objective's pass over the
# training rows and in sparse prediction: blocks of max(1, _BLOCK_ENTRIES // M)
# rows, 1024 at M = 64, so each such array takes 512 KiB whatever N is.
_BLOCK_ENTRIES = 1 << 16


def _block_rows(M: int) -> int:
    return max(1, _BLOCK_ENTRIES // M)


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


class _CollapsedObjective:
    """Collapsed bound and its analytic gradient from one pass over row blocks.

    With ``L`` the Cholesky factor of Km, ``V = L^-1 Kmn`` and, for a noise
    group with diagonal s^2 and each of its coordinates d,
    ``A = V diag(1/s)``, ``B = I + A A'`` (LB its Cholesky factor) and
    ``c = LB^-1 A (z_d/s)``, the bound per coordinate is
    ``-1/2 (quad + logdet + N log 2 pi + trace)`` with
    ``quad = (z_d/s)'(z_d/s) - c'c = z_d' (Q + diag(s^2))^-1 z_d``,
    ``logdet = 2 sum log diag LB + sum log s^2`` and
    ``trace = sum_i (k_ii - q_ii) / s_i^2``. Each block of rows adds its
    share of ``A A'``, ``A z_d/s``, ``(z_d/s)'(z_d/s)``, the trace term and
    ``sum log s^2``; nothing of size N x M outlives its block, so memory is
    O(M^2 + M * block).

    Parameters as for :class:`ilrgp.gp._ExactObjective`. The gradient is
    taken in whitened form: with ``R = dKmn = Kmn * D^2 / l^2`` (D^2 the
    squared distances), ``Psi = L^-1 R`` and ``Phi = L^-1 dKm L^-T``,
    ``dQ = Psi'V + V'Psi - V'Phi V``. Because the jitter scales with the
    signal variance, the log-signal-variance derivative is ``Psi = V``,
    ``Phi = I`` exactly. No inverse of the (often nearly singular) ``Km`` is
    ever formed, only of its Cholesky factor, whose condition number is the
    square root of Km's. For the noise scale, with ``S`` the scaled noise,
    ``tr((Q + S)^-1 S) = N - M + tr B^-1``.

    ``Psi`` itself is never formed. The blocks add ``V diag(1/s^2) R'`` and
    ``R diag(1/s^2) z_d``, and after the pass one product with ``L^-T`` each
    whitens them: ``H = [V diag(1/s^2) R'] L^-T`` and
    ``Pz_d = L^-1 [R diag(1/s^2) z_d]``. The trace penalty's lengthscale
    derivative needs ``sum_i dq_i / s_i^2`` (``dq`` the derivative of
    ``q_ii``) over the rows where its clamp ``k_ii - q_ii <= 0`` is not
    active: that is ``2 tr H - tr(Phi A A')``, less ``dq`` computed
    explicitly for the clamped rows alone. With ``w = LB^-T c`` the
    Woodbury solve ``alpha = (Q + S)^-1 z_d`` enters only through
    ``V alpha = A z_d/s - A A' w``, ``Psi alpha = Pz_d - H' w`` and
    ``||s alpha||^2 = (z_d/s)'(z_d/s) - 2 (A z_d/s)'w + w' A A' w``. A pass
    keeps three M x block arrays for all its blocks.

    A fit asks for the gradient at nearly every point whose value it takes,
    so :meth:`evaluate` computes both in one pass, together with the
    :class:`CollapsedGpModel` at that point: a fit's model is its last
    accepted evaluation. ``grad=False``, for :func:`finalize_collapsed` and
    :func:`collapsed_bound`, skips the gradient's terms and leaves the
    value's bits unchanged.
    """

    def __init__(self, X, Xu, pseudo, base_kernel):
        X = _as_inputs(X, base_kernel.input_dim)
        Xu = _as_inputs(Xu, base_kernel.input_dim)
        if X.shape[0] != pseudo.n:
            raise ValueError(f"X has {X.shape[0]} rows but Z has {pseudo.n}")
        self.X = X
        self.Xu = Xu
        self.pseudo = pseudo
        self.base = base_kernel
        self.d2_uu = sq_distances(Xu, Xu)

    def evaluate(self, params, grad=True) -> Evaluation:
        """The bound at ``params``, with its gradient unless ``grad`` is false (else ``None``)."""
        kernel = self.base.with_params(*params[:2])
        sf2 = kernel.signal_variance
        pseudo = self.pseudo.scale_noise(params[2]) if len(params) > 2 else self.pseudo
        groups = pseudo.noise_groups()
        Km = kernel.covariance(self.d2_uu)
        L_inv = lower_inverse(cholesky_with_jitter(Km, sf2))
        Z = self.pseudo.Z
        (N, D), M, G = Z.shape, Km.shape[0], len(groups)

        # Sums over row blocks: per group A A', the trace term and sum log s^2;
        # per coordinate A z_d/s and (z_d/s)'(z_d/s). The gradient adds
        # V diag(1/s^2) R', R diag(1/s^2) z_d and the clamped rows' dq' (1/s^2).
        AAt, trace, log_s2 = np.zeros((G, M, M)), np.zeros(G), np.zeros(G)
        Az, zz = np.zeros((D, M)), np.zeros(D)
        if grad:
            Phi = L_inv @ (L_inv @ kernel.dlog_lengthscale(Km, self.d2_uu)).T
            Hb, dq_clamped, Rz = np.zeros((G, M, M)), np.zeros(G), np.zeros((D, M))
        block = _block_rows(M)
        # Three M x block buffers serve every block: the squared distances
        # (then R), Kmn (written over the distances when R is not needed)
        # and V. Once V and R are formed, Kmn's buffer is the scratch W for
        # V * V, V / s^2 and A = V / s.
        buffers = np.empty((3, M * min(block, N)))
        for lo in range(0, N, block):
            rows = slice(lo, lo + block)
            X_rows = self.X[rows]
            d2, Kmn, V = (b[:M * X_rows.shape[0]].reshape(M, -1) for b in buffers)
            sq_distances(self.Xu, X_rows, out=d2, work=Kmn)
            if not grad:
                Kmn = d2
            kernel.covariance(d2, out=Kmn)
            np.matmul(L_inv, Kmn, out=V)
            if grad:
                R = kernel.dlog_lengthscale(Kmn, d2, out=d2)
            W = Kmn
            q = np.multiply(V, V, out=W).sum(axis=0)
            # tr(K - Q) is non-negative by construction; guard round-off.
            resid = np.maximum(sf2 - q, 0.0)
            if grad:
                # d q_ii / d log l of the rows where the trace penalty's clamp
                # is active, where the penalty is flat: taken off after the pass.
                clamped = np.flatnonzero(resid <= 0.0)
                Vc = V[:, clamped]
                dq_c = 2.0 * (Vc * (L_inv @ R[:, clamped])).sum(axis=0) - (Vc * (Phi @ Vc)).sum(axis=0)
            for g, (s2_all, cols) in enumerate(groups):
                s2 = s2_all[rows]
                s = np.sqrt(s2)
                inv_s2 = 1.0 / s2
                if grad:
                    Hb[g] += np.multiply(V, inv_s2, out=W) @ R.T
                    dq_clamped[g] += float(dq_c @ inv_s2[clamped])
                A = np.divide(V, s, out=W)
                AAt[g] += A @ A.T
                trace[g] += float(resid @ inv_s2)
                log_s2[g] += float(np.log(s2).sum())
                # One coordinate at a time, so a per-coordinate table whose
                # columns are equal reproduces shared noise bit for bit.
                for d in range(D)[cols]:
                    zs = Z[rows, d] / s
                    Az[d] += A @ zs
                    zz[d] += float(zs @ zs)
                    if grad:
                        Rz[d] += R @ (zs / s)
        if grad:
            # H = V diag(1/s^2) Psi' and Pz_d = Psi diag(1/s^2) z_d, with Psi = L^-1 R.
            H = Hb @ L_inv.T
            Pz = Rz @ L_inv.T

        value = 0.0
        g_out = np.zeros(len(params)) if grad else None
        inv_chol_bs, gammas = [], np.empty((M, D))
        for g, (_, cols) in enumerate(groups):
            LB = np.linalg.cholesky(np.eye(M) + AAt[g])
            LB_inv = lower_inverse(LB)
            inv_chol_bs.append(LB_inv)
            logdet = 2.0 * float(np.log(np.diag(LB)).sum()) + float(log_s2[g])
            tr = float(trace[g])
            if grad:
                # Terms shared by the group's coordinates:
                # -1/2 tr((Q + S)^-1 dQ) via V (Q + S)^-1 V' = I - B^-1 and
                # V (Q + S)^-1 Psi' = B^-1 H, plus the trace penalty's part.
                B_inv = LB_inv.T @ LB_inv
                g_sf2 = -0.5 * (M - np.trace(B_inv)) - 0.5 * tr
                dq_s2 = 2.0 * np.trace(H[g]) - np.vdot(Phi, AAt[g]) - dq_clamped[g]
                g_len = (-float((B_inv * H[g]).sum()) + 0.5 * float(np.trace(Phi) - (B_inv * Phi).sum())
                         + 0.5 * float(dq_s2))
                g_noise = -0.5 * (N - M + np.trace(B_inv)) + 0.5 * tr
            for d in range(D)[cols]:
                cd = LB_inv @ Az[d]
                gammas[:, d] = cd
                quad = float(zz[d]) - float(cd @ cd)
                value += -0.5 * quad - 0.5 * logdet - 0.5 * N * _LOG_2PI - 0.5 * tr
                if grad:
                    w = LB_inv.T @ cd
                    AAt_w = AAt[g] @ w
                    u = Az[d] - AAt_w  # V alpha
                    psi_alpha = Pz[d] - H[g].T @ w
                    g_out[0] += g_sf2 + 0.5 * float(u @ u)
                    g_out[1] += g_len + float(u @ psi_alpha) - 0.5 * float(u @ Phi @ u)
                    if len(g_out) > 2:
                        s_alpha2 = float(zz[d]) - 2.0 * float(Az[d] @ w) + float(w @ AAt_w)
                        g_out[2] += g_noise + 0.5 * s_alpha2
        model = CollapsedGpModel(self.X, self.Xu, kernel, pseudo, L_inv, tuple(inv_chol_bs), gammas)
        return Evaluation(value, g_out, model)


def collapsed_bound(kernel: RbfKernel, X, Xu, pseudo: PseudoObservations) -> float:
    """Collapsed variational lower bound on the marginal log-likelihood.

    Attains the exact marginal log-likelihood when the inducing inputs
    coincide with the training inputs, and is dominated by it otherwise.
    """
    return _CollapsedObjective(X, Xu, pseudo, kernel).evaluate(kernel.log_params, grad=False).value


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

        Shapes as for :meth:`ilrgp.gp.ExactGpModel.predictive`. Inputs are
        taken in blocks of rows as in the fit, so memory is O(M * block)
        beyond the outputs.
        """
        X_star = _as_inputs(X_star, self.kernel.input_dim)
        T = X_star.shape[0]
        group_cols = [cols for _, cols in self.pseudo.noise_groups()]
        means = np.empty((T, self.gammas.shape[1]))
        var = np.empty((T, self.gammas.shape[1]))
        block = _block_rows(self.Xu.shape[0])
        for lo in range(0, T, block):
            rows = slice(lo, lo + block)
            T1 = self.inv_chol_km @ cross_gram(self.kernel, self.Xu, X_star[rows])  # (M, block)
            prior = self.kernel.signal_variance - (T1 * T1).sum(axis=0)
            for LB_inv, cols in zip(self.inv_chol_bs, group_cols):
                T2 = LB_inv @ T1
                means[rows, cols] = T2.T @ self.gammas[:, cols]
                var[rows, cols] = (prior + (T2 * T2).sum(axis=0))[:, None]
        return means, _clamp_variance(var)


def finalize_collapsed(X, Xu, pseudo: PseudoObservations, kernel: RbfKernel, fit_info=None) -> CollapsedGpModel:
    """The model at a given kernel, from one evaluation without the gradient."""
    model = _CollapsedObjective(X, Xu, pseudo, kernel).evaluate(kernel.log_params, grad=False).model
    return replace(model, fit_info=fit_info)


def fit_collapsed(X, pseudo: PseudoObservations, M: int, seed,
                  opt_config: OptConfig | None = None, fit_noise: bool = True) -> CollapsedGpModel:
    """Fit kernel hyperparameters and, if ``fit_noise``, a noise scale ``c >= 1`` on the collapsed bound.

    Inducing inputs come from k-means++ seeding and stay fixed; the ascent
    and the fitted model are as for :func:`ilrgp.gp.fit_exact`, on the
    analytic gradient of the bound. No N x N or N x M matrix is formed: the
    bound and its gradient accumulate over blocks of rows in
    O(M^2 + M * block) memory, and the starting lengthscale is a median
    over at most 2^18 pairs of rows.
    """
    X = np.asarray(X, dtype=float)
    Xu = kmeanspp_select(X, M, seed)
    k0 = initial_kernel(X, pseudo)
    log_c0 = initial_log_noise_scale(pseudo) if fit_noise else None
    model = maximize_kernel(_CollapsedObjective(X, Xu, pseudo, k0), k0, opt_config, log_c0)
    model.fit_info["num_inducing"] = int(M)
    return model


# Function-style name of the method, kept for the benchmark's per-layer probe
# and the acceptance tests.
predict_latent_sparse_batch = CollapsedGpModel.predictive
