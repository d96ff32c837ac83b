import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from ilrgp import sparse
from ilrgp.gp import (
    PseudoObservations,
    _ExactObjective,
    finalize_exact,
    fit_exact,
    initial_kernel,
    initial_log_noise_scale,
    marginal_log_likelihood,
)
from ilrgp.kernel import RbfKernel, cholesky_with_jitter, cross_gram, gram, sq_distances
from ilrgp.optimize import OptConfig
from ilrgp.sparse import (
    _CollapsedObjective,
    collapsed_bound,
    finalize_collapsed,
    fit_collapsed,
    kmeanspp_select,
)


def random_problem(seed, n=25, p=2, d=2, noise="scalar"):
    rng = np.random.default_rng(seed)
    X = rng.random((n, p))
    Z = rng.standard_normal((n, d))
    if noise == "scalar":
        pseudo = PseudoObservations(Z, 0.2 + rng.random() * 0.3)
    else:
        pseudo = PseudoObservations(Z, rng.random((n, d)) * 0.5 + 0.1)
    kern = RbfKernel(rng.normal(scale=0.3), np.log(0.3) + rng.normal(scale=0.2), p)
    return X, pseudo, kern


def dense_bound_oracle(kern, X, Xu, pseudo):
    K = gram(kern, X)
    Km = gram(kern, Xu)
    Kmn = cross_gram(kern, Xu, X)
    Q = Kmn.T @ np.linalg.solve(Km, Kmn)
    total = 0.0
    for d in range(pseudo.latent_dim):
        s2 = pseudo.noise_diagonal(d)
        total += multivariate_normal.logpdf(
            pseudo.Z[:, d], mean=np.zeros(len(X)), cov=Q + np.diag(s2), allow_singular=True
        )
        total -= 0.5 * float(((K - Q).diagonal() / s2).sum())
    return total


class TestKmeansppSelect:
    def test_full_selection_is_permutation(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 3))
        sel = kmeanspp_select(X, 12, seed=5)
        assert sorted(map(tuple, sel)) == sorted(map(tuple, X))

    def test_single_center_is_data_row(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((9, 2))
        sel = kmeanspp_select(X, 1, seed=2)
        assert any(np.array_equal(sel[0], row) for row in X)

    def test_two_clusters_split(self):
        rng = np.random.default_rng(2)
        X = np.vstack([
            rng.standard_normal((30, 2)) * 0.05 + [0, 0],
            rng.standard_normal((30, 2)) * 0.05 + [50, 50],
        ])
        hits = 0
        trials = 1000
        for seed in range(trials):
            sel = kmeanspp_select(X, 2, seed=seed)
            sides = {tuple(c > 25.0) for c in sel}
            hits += len(sides) == 2
        assert hits / trials >= 0.99

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 2))
        np.testing.assert_array_equal(kmeanspp_select(X, 5, 7), kmeanspp_select(X, 5, 7))

    def test_m_bounds(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError):
            kmeanspp_select(X, 5, 0)
        with pytest.raises(ValueError):
            kmeanspp_select(X, 0, 0)

    def test_duplicate_points_fallback(self):
        X = np.vstack([np.zeros((5, 2)), np.ones((1, 2))])
        sel = kmeanspp_select(X, 4, seed=0)
        assert sel.shape == (4, 2)


class TestCollapsedBound:
    @pytest.mark.parametrize("noise", ["scalar", "per_coordinate"])
    def test_against_dense_oracle(self, noise):
        for seed in range(8):
            X, pseudo, kern = random_problem(seed, noise=noise)
            Xu = kmeanspp_select(X, 8, seed)
            ours = collapsed_bound(kern, X, Xu, pseudo)
            assert ours == pytest.approx(dense_bound_oracle(kern, X, Xu, pseudo), abs=1e-8)

    def test_dominated_by_marginal_likelihood(self):
        for seed in range(100):
            X, pseudo, kern = random_problem(seed, n=15)
            M = int(np.random.default_rng(seed).integers(1, 15))
            Xu = kmeanspp_select(X, M, seed)
            assert collapsed_bound(kern, X, Xu, pseudo) <= (
                marginal_log_likelihood(kern, X, pseudo) + 1e-8
            )

    def test_exact_at_full_inducing_set(self):
        for seed in range(5):
            X, pseudo, kern = random_problem(seed)
            gap = marginal_log_likelihood(kern, X, pseudo) - collapsed_bound(kern, X, X, pseudo)
            assert abs(gap) <= 1e-6

    @pytest.mark.parametrize("noise", ["scalar", "per_coordinate"])
    def test_exact_at_full_inducing_set_with_noise_scale(self, noise):
        for seed in range(5):
            X, pseudo, kern = random_problem(seed, noise=noise)
            p = kern.log_params + (0.6,)
            gap = _value(_ExactObjective(X, pseudo, kern), p) - _value(_CollapsedObjective(X, X, pseudo, kern), p)
            assert abs(gap) <= 1e-6

    def test_monotone_in_nested_inducing_sets(self):
        for seed in range(20):
            X, pseudo, kern = random_problem(seed, n=20)
            perm = np.random.default_rng(seed).permutation(20)
            small = X[perm[:5]]
            large = X[perm[:12]]
            assert collapsed_bound(kern, X, large, pseudo) >= (
                collapsed_bound(kern, X, small, pseudo) - 1e-8
            )


class TestSparsePrediction:
    def test_exact_at_full_inducing_set(self):
        for seed in range(5):
            X, pseudo, kern = random_problem(seed)
            sparse_model = finalize_collapsed(X, X, pseudo, kern)
            exact_model = finalize_exact(X, pseudo, kern)
            Xs = np.random.default_rng(seed).random((7, 2))
            ms, vs = sparse_model.predictive(Xs)
            me, ve = exact_model.predictive(Xs)
            assert np.abs(ms - me).max() <= 1e-6
            assert np.abs(vs - ve).max() <= 1e-6

    def test_prior_reversion_far_away(self):
        X, pseudo, kern = random_problem(1)
        model = finalize_collapsed(X, kmeanspp_select(X, 6, 0), pseudo, kern)
        means, var = model.predictive(np.full(2, 1e3))
        np.testing.assert_allclose(means[0], np.zeros(2), atol=1e-12)
        assert var[0] == pytest.approx(kern.signal_variance, rel=1e-12)

    def test_against_dense_formulas(self):
        X, pseudo, kern = random_problem(4)
        sigma2 = pseudo.noise
        Xu = kmeanspp_select(X, 9, 4)
        model = finalize_collapsed(X, Xu, pseudo, kern)
        Xs = np.random.default_rng(9).random((5, 2))
        means, var = model.predictive(Xs)
        Km = gram(kern, Xu)
        Kmn = cross_gram(kern, Xu, X)
        Ksu = cross_gram(kern, Xu, Xs)
        Sig = Km + (Kmn @ Kmn.T) / sigma2
        mean_o = Ksu.T @ np.linalg.solve(Sig, Kmn @ pseudo.Z) / sigma2
        var_o = (
            kern.signal_variance
            - np.einsum("mt,mt->t", Ksu, np.linalg.solve(Km, Ksu))
            + np.einsum("mt,mt->t", Ksu, np.linalg.solve(Sig, Ksu))
        )
        np.testing.assert_allclose(means, mean_o, atol=1e-9)
        np.testing.assert_allclose(var, np.broadcast_to(var_o[:, None], (5, 2)), atol=1e-9)

    def test_heteroscedastic_per_coordinate_path(self):
        X, pseudo, kern = random_problem(6, noise="per_coordinate")
        Xu = kmeanspp_select(X, 7, 6)
        model = finalize_collapsed(X, Xu, pseudo, kern)
        Xs = np.random.default_rng(2).random((4, 2))
        means, var = model.predictive(Xs)
        assert means.shape == (4, 2) and var.shape == (4, 2)
        Km = gram(kern, Xu)
        Kmn = cross_gram(kern, Xu, X)
        Ksu = cross_gram(kern, Xu, Xs)
        for d in range(2):
            s2 = pseudo.noise_diagonal(d)
            Sig = Km + (Kmn / s2[None, :]) @ Kmn.T
            mean_o = Ksu.T @ np.linalg.solve(Sig, Kmn @ (pseudo.Z[:, d] / s2))
            var_o = (
                kern.signal_variance
                - np.einsum("mt,mt->t", Ksu, np.linalg.solve(Km, Ksu))
                + np.einsum("mt,mt->t", Ksu, np.linalg.solve(Sig, Ksu))
            )
            np.testing.assert_allclose(means[:, d], mean_o, atol=1e-9)
            np.testing.assert_allclose(var[:, d], var_o, atol=1e-9)


def _value(objective, params):
    return objective.evaluate(params, grad=False).value


def _central_difference(objective, x, h):
    g = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        g[i] = (_value(objective, x + e) - _value(objective, x - e)) / (2.0 * h)
    return g


def _circle_pseudo(ds, noise):
    """Pseudo-observations of a circle mixture with scalar, per-point or per-coordinate noise."""
    from ilrgp.classifiers import GpdClassifierConfig, IlrClassifierConfig
    from ilrgp.simplex import SmoothingConfig

    if noise == "scalar":
        return IlrClassifierConfig(SmoothingConfig(0.99, 3)).pseudo(ds.labels)
    gpd = GpdClassifierConfig(0.01, 3).pseudo(ds.labels)
    return gpd if noise == "per_coordinate" else PseudoObservations(gpd.Z, gpd.noise[:, 0])


class TestBoundGradient:
    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    def test_matches_differences_at_data_derived_start(self, noise):
        # Km is nearly singular at the median-distance start kernel, so a
        # step of 1e-4 drowns in the bound's round-off. A step of 0.03 leaves
        # a truncation error near 1e-3 of its own, which one Richardson step
        # (with 0.015) removes.
        from ilrgp.data import gen_circle_mixture

        ds = gen_circle_mixture(3, 500, 0.5, seed=1)
        pseudo = _circle_pseudo(ds, noise)
        k0 = initial_kernel(ds.X, pseudo)
        objective = _CollapsedObjective(ds.X, kmeanspp_select(ds.X, 64, 0), pseudo, k0)
        x = np.array(k0.log_params + (initial_log_noise_scale(pseudo),))
        grad = objective.evaluate(x).grad
        h = 0.03
        fd = (4.0 * _central_difference(objective, x, h / 2) - _central_difference(objective, x, h)) / 3.0
        np.testing.assert_allclose(grad, fd, rtol=1e-3)

    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    def test_matches_differences_at_well_conditioned_kernel(self, noise):
        X, pseudo, kern = random_problem(3, n=40, noise="per_coordinate")
        if noise == "scalar":
            pseudo = PseudoObservations(pseudo.Z, 0.3)
        elif noise == "per_point":
            pseudo = PseudoObservations(pseudo.Z, pseudo.noise[:, 0])
        objective = _CollapsedObjective(X, kmeanspp_select(X, 10, 3), pseudo, kern)
        x = np.array([0.2, np.log(0.3), 0.4])
        grad = objective.evaluate(x).grad
        np.testing.assert_allclose(grad, _central_difference(objective, x, 1e-4), rtol=1e-6)

    def test_value_with_the_gradient_is_the_bound(self):
        X, pseudo, kern = random_problem(5, noise="per_coordinate")
        Xu = kmeanspp_select(X, 6, 5)
        objective = _CollapsedObjective(X, Xu, pseudo, kern)
        value = objective.evaluate(np.array([kern.log_signal_variance, kern.log_lengthscale])).value
        assert value == collapsed_bound(kern, X, Xu, pseudo)


def singular_inducing_problem(noise):
    """80 rows (20 repeated) and 40 inducing inputs, 5 of them repeated.

    The repeats make Km exactly singular, so its factor takes 1e-8 jitter
    (cond(L) about 6e4).
    """
    rng = np.random.default_rng(3)
    X0, Z0 = rng.random((60, 2)), rng.standard_normal((60, 2))
    X, Z = np.vstack([X0, X0[:20]]), np.vstack([Z0, Z0[:20]])
    if noise == "scalar":
        s2 = 0.05
    elif noise == "per_point":
        s2 = 0.02 + 0.1 * rng.random(80)
    else:
        s2 = 0.02 + 0.1 * rng.random((80, 2))
    return X, np.vstack([X0[:35], X0[:5]]), PseudoObservations(Z, s2), RbfKernel(0.2, math.log(1.2), 2)


def solve_reference_predictive(kern, X, Xu, pseudo, Xs):
    """Sparse predictive means and variances (T, D) by triangular solves."""
    L = cholesky_with_jitter(gram(kern, Xu), kern.signal_variance)
    V = solve_triangular(L, cross_gram(kern, Xu, X), lower=True)
    T1 = solve_triangular(L, cross_gram(kern, Xu, Xs), lower=True)
    means = np.empty((len(Xs), pseudo.latent_dim))
    var = np.empty_like(means)
    for d in range(pseudo.latent_dim):
        s2 = pseudo.noise_diagonal(d)
        LB = np.linalg.cholesky(np.eye(len(Xu)) + (V / s2) @ V.T)
        T2 = solve_triangular(LB, T1, lower=True)
        means[:, d] = T2.T @ solve_triangular(LB, V @ (pseudo.Z[:, d] / s2), lower=True)
        var[:, d] = kern.signal_variance - (T1 * T1).sum(axis=0) + (T2 * T2).sum(axis=0)
    return means, var


def dense_reference_gradient(kern, X, Xu, pseudo, log_c):
    """Bound gradient from N x N matrices, with ``Q = V'V`` and ``V`` by triangular solves."""
    pseudo = pseudo.scale_noise(log_c)
    Km, Kmn = gram(kern, Xu), cross_gram(kern, Xu, X)
    L = cholesky_with_jitter(Km, kern.signal_variance)
    ls2 = kern.lengthscale**2
    V = solve_triangular(L, Kmn, lower=True)
    Psi = solve_triangular(L, Kmn * sq_distances(Xu, X) / ls2, lower=True)
    W = solve_triangular(L, Km * sq_distances(Xu, Xu) / ls2, lower=True)
    Phi = solve_triangular(L, W.T, lower=True)
    Q = V.T @ V
    dQ_len = Psi.T @ V + V.T @ Psi - V.T @ Phi @ V
    resid = kern.signal_variance - np.diag(Q)
    live = resid > 0.0  # the trace penalty's clamp
    g = np.zeros(3)
    for d in range(pseudo.latent_dim):
        S = pseudo.noise_diagonal(d)
        C = Q + np.diag(S)
        alpha = np.linalg.solve(C, pseudo.Z[:, d])
        C_inv = np.linalg.inv(C)
        for i, (dC, dresid) in enumerate([(Q, resid), (dQ_len, -np.diag(dQ_len))]):
            g[i] += 0.5 * alpha @ dC @ alpha - 0.5 * np.sum(C_inv * dC) - 0.5 * np.sum(live * dresid / S)
        g[2] += 0.5 * alpha @ (S * alpha) - 0.5 * np.sum(np.diag(C_inv) * S) + 0.5 * np.sum(live * resid / S)
    return g


class TestInverseFactorNumerics:
    """Products with ``L^-1`` and ``LB^-1`` against triangular solves, on a jittered Km."""

    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    def test_predictive_matches_triangular_solves(self, noise):
        X, Xu, pseudo, kern = singular_inducing_problem(noise)
        Xs = np.random.default_rng(1).random((9, 2))
        means, var = finalize_collapsed(X, Xu, pseudo, kern).predictive(Xs)
        ref_means, ref_var = solve_reference_predictive(kern, X, Xu, pseudo, Xs)
        # measured: 6e-13 and 2.4e-14 at most
        np.testing.assert_allclose(means, ref_means, rtol=0, atol=1e-11)
        np.testing.assert_allclose(var, ref_var, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    @pytest.mark.parametrize("log_c", [0.0, 0.6])
    def test_bound_gradient_matches_dense_reference(self, noise, log_c, caplog):
        X, Xu, pseudo, kern = singular_inducing_problem(noise)
        with caplog.at_level("WARNING", logger="ilrgp.kernel"):
            grad = _CollapsedObjective(X, Xu, pseudo, kern).evaluate(kern.log_params + (log_c,)).grad
        assert "adding diagonal jitter" in caplog.text
        # measured: 2.5e-12 relative at most
        np.testing.assert_allclose(grad, dense_reference_gradient(kern, X, Xu, pseudo, log_c), rtol=1e-10)


class TestHeteroscedasticEqualsScalar:
    def test_bitwise_identical(self):
        X, pseudo, kern = random_problem(12, n=30, d=3)
        Xu = kmeanspp_select(X, 8, 2)
        sigma2 = 0.37
        shared = PseudoObservations(pseudo.Z, sigma2)
        table = PseudoObservations(pseudo.Z, np.full((30, 3), sigma2))
        assert collapsed_bound(kern, X, Xu, shared) == collapsed_bound(kern, X, Xu, table)
        np.testing.assert_array_equal(
            _CollapsedObjective(X, Xu, shared, kern).evaluate(kern.log_params).grad,
            _CollapsedObjective(X, Xu, table, kern).evaluate(kern.log_params).grad,
        )
        m_s = finalize_collapsed(X, Xu, shared, kern)
        m_t = finalize_collapsed(X, Xu, table, kern)
        np.testing.assert_array_equal(m_s.gammas, m_t.gammas)
        Xs = np.random.default_rng(3).standard_normal((4, 2))
        mean_s, var_s = m_s.predictive(Xs)
        mean_t, var_t = m_t.predictive(Xs)
        # one (T, M) x (M, D) product against one per column: round-off only
        np.testing.assert_allclose(mean_s, mean_t, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(var_s, var_t, strict=True)


def noise_kind_problem(seed, n, noise):
    """``random_problem`` with scalar, per-point or per-coordinate noise."""
    X, pseudo, kern = random_problem(seed, n=n, noise="per_coordinate")
    if noise == "scalar":
        pseudo = PseudoObservations(pseudo.Z, 0.3)
    elif noise == "per_point":
        pseudo = PseudoObservations(pseudo.Z, pseudo.noise[:, 0])
    return X, pseudo, kern


class TestRowBlocks:
    """The pass over row blocks against one block of all rows: round-off only."""

    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    @pytest.mark.parametrize("n", [41, 42, 43])  # a multiple of 7 and either side of one
    def test_blocks_match_one_block(self, monkeypatch, noise, n):
        X, pseudo, kern = noise_kind_problem(n, n, noise)
        M = 8
        Xu = kmeanspp_select(X, M, n)
        Xs = np.random.default_rng(n).random((n, 2))
        params = kern.log_params + (0.4,)

        def run(rows):
            monkeypatch.setattr(sparse, "_BLOCK_ENTRIES", rows * M)
            value, grad = _CollapsedObjective(X, Xu, pseudo, kern).evaluate(params)[:2]
            model = finalize_collapsed(X, Xu, pseudo, kern)
            return value, grad, model.gammas, model.predictive(Xs)

        value, grad, gammas, (means, var) = run(n + 5)
        for rows in (1, 7):
            b_value, b_grad, b_gammas, (b_means, b_var) = run(rows)
            assert b_value == pytest.approx(value, rel=1e-12, abs=0)
            np.testing.assert_allclose(b_grad, grad, rtol=0, atol=1e-12 * np.abs(grad).max())
            np.testing.assert_allclose(b_gammas, gammas, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b_means, means, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b_var, var, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("noise", ["scalar", "per_coordinate"])
    def test_memory_stays_below_one_n_by_m_array(self, noise):
        # One 40000 x 64 float array takes 20 MB; a pass holds a few 1024-row blocks.
        N, M = 40000, 64
        rng = np.random.default_rng(0)
        X, Z = rng.standard_normal((N, 2)), rng.standard_normal((N, 2))
        pseudo = PseudoObservations(Z, 0.3 if noise == "scalar" else 0.1 + rng.random((N, 2)))
        kern = RbfKernel(0.0, math.log(0.5), 2)
        Xu = kmeanspp_select(X[:2000], M, 0)
        objective = _CollapsedObjective(X, Xu, pseudo, kern)
        model = finalize_collapsed(X, Xu, pseudo, kern)
        for call in (lambda: objective.evaluate(kern.log_params + (0.2,)),
                     lambda: finalize_collapsed(X, Xu, pseudo, kern),
                     lambda: model.predictive(X)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20


class TestFitCollapsed:
    def test_full_inducing_set_matches_exact_fit(self):
        X, pseudo, _ = random_problem(8, n=30)
        cfg = OptConfig(max_iters=250)
        exact = fit_exact(X, pseudo, cfg)
        sparse = fit_collapsed(X, pseudo, M=30, seed=0, opt_config=cfg)
        exact_obj = marginal_log_likelihood(exact.kernel, X, pseudo)
        sparse_obj = collapsed_bound(sparse.kernel, X, sparse.Xu, pseudo)
        assert abs(exact_obj - sparse_obj) <= 1e-4

    @pytest.mark.parametrize("noise", ["scalar", "per_coordinate"])
    def test_objective_is_the_bound_at_the_fitted_kernel(self, noise):
        X, pseudo, _ = random_problem(7, n=60, noise=noise)
        cfg = OptConfig(max_iters=30)
        model = fit_collapsed(X, pseudo, 12, seed=1, opt_config=cfg)
        info = model.fit_info
        # The model carries the noise scaled by the fitted c.
        assert info["objective"] == collapsed_bound(model.kernel, X, model.Xu, model.pseudo)
        assert (info["final_grad_max"] < cfg.grad_tol) == (info["stop"] == "grad_tol")
        assert info["converged"] == (info["stop"] in ("grad_tol", "round_off"))

    def test_deterministic(self):
        X, pseudo, _ = random_problem(9, n=20)
        cfg = OptConfig(max_iters=20)
        m1 = fit_collapsed(X, pseudo, 8, seed=3, opt_config=cfg)
        m2 = fit_collapsed(X, pseudo, 8, seed=3, opt_config=cfg)
        assert m1.kernel == m2.kernel
        np.testing.assert_array_equal(m1.Xu, m2.Xu)
        np.testing.assert_array_equal(m1.gammas, m2.gammas)


def _fit_backend(backend, X, pseudo, opt, fit_noise):
    if backend == "exact":
        return fit_exact(X, pseudo, opt, fit_noise)
    return fit_collapsed(X, pseudo, 16, seed=0, opt_config=opt, fit_noise=fit_noise)


def _model_arrays(model):
    if isinstance(model, sparse.CollapsedGpModel):
        return [model.inv_chol_km, *model.inv_chol_bs, model.gammas]
    return [*model.inv_chols, model.solves]


class TestFitIsItsLastEvaluation:
    """A fit evaluates each point it tries once, and its model is the evaluation at the fitted point."""

    OBJECTIVES = {"exact": _ExactObjective, "collapsed": _CollapsedObjective}

    @staticmethod
    def problem(model):
        from ilrgp.data import gen_circle_mixture

        ds = gen_circle_mixture(3, 60, 0.5, seed=0)
        return ds.X, _circle_pseudo(ds, "scalar" if model == "ilr" else "per_coordinate")

    @pytest.mark.parametrize("backend", ["exact", "collapsed"])
    @pytest.mark.parametrize("model", ["ilr", "gpd"])
    def test_objective_is_evaluated_once_per_counted_evaluation(self, monkeypatch, backend, model):
        cls = self.OBJECTIVES[backend]
        evaluate, calls = cls.evaluate, []

        def counted(objective, params, grad=True):
            calls.append(grad)
            return evaluate(objective, params, grad)

        monkeypatch.setattr(cls, "evaluate", counted)
        X, pseudo = self.problem(model)
        info = _fit_backend(backend, X, pseudo, OptConfig(), True).fit_info
        assert len(calls) == info["evaluations"] > info["iterations"] > 0
        assert all(calls)

    @pytest.mark.parametrize("backend", ["exact", "collapsed"])
    @pytest.mark.parametrize("model", ["ilr", "gpd"])
    @pytest.mark.parametrize("case", ["default", "noise_pinned", "max_iters_0", "round_off"])
    def test_model_is_finalize_at_the_fitted_point(self, backend, model, case):
        X, pseudo = self.problem(model)
        opt = {"max_iters_0": OptConfig(max_iters=0), "round_off": OptConfig(grad_tol=0.0)}.get(case)
        fitted = _fit_backend(backend, X, pseudo, opt, case != "noise_pinned")
        assert fitted.fit_info["stop"] == {"max_iters_0": "max_iters", "round_off": "round_off"}.get(
            case, "grad_tol")
        if backend == "exact":
            again = finalize_exact(X, fitted.pseudo, fitted.kernel)
        else:
            again = finalize_collapsed(X, fitted.Xu, fitted.pseudo, fitted.kernel)
        for ours, reference in zip(_model_arrays(fitted), _model_arrays(again), strict=True):
            assert ours.tobytes() == reference.tobytes()


class TestSparseVsExactAccuracy:
    def test_circle_mixture_accuracy_gap(self):
        # collapsed backend stays within 0.03 test accuracy of the exact one
        from ilrgp.classifiers import IlrClassifierConfig, fit_classifier, predict_proba
        from ilrgp.data import gen_circle_mixture
        from ilrgp.metrics import error_rate
        from ilrgp.simplex import SmoothingConfig

        train = gen_circle_mixture(4, 1000, 0.35, seed=11)
        test = gen_circle_mixture(4, 1000, 0.35, seed=12)
        opt = OptConfig(max_iters=80)
        exact_cfg = IlrClassifierConfig(SmoothingConfig(0.99, 4), mc_samples=500)
        sparse_cfg = IlrClassifierConfig(
            SmoothingConfig(0.99, 4), mc_samples=500,
            backend="collapsed", num_inducing=64, backend_seed=0,
        )
        exact_model = fit_classifier(train.X, train.labels, exact_cfg, opt)
        sparse_model = fit_classifier(train.X, train.labels, sparse_cfg, opt)
        err_exact = error_rate(
            predict_proba(exact_model, test.X, exact_cfg, seed=1).labels_hat, test.labels
        )
        err_sparse = error_rate(
            predict_proba(sparse_model, test.X, sparse_cfg, seed=1).labels_hat, test.labels
        )
        assert abs(err_exact - err_sparse) <= 0.03
