import numpy as np
import pytest
from scipy.stats import multivariate_normal

from ilrgp.gp import (
    PseudoObservations,
    finalize_exact,
    fit_exact,
    initial_kernel,
    marginal_log_likelihood,
)
from ilrgp.kernel import RbfKernel, cross_gram, gram
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
        np.testing.assert_allclose(var, var_o, atol=1e-9)

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


def _central_difference(objective, x, h):
    g = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        g[i] = (objective.value(x + e) - objective.value(x - e)) / (2.0 * h)
    return g


def _circle_pseudo(ds, noise):
    """Pseudo-observations of a circle mixture with scalar, per-point or per-coordinate noise."""
    from ilrgp.classifiers import GpdClassifierConfig, IlrClassifierConfig, build_pseudo
    from ilrgp.simplex import SmoothingConfig

    if noise == "scalar":
        return build_pseudo(ds.labels, IlrClassifierConfig(SmoothingConfig(0.99, 3)))
    gpd = build_pseudo(ds.labels, GpdClassifierConfig(0.01, 3))
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
        x = np.array([k0.log_signal_variance, k0.log_lengthscale])
        _, grad = objective.value_and_grad(x)
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
        x = np.array([0.2, np.log(0.3)])
        _, grad = objective.value_and_grad(x)
        np.testing.assert_allclose(grad, _central_difference(objective, x, 1e-4), rtol=1e-6)

    def test_value_and_grad_value_is_the_bound(self):
        X, pseudo, kern = random_problem(5, noise="per_coordinate")
        Xu = kmeanspp_select(X, 6, 5)
        objective = _CollapsedObjective(X, Xu, pseudo, kern)
        value, _ = objective.value_and_grad(np.array([kern.log_signal_variance, kern.log_lengthscale]))
        assert value == collapsed_bound(kern, X, Xu, pseudo)


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
        assert info["objective"] == collapsed_bound(model.kernel, X, model.Xu, pseudo)
        assert info["converged"] == (info["final_grad_max"] < cfg.grad_tol)

    def test_deterministic(self):
        X, pseudo, _ = random_problem(9, n=20)
        cfg = OptConfig(max_iters=20)
        m1 = fit_collapsed(X, pseudo, 8, seed=3, opt_config=cfg)
        m2 = fit_collapsed(X, pseudo, 8, seed=3, opt_config=cfg)
        assert m1.kernel == m2.kernel
        np.testing.assert_array_equal(m1.Xu, m2.Xu)
        np.testing.assert_array_equal(m1.gammas, m2.gammas)


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
