import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist
from scipy.stats import multivariate_normal

from ilrgp import gp
from ilrgp.gp import (
    ExactGpModel,
    PseudoObservations,
    finalize_exact,
    fit_exact,
    initial_kernel,
    marginal_log_likelihood,
    mll_gradient,
)
from ilrgp.kernel import RbfKernel, cross_gram, gram
from ilrgp.optimize import FitError, OptConfig, adam_maximize


def random_problem(seed, n=6, p=2, d=2, noise="scalar"):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    Z = rng.standard_normal((n, d))
    if noise == "scalar":
        pseudo = PseudoObservations(Z, 0.1 + rng.random())
    elif noise == "per_point":
        pseudo = PseudoObservations(Z, rng.random(n) + 0.05)
    else:
        pseudo = PseudoObservations(Z, rng.random((n, d)) + 0.05)
    kern = RbfKernel(rng.normal(scale=0.5), rng.normal(scale=0.5), p)
    return X, pseudo, kern


def dense_mll_oracle(kern, X, pseudo):
    K = gram(kern, X)
    total = 0.0
    for d in range(pseudo.latent_dim):
        cov = K + np.diag(pseudo.noise_diagonal(d))
        total += multivariate_normal.logpdf(pseudo.Z[:, d], mean=np.zeros(len(X)), cov=cov)
    return total


class TestPseudoObservations:
    def test_validation(self):
        with pytest.raises(ValueError):
            PseudoObservations(np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            PseudoObservations(np.zeros((2, 2)), np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            PseudoObservations(np.full((2, 2), np.nan), 0.1)
        with pytest.raises(ValueError):
            PseudoObservations(np.zeros((2, 2)), np.zeros((3, 2)) + 0.1)

    def test_noise_kinds(self):
        Z = np.zeros((3, 2))
        assert PseudoObservations(Z, 0.5).noise_kind == "scalar"
        assert PseudoObservations(Z, np.full(3, 0.5)).noise_kind == "per_point"
        assert PseudoObservations(Z, np.full((3, 2), 0.5)).noise_kind == "per_coordinate"

    def test_observation_variance(self):
        Z = np.zeros((3, 2))
        # scalar noise passes through exactly
        assert PseudoObservations(Z, 0.5).observation_variance() == 0.5
        # label-style two-level columns: envelope is the sum of the levels
        noise = np.array([[0.1, 2.0], [0.3, 2.0], [0.3, 1.5]])
        np.testing.assert_allclose(
            PseudoObservations(Z, noise).observation_variance(), [0.4, 3.5]
        )
        # a column with one distinct level collapses to that level
        flat = PseudoObservations(Z, np.full((3, 2), 0.7))
        np.testing.assert_allclose(flat.observation_variance(), [0.7, 0.7])


class TestMarginalLogLikelihood:
    def test_one_by_one_hand_value(self):
        pseudo = PseudoObservations(np.zeros((1, 1)), 1.0)
        kern = RbfKernel(0.0, 0.0, 1)
        expected = -0.5 * math.log(2.0) - 0.5 * math.log(2 * math.pi)
        assert marginal_log_likelihood(kern, np.zeros((1, 1)), pseudo) == pytest.approx(
            expected, abs=1e-12
        )

    def test_zero_targets_only_logdet(self):
        X, pseudo, kern = random_problem(0, d=3)
        zero = PseudoObservations(np.zeros_like(pseudo.Z), pseudo.noise)
        K = gram(kern, X)
        cov = K + pseudo.noise * np.eye(len(X))
        expected = -0.5 * 3 * np.linalg.slogdet(cov)[1] - 0.5 * len(X) * 3 * math.log(2 * math.pi)
        assert marginal_log_likelihood(kern, X, zero) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    def test_against_dense_oracle(self, noise):
        for seed in range(10):
            X, pseudo, kern = random_problem(seed, noise=noise)
            ours = marginal_log_likelihood(kern, X, pseudo)
            assert ours == pytest.approx(dense_mll_oracle(kern, X, pseudo), abs=1e-8)

    def test_shape_mismatch(self):
        X, pseudo, kern = random_problem(1)
        with pytest.raises(ValueError):
            marginal_log_likelihood(kern, X[:-1], pseudo)


class TestGradient:
    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    def test_finite_differences(self, noise):
        h = 1e-5
        for seed in range(5):
            X, pseudo, kern = random_problem(seed, n=7, noise=noise)
            g = mll_gradient(kern, X, pseudo)
            p0 = np.array([kern.log_signal_variance, kern.log_lengthscale])
            for i in range(2):
                hi, lo = p0.copy(), p0.copy()
                hi[i] += h
                lo[i] -= h
                fd = (
                    marginal_log_likelihood(kern.with_params(*hi), X, pseudo)
                    - marginal_log_likelihood(kern.with_params(*lo), X, pseudo)
                ) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_duplicated_coordinates_double_gradient(self):
        X, pseudo, kern = random_problem(3, d=1)
        doubled = PseudoObservations(np.hstack([pseudo.Z, pseudo.Z]), pseudo.noise)
        np.testing.assert_allclose(
            mll_gradient(kern, X, doubled), 2.0 * mll_gradient(kern, X, pseudo), rtol=1e-12
        )


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestStreamedMedian:
    """``_median_pairwise_distance`` returns the bits of ``np.median(pdist(X))``."""

    @settings(max_examples=300, deadline=None)
    @given(
        X=st.integers(2, 30).flatmap(lambda n: st.integers(1, 3).flatmap(lambda p: arrays(
            np.float64, (n, p),
            # a small pool makes duplicate rows and tied distances common
            elements=st.one_of(st.sampled_from([0.0, 1.0, -2.5]),
                               st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)),
        ))),
        sample_size=st.sampled_from([1, 2, 5, 1 << 18]),
    )
    # one and three pairs (odd), six and ten (even), duplicate and all-equal rows
    @example(X=np.array([[0.0, 1.0], [2.0, -1.0]]), sample_size=1)
    @example(X=np.array([[0.0], [1.0], [3.0]]), sample_size=1)
    @example(X=np.array([[0.0], [1.0], [3.0], [7.0]]), sample_size=2)
    @example(X=np.array([[0.0], [1.0], [3.0], [7.0], [15.0]]), sample_size=1 << 18)
    @example(X=np.repeat(np.array([[0.5, 1.0], [2.0, 0.0], [1.0, 1.0]]), 9, axis=0), sample_size=5)
    @example(X=np.full((30, 3), 0.7), sample_size=5)
    def test_property_bit_identical(self, X, sample_size):
        assert _same_float(gp._median_pairwise_distance(X, sample_size), np.median(pdist(X)))

    def test_forced_bracket_miss_takes_a_second_pass(self):
        # distinct distances and a one-pair sample: the bracket is a single
        # distance that is not the median
        X = (2.0 ** np.arange(8))[:, None]
        with mock.patch.object(gp, "_count_and_collect", wraps=gp._count_and_collect) as spy:
            got = gp._median_pairwise_distance(X, sample_size=1)
        assert spy.call_count == 2
        assert _same_float(got, np.median(pdist(X)))

    def test_large_input_sampled_bracket(self):
        X = np.random.default_rng(1).standard_normal((1500, 2))
        with mock.patch.object(gp, "_count_and_collect", wraps=gp._count_and_collect) as spy:
            got = gp._median_pairwise_distance(X, sample_size=4096)
        assert spy.call_count == 1
        assert _same_float(got, np.median(pdist(X)))

    def test_initial_kernel_memory_is_linear_in_rows(self):
        # np.median(pdist(X)) on 20k rows holds two arrays of 2e8 float64
        # (about 3.2 GB); the streamed median works in row blocks.
        n = 20000
        X = np.random.default_rng(0).standard_normal((n, 2))
        pseudo = PseudoObservations(np.ones((n, 2)), 0.1)
        tracemalloc.start()
        try:
            kern = initial_kernel(X, pseudo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert kern.lengthscale > 0


class TestFitExact:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_exact(np.zeros((1, 2)), PseudoObservations(np.zeros((1, 1)), 0.1))

    def test_deterministic_refit(self):
        X, pseudo, _ = random_problem(4, n=20)
        cfg = OptConfig(max_iters=40)
        m1 = fit_exact(X, pseudo, cfg)
        m2 = fit_exact(X, pseudo, cfg)
        assert m1.kernel == m2.kernel
        np.testing.assert_array_equal(m1.solves, m2.solves)

    def test_objective_nondecreasing(self):
        X, pseudo, _ = random_problem(5, n=15)
        k0 = initial_kernel(X, pseudo)
        values = []

        def value_and_grad(params):
            kern = k0.with_params(params[0], params[1])
            return marginal_log_likelihood(kern, X, pseudo), mll_gradient(kern, X, pseudo)

        def recording_value(params):
            kern = k0.with_params(params[0], params[1])
            return marginal_log_likelihood(kern, X, pseudo)

        x0 = np.array([k0.log_signal_variance, k0.log_lengthscale])
        res = adam_maximize(value_and_grad, x0, OptConfig(max_iters=40), value_only=recording_value)
        # replay: the final objective dominates the initial one and every
        # intermediate accepted value reported by a fresh ascent
        assert res.value >= recording_value(x0) - 1e-12

    def test_hyperparameter_recovery(self):
        # draw targets from the prior at known hyperparameters
        rng = np.random.default_rng(11)
        n, true_ls, true_sf2, noise = 200, 0.8, 2.0, 0.05
        X = rng.uniform(-2, 2, size=(n, 2))
        kern = RbfKernel(math.log(true_sf2), math.log(true_ls), 2)
        K = gram(kern, X) + 1e-10 * np.eye(n)
        L = np.linalg.cholesky(K)
        Z = L @ rng.standard_normal((n, 2)) + math.sqrt(noise) * rng.standard_normal((n, 2))
        model = fit_exact(X, PseudoObservations(Z, noise), OptConfig(max_iters=300))
        ratio = model.kernel.lengthscale / true_ls
        assert 1 / 1.5 <= ratio <= 1.5

    def test_halving_exit_is_not_convergence(self):
        # the supplied gradient points downhill, so no halved step improves
        res = adam_maximize(lambda x: (-float(x @ x), 2.0 * x), np.array([1.0, -1.0]),
                            OptConfig(max_iters=50))
        assert res.iterations == 0
        assert not res.converged
        assert res.grad_max == 2.0

    def test_fit_stopping_on_halving_reports_not_converged(self):
        from ilrgp.classifiers import GpdClassifierConfig, fit_classifier
        from ilrgp.data import gen_circle_mixture

        ds = gen_circle_mixture(3, 120, 0.5, seed=0)
        cfg = OptConfig(max_iters=500)
        info = fit_classifier(ds.X, ds.labels, GpdClassifierConfig(0.01, 3), cfg).fit_info
        assert info["iterations"] < cfg.max_iters
        assert info["final_grad_max"] >= cfg.grad_tol
        assert info["converged"] is False

    def test_fit_info_reports_final_gradient(self):
        X, pseudo, _ = random_problem(4, n=20)
        cfg = OptConfig(max_iters=40)
        model = fit_exact(X, pseudo, cfg)
        info = model.fit_info
        grad = mll_gradient(model.kernel, X, pseudo)
        assert info["final_grad_max"] == pytest.approx(np.max(np.abs(grad)), rel=1e-9)
        assert info["converged"] == (info["final_grad_max"] < cfg.grad_tol)

    def test_fit_error_carries_last_params(self):
        calls = {"n": 0}

        def value_and_grad(params):
            calls["n"] += 1
            if calls["n"] > 3:
                return np.nan, np.zeros(2)
            return -float((params**2).sum()), -2 * params

        with pytest.raises(FitError) as exc:
            adam_maximize(value_and_grad, np.array([5.0, 5.0]), OptConfig(max_iters=50))
        assert exc.value.last_params is not None


class TestPrediction:
    def test_interpolation_limit(self):
        X, pseudo, kern = random_problem(6, n=5)
        tiny = PseudoObservations(pseudo.Z, 1e-12)
        model = finalize_exact(X, tiny, kern)
        means, var = model.predictive(X[2])
        np.testing.assert_allclose(means[0], pseudo.Z[2], atol=1e-5)
        assert var[0] <= 1e-5

    def test_prior_reversion_far_away(self):
        X, pseudo, kern = random_problem(7)
        model = finalize_exact(X, pseudo, kern)
        means, var = model.predictive(np.full(2, 1e3))
        np.testing.assert_allclose(means[0], np.zeros(2), atol=1e-12)
        assert var[0] == pytest.approx(kern.signal_variance, rel=1e-12)

    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    def test_against_conditional_oracle(self, noise):
        for seed in range(10):
            X, pseudo, kern = random_problem(seed, noise=noise)
            model = finalize_exact(X, pseudo, kern)
            rng = np.random.default_rng(1000 + seed)
            xs = rng.standard_normal(2)
            ks = cross_gram(kern, X, xs[None, :])[:, 0]
            K = gram(kern, X)
            means, var = model.predictive(xs)
            assert var.shape == ((1, 2) if noise == "per_coordinate" else (1,))
            for d in range(pseudo.latent_dim):
                A_inv = np.linalg.inv(K + np.diag(pseudo.noise_diagonal(d)))
                mean_o = ks @ A_inv @ pseudo.Z[:, d]
                var_o = kern.signal_variance - ks @ A_inv @ ks
                assert means[0, d] == pytest.approx(mean_o, abs=1e-8)
                v = var[0] if var.ndim == 1 else var[0, d]
                assert v == pytest.approx(var_o, abs=1e-8)

    def test_variance_bounds(self):
        X, pseudo, kern = random_problem(8, n=12)
        model = finalize_exact(X, pseudo, kern)
        Xs = np.random.default_rng(0).standard_normal((30, 2))
        _, var = model.predictive(Xs)
        assert np.all(var >= 0.0)
        assert np.all(var <= kern.signal_variance + 1e-12)

    def test_observation_adds_noise_exactly(self):
        X, pseudo, kern = random_problem(9)
        model = finalize_exact(X, pseudo, kern)
        xs = np.zeros(2)
        _, var = model.predictive(xs)
        assert np.array_equal(var + pseudo.observation_variance(), var + pseudo.noise)

    def test_observation_batch_per_coordinate(self):
        X, pseudo, kern = random_problem(10, noise="per_coordinate")
        model = finalize_exact(X, pseudo, kern)
        Xs = np.zeros((2, 2))
        _, var_l = model.predictive(Xs)
        var_o = var_l + pseudo.observation_variance()
        assert var_o.shape == var_l.shape == (2, 2)
        np.testing.assert_allclose(
            var_o - var_l, np.tile(pseudo.observation_variance(), (2, 1))
        )


class TestHeteroscedasticEqualsScalar:
    def test_bitwise_identical(self):
        X, pseudo, kern = random_problem(12, n=10, d=3)
        sigma2 = 0.37
        shared = PseudoObservations(pseudo.Z, sigma2)
        table = PseudoObservations(pseudo.Z, np.full((10, 3), sigma2))
        assert marginal_log_likelihood(kern, X, shared) == marginal_log_likelihood(kern, X, table)
        np.testing.assert_array_equal(
            mll_gradient(kern, X, shared), mll_gradient(kern, X, table)
        )
        m_s = finalize_exact(X, shared, kern)
        m_t = finalize_exact(X, table, kern)
        np.testing.assert_array_equal(m_s.solves, m_t.solves)
        Xs = np.random.default_rng(3).standard_normal((4, 2))
        mean_s, var_s = m_s.predictive(Xs)
        mean_t, var_t = m_t.predictive(Xs)
        np.testing.assert_array_equal(mean_s, mean_t)
        assert np.all(var_t == var_s[:, None])
