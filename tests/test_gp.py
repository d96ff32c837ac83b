import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import pdist
from scipy.stats import multivariate_normal

from ilrgp import gp
from ilrgp.gp import (
    ExactGpModel,
    PseudoObservations,
    _ExactObjective,
    finalize_exact,
    fit_exact,
    initial_kernel,
    initial_log_noise_scale,
    marginal_log_likelihood,
    mll_gradient,
)
from ilrgp.kernel import RbfKernel, cholesky_with_jitter, cross_gram, gram
from ilrgp.optimize import FitError, OptConfig, bfgs_maximize


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


    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_noise_groups_cover_each_column_once_in_order(self, noise, d):
        _, pseudo, _ = random_problem(0, d=d, noise=noise)
        groups = pseudo.noise_groups()
        assert len(groups) == (d if noise == "per_coordinate" else 1)
        columns = [c for _, cols in groups for c in range(d)[cols]]
        assert columns == list(range(d))
        for s2, cols in groups:
            for c in range(d)[cols]:
                np.testing.assert_array_equal(s2, pseudo.noise_diagonal(c))


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

    @pytest.mark.parametrize("fn", [marginal_log_likelihood, mll_gradient])
    def test_nonfinite_inputs_rejected(self, fn):
        X, pseudo, kern = random_problem(1)
        X[2, 1] = np.nan
        with pytest.raises(ValueError):
            fn(kern, X, pseudo)

    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    def test_value_without_the_gradient_is_the_value(self, noise):
        X, pseudo, kern = random_problem(2, d=3, noise=noise)
        objective = _ExactObjective(X, pseudo, kern)
        value = objective.evaluate(kern.log_params).value
        assert _same_float(value, objective.evaluate(kern.log_params, grad=False).value)
        assert _same_float(value, marginal_log_likelihood(kern, X, pseudo))


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

    @pytest.mark.parametrize("noise", ["scalar", "per_point", "per_coordinate"])
    def test_noise_scale_finite_differences(self, noise):
        h = 1e-5
        for seed in range(5):
            X, pseudo, kern = random_problem(seed, n=7, noise=noise)
            objective = _ExactObjective(X, pseudo, kern)
            p0 = np.array(kern.log_params + (0.4,))
            g = objective.evaluate(p0).grad
            assert g.shape == (3,)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (_value(objective, p0 + e) - _value(objective, p0 - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_noise_scale_is_a_noise_multiplier(self):
        X, pseudo, kern = random_problem(4, noise="per_coordinate")
        p = kern.log_params + (0.7,)
        scaled = pseudo.scale_noise(0.7)
        np.testing.assert_array_equal(scaled.noise, float(np.exp(0.7)) * pseudo.noise)
        assert _same_float(_value(_ExactObjective(X, pseudo, kern), p),
                           marginal_log_likelihood(kern, X, scaled))
        np.testing.assert_array_equal(_ExactObjective(X, pseudo, kern).evaluate(p).grad[:2],
                                      mll_gradient(kern, X, scaled))

    def test_duplicated_coordinates_double_gradient(self):
        X, pseudo, kern = random_problem(3, d=1)
        doubled = PseudoObservations(np.hstack([pseudo.Z, pseudo.Z]), pseudo.noise)
        np.testing.assert_allclose(
            mll_gradient(kern, X, doubled), 2.0 * mll_gradient(kern, X, pseudo), rtol=1e-12
        )


def _value(objective, params):
    return objective.evaluate(params, grad=False).value


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _seeded_rows(n, p, seed, coarse):
    X = 1e3 * np.random.default_rng(seed).standard_normal((n, p))
    return np.round(X / 500.0) if coarse else X  # coarse rows tie and repeat often


class TestMedianPairwiseDistance:
    """All pairs up to N = 724 (bits of ``np.median(pdist(X))``), fixed-seed pairs beyond."""

    @settings(max_examples=300, deadline=None)
    @given(X=st.one_of(
        st.integers(2, 30).flatmap(lambda n: st.integers(1, 12).flatmap(lambda p: arrays(
            np.float64, (n, p),
            # a small pool makes duplicate rows and tied distances common
            elements=st.one_of(st.sampled_from([0.0, 1.0, -2.5]),
                               st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)),
        ))),
        st.builds(_seeded_rows, st.integers(2, 724), st.integers(1, 12), st.integers(0, 2**32 - 1),
                  st.booleans()),
    ))
    # one and three pairs (odd), six and ten (even), duplicate and all-equal
    # rows, and the largest N that takes all pairs
    @example(X=np.array([[0.0, 1.0], [2.0, -1.0]]))
    @example(X=np.array([[0.0], [1.0], [3.0]]))
    @example(X=np.array([[0.0], [1.0], [3.0], [7.0]]))
    @example(X=np.array([[0.0], [1.0], [3.0], [7.0], [15.0]]))
    @example(X=np.repeat(np.array([[0.5, 1.0], [2.0, 0.0], [1.0, 1.0]]), 9, axis=0))
    @example(X=np.full((30, 3), 0.7))
    @example(X=_seeded_rows(724, 12, 0, False))
    @example(X=_seeded_rows(724, 3, 1, True))
    def test_property_bit_identical_up_to_724_rows(self, X):
        assert X.shape[0] * (X.shape[0] - 1) // 2 <= gp._MEDIAN_SAMPLE
        assert _same_float(gp._median_pairwise_distance(X), np.median(pdist(X)))

    @pytest.mark.parametrize("n", [725, 2000])
    def test_sampled_pairs_are_deterministic_and_close(self, n):
        assert n * (n - 1) // 2 > gp._MEDIAN_SAMPLE
        X = np.random.default_rng(n).standard_normal((n, 3))
        got = gp._median_pairwise_distance(X)
        assert _same_float(got, gp._median_pairwise_distance(X.copy()))
        assert abs(got / np.median(pdist(X)) - 1.0) < 0.02

    @pytest.mark.parametrize("n", [725, 2000, 20000])
    def test_sampled_pairs_keep_the_whole_array_values(self, n):
        # The whole-array form the sliced loop replaced, kept as the reference.
        X = np.random.default_rng([n, 1]).standard_normal((n, 3))
        rng = np.random.default_rng(0)
        i = rng.integers(n, size=gp._MEDIAN_SAMPLE)
        j = (i + rng.integers(1, n, size=gp._MEDIAN_SAMPLE)) % n
        d2 = np.zeros(i.size)
        for col in X.T:
            d2 += (col[i] - col[j]) ** 2
        assert _same_float(gp._median_pairwise_distance(X), np.median(np.sqrt(d2)))

    @pytest.mark.parametrize("X", [
        np.full((30, 2), 0.7),  # median 0, all pairs
        np.full((800, 2), 0.7),  # median 0, sampled pairs
        np.array([[-1e300, 0.0], [1e300, 0.0], [0.0, 1e300]]),  # every distance overflows
        1e300 * np.random.default_rng(0).standard_normal((800, 2)),
    ])
    def test_initial_kernel_falls_back_to_unit_lengthscale(self, X):
        pseudo = PseudoObservations(np.random.default_rng(1).standard_normal((X.shape[0], 2)), 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kern = initial_kernel(X, pseudo)
        assert kern.lengthscale == 1.0

    @pytest.mark.parametrize("n", [20000, 100000])
    def test_initial_kernel_memory_is_linear_in_rows(self, n):
        # np.median(pdist(X)) on 20k rows holds two arrays of 2e8 float64
        # (about 3.2 GB). The sampled median holds the 2^18 pair indices and
        # distances (6.3 MB) and only slices of 2^14 pairs besides.
        X = np.random.default_rng(0).standard_normal((n, 2))
        pseudo = PseudoObservations(np.ones((n, 2)), 0.1)
        tracemalloc.start()
        try:
            kern = initial_kernel(X, pseudo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
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
        objective = _ExactObjective(X, pseudo, k0)
        x0 = np.array(k0.log_params + (initial_log_noise_scale(pseudo),))
        res = bfgs_maximize(objective.evaluate, x0, [-np.inf, -np.inf, 0.0], OptConfig(max_iters=40))
        assert res.value >= _value(objective, x0)

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
        res = bfgs_maximize(lambda x: (-float(x @ x), 2.0 * x), np.array([1.0, -1.0]),
                            [-np.inf, -np.inf], OptConfig(max_iters=50))
        assert res.stop == "line_search"
        assert res.iterations == 0
        assert res.evaluations == 10  # the start and nine trials: one step, eight halvings
        assert not res.converged
        assert res.grad_max == 2.0

    def test_fit_stopping_at_round_off_reports_converged(self):
        from ilrgp.classifiers import GpdClassifierConfig, fit_classifier
        from ilrgp.data import gen_circle_mixture

        # BFGS reaches round-off on this fit, so with no gradient small enough
        # to pass the tolerance it ends once halving leaves a step whose
        # predicted gain is below the objective's round-off.
        ds = gen_circle_mixture(3, 120, 0.5, seed=0)
        cfg = OptConfig(max_iters=500, grad_tol=0.0)
        info = fit_classifier(ds.X, ds.labels, GpdClassifierConfig(0.01, 3), cfg).fit_info
        assert info["stop"] == "round_off"
        assert info["iterations"] < cfg.max_iters
        assert info["final_grad_max"] >= cfg.grad_tol
        assert info["converged"] is True

    @pytest.mark.parametrize("model", ["ilr", "gpd"])
    def test_converged_survives_one_ulp_moves_of_the_objective(self, model):
        # Each evaluation's value moves by one ulp up or down, in a seeded
        # order. On these fits a stop rule that asks every line search to
        # find a gain (converged only on grad_tol) flips converged.
        from ilrgp.classifiers import GpdClassifierConfig, IlrClassifierConfig
        from ilrgp.data import gen_circle_mixture
        from ilrgp.simplex import SmoothingConfig

        seed, cfg = {"ilr": (1, IlrClassifierConfig(SmoothingConfig(0.99, 3))),
                     "gpd": (0, GpdClassifierConfig(0.01, 3))}[model]
        ds = gen_circle_mixture(3, 60, 0.5, seed=seed)
        pseudo = cfg.pseudo(ds.labels)
        k0 = initial_kernel(ds.X, pseudo)
        objective = _ExactObjective(ds.X, pseudo, k0)
        x0 = np.array(k0.log_params + (initial_log_noise_scale(pseudo),))

        def fit(move_seed):
            signs = None if move_seed is None else np.random.default_rng(move_seed)

            def move(f):
                return f if signs is None else float(np.nextafter(f, signs.choice([-1.0, 1.0]) * np.inf))

            def evaluate(x):
                ev = objective.evaluate(x)
                return move(ev.value), ev.grad

            return bfgs_maximize(evaluate, x0, [-np.inf, -np.inf, 0.0], OptConfig(grad_tol=1e-6))

        assert all(fit(s).converged for s in (None, 0, 1, 2, 3))

    def test_fit_info_reports_final_gradient(self):
        X, pseudo, _ = random_problem(4, n=20)
        cfg = OptConfig(max_iters=40)
        model = fit_exact(X, pseudo, cfg)
        info = model.fit_info
        # The model carries the noise scaled by c, so log c = 0 on it is the fitted point.
        grad = _ExactObjective(X, model.pseudo, model.kernel).evaluate(model.kernel.log_params + (0.0,)).grad
        if info["noise_scale"] == 1.0 and grad[2] < 0:
            grad[2] = 0.0  # held at the bound c >= 1
        assert info["final_grad_max"] == np.max(np.abs(grad))
        assert (info["final_grad_max"] < cfg.grad_tol) == (info["stop"] == "grad_tol")
        assert info["converged"] == (info["stop"] in ("grad_tol", "round_off"))
        assert info["evaluations"] > info["iterations"]

    def test_fit_error_carries_last_params(self):
        calls = {"n": 0}

        def evaluate(params):
            calls["n"] += 1
            if calls["n"] > 3:
                return np.nan, np.zeros(2)
            return -float((params**2).sum()), -2 * params

        with pytest.raises(FitError) as exc:
            bfgs_maximize(evaluate, np.array([5.0, 5.0]), [-np.inf, -np.inf],
                          OptConfig(max_iters=50))
        assert exc.value.last_params is not None

    def test_nonfinite_start_raises(self):
        with pytest.raises(FitError):
            bfgs_maximize(lambda x: (np.nan, np.zeros(2)), np.zeros(2), [-np.inf, -np.inf])

    def test_lower_bound_is_never_crossed(self):
        # the unconstrained maximum (-3, 2) lies below the bound on the first coordinate
        seen = []

        def evaluate(x):
            seen.append(x.copy())
            return -float((x[0] + 3.0) ** 2 + (x[1] - 2.0) ** 2), np.array([-2.0 * (x[0] + 3.0),
                                                                           -2.0 * (x[1] - 2.0)])

        res = bfgs_maximize(evaluate, np.array([1.5, 0.0]), [0.0, -np.inf])
        assert all(x[0] >= 0.0 for x in seen)
        assert res.stop == "grad_tol" and res.converged
        assert res.params[0] == 0.0
        assert res.params[1] == pytest.approx(2.0, abs=1e-5)

    def test_start_below_the_bound_is_projected(self):
        res = bfgs_maximize(lambda x: (-float(x @ x), -2.0 * x), np.array([-1.0]), [0.5])
        np.testing.assert_array_equal(res.params, [0.5])
        assert res.converged and res.iterations == 0 and res.evaluations == 1

    def test_explicit_noise_pins_the_noise_scale(self):
        from ilrgp.classifiers import IlrClassifierConfig, fit_classifier
        from ilrgp.data import gen_circle_mixture
        from ilrgp.simplex import SmoothingConfig

        ds = gen_circle_mixture(3, 90, 0.5, seed=3)
        sigma = 0.5
        for backend in ("exact", "collapsed"):
            cfg = IlrClassifierConfig(SmoothingConfig(0.99, 3), sigma, backend=backend, num_inducing=16)
            model = fit_classifier(ds.X, ds.labels, cfg, OptConfig(max_iters=30))
            assert model.fit_info["noise_scale"] == 1.0
            assert np.float64(model.pseudo.noise).tobytes() == np.float64(sigma**2).tobytes()
            free = fit_classifier(ds.X, ds.labels, IlrClassifierConfig(SmoothingConfig(0.99, 3), backend=backend,
                                                                       num_inducing=16), OptConfig(max_iters=30))
            assert free.fit_info["noise_scale"] > 1.0


class TestPrediction:
    def test_interpolation_limit(self):
        X, pseudo, kern = random_problem(6, n=5)
        tiny = PseudoObservations(pseudo.Z, 1e-12)
        model = finalize_exact(X, tiny, kern)
        means, var = model.predictive(X[2])
        np.testing.assert_allclose(means[0], pseudo.Z[2], atol=1e-5)
        assert np.all(var[0] <= 1e-5)

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
            assert var.shape == (1, 2)
            for d in range(pseudo.latent_dim):
                A_inv = np.linalg.inv(K + np.diag(pseudo.noise_diagonal(d)))
                mean_o = ks @ A_inv @ pseudo.Z[:, d]
                var_o = kern.signal_variance - ks @ A_inv @ ks
                assert means[0, d] == pytest.approx(mean_o, abs=1e-8)
                assert var[0, d] == pytest.approx(var_o, abs=1e-8)

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


def duplicated_rows_problem(kind):
    """75 rows, 25 of them repeated, so K is exactly singular.

    ``"jitter"``: per-point noise with the first two (identical) rows at
    1e-300, so ``K + S`` fails its bare Cholesky and takes 1e-8 jitter.
    ``"scalar"``: a shared noise of 0.02, no jitter.
    """
    rng = np.random.default_rng(5)
    X0, Z0 = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
    X = np.vstack([X0[:1], X0, X0[10:34]])
    Z = np.vstack([Z0[:1], Z0, Z0[10:34]])
    if kind == "jitter":
        noise = 0.05 + 0.1 * rng.random(75)
        noise[:2] = 1e-300
    else:
        noise = 0.02
    return X, PseudoObservations(Z, noise), RbfKernel(0.3, math.log(0.8), 2)


class TestInverseFactorNumerics:
    """Products with ``L^-1`` against triangular solves on hard inputs.

    Both problems have more rows than the inverse's recursion base.
    """

    @pytest.mark.parametrize("kind", ["jitter", "scalar"])
    def test_predictive_matches_triangular_solves(self, kind):
        X, pseudo, kern = duplicated_rows_problem(kind)
        A = gram(kern, X)
        A[np.diag_indices_from(A)] += pseudo.noise_diagonal(0)
        L = cholesky_with_jitter(A, kern.signal_variance)  # cond(L) 5e4 with jitter
        Xs = np.random.default_rng(1).standard_normal((9, 2))
        Ks = cross_gram(kern, X, Xs)
        V = solve_triangular(L, Ks, lower=True)
        means, var = finalize_exact(X, pseudo, kern).predictive(Xs)
        # measured: 6e-14 and 1.3e-15 at most
        np.testing.assert_allclose(means, Ks.T @ cho_solve((L, True), pseudo.Z), rtol=0, atol=1e-12)
        ref_var = np.broadcast_to((kern.signal_variance - (V * V).sum(axis=0))[:, None], (9, 2))
        np.testing.assert_allclose(var, ref_var, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("log_c", [0.0, 0.7])
    def test_gradient_matches_differences_at_a_jittered_point(self, log_c, caplog):
        # The jitter is constant in log l and log c, so those components stay
        # exact; it scales with the signal variance, whose component is off
        # by the jitter's share and is not checked.
        X, pseudo, kern = duplicated_rows_problem("jitter")
        objective = _ExactObjective(X, pseudo, kern)
        x = np.array(kern.log_params + (log_c,))
        with caplog.at_level("WARNING", logger="ilrgp.kernel"):
            g = objective.evaluate(x).grad
        assert "adding diagonal jitter" in caplog.text
        h = 1e-5
        for i in (1, 2):
            e = np.zeros(3)
            e[i] = h
            fd = (_value(objective, x + e) - _value(objective, x - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-8)  # measured: 7e-11 at most


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
        np.testing.assert_array_equal(var_s, var_t, strict=True)
