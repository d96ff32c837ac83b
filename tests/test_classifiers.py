import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ilrgp import classifiers
from ilrgp.classifiers import (
    BACKENDS,
    PREDICTION_MODES,
    GpdClassifierConfig,
    IlrClassifierConfig,
    PredictionSet,
    classifier_config,
    derive_seed,
    fit_classifier,
    gpd_label_recovery_error,
    gpd_target_rows,
    predict_proba,
)
from ilrgp.data import gen_circle_mixture
from ilrgp.experiments import run_breakdown
from ilrgp.optimize import OptConfig
from ilrgp.simplex import (
    SmoothingConfig,
    class_target_matrix,
    helmert_basis,
    ilr_inverse,
    separation_delta,
    sigma_bound,
    softmax_rows,
)
from ilrgp.sparse import CollapsedGpModel


def ilr_cfg(lam=0.9, K=3, **kw):
    return IlrClassifierConfig(SmoothingConfig(lam, K), **kw)


class TestConfigs:
    def test_sigma_defaults_to_bound(self):
        cfg = ilr_cfg(0.9, 3)
        assert cfg.resolved_sigma() == sigma_bound(SmoothingConfig(0.9, 3))

    def test_sigma_above_bound_rejected(self):
        bound = sigma_bound(SmoothingConfig(0.9, 3))
        with pytest.raises(ValueError):
            ilr_cfg(0.9, 3, noise_sigma=bound * 1.01)
        ok = ilr_cfg(0.9, 3, noise_sigma=bound * 0.5)
        assert ok.resolved_sigma() == bound * 0.5

    def test_mode_and_backend_validation(self):
        with pytest.raises(ValueError):
            ilr_cfg(prediction_mode="mean")
        with pytest.raises(ValueError):
            ilr_cfg(backend="dense")
        with pytest.raises(ValueError):
            ilr_cfg(backend="collapsed")  # needs num_inducing
        with pytest.raises(ValueError):
            ilr_cfg(mc_samples=0)
        with pytest.raises(ValueError):
            GpdClassifierConfig(0.0, 3)


@st.composite
def common_settings(draw):
    backend = draw(st.sampled_from(BACKENDS))
    inducing = st.integers(1, 10**4)
    return {
        "mc_samples": draw(st.integers(1, 10**6)),
        "prediction_mode": draw(st.sampled_from(PREDICTION_MODES)),
        "backend": backend,
        "num_inducing": draw(inducing if backend == "collapsed" else inducing | st.none()),
        "backend_seed": draw(st.integers(0, 2**32 - 1)),
    }


@st.composite
def ilr_configs(draw):
    smoothing = SmoothingConfig(draw(st.floats(1e-6, 1 - 1e-9)), draw(st.integers(2, 20)),
                                draw(st.floats(1e-12, 0.4)))
    fraction = draw(st.none() | st.floats(1e-3, 1.0))
    noise = None if fraction is None else fraction * sigma_bound(smoothing)
    return IlrClassifierConfig(smoothing, noise, **draw(common_settings()))


gpd_configs = st.builds(
    lambda alpha_eps, K, common: GpdClassifierConfig(alpha_eps, K, **common),
    st.floats(1e-300, 1e300), st.integers(2, 50), common_settings(),
)


class TestClassifierConfigCodec:
    @settings(max_examples=200, deadline=None)
    @given(cfg=ilr_configs() | gpd_configs)
    def test_file_block_reads_back_as_the_config(self, cfg):
        block = json.loads(json.dumps(cfg.to_dict()))
        assert block["model"] == cfg.kind
        assert classifier_config(block, cfg.num_classes) == cfg

    def test_latent_dim_and_link(self):
        F = np.arange(6.0).reshape(3, 2)
        ilr = ilr_cfg(0.9, 3)
        assert (ilr.latent_dim, ilr.fit_noise) == (2, True)
        assert not ilr_cfg(0.9, 3, noise_sigma=0.1).fit_noise
        np.testing.assert_array_equal(ilr.logits(F), F @ helmert_basis(3))
        gpd = GpdClassifierConfig(0.01, 2)
        assert (gpd.latent_dim, gpd.fit_noise) == (2, True)
        assert gpd.logits(F) is F


class TestIlrPseudo:
    def test_two_class_targets_symmetric(self):
        pseudo = ilr_cfg(0.9, 2).pseudo([1, 2])
        np.testing.assert_allclose(pseudo.Z[0], -pseudo.Z[1], atol=1e-12)

    def test_identical_labels_identical_rows(self):
        pseudo = ilr_cfg(0.8, 4).pseudo([2, 2, 2])
        assert np.all(pseudo.Z == pseudo.Z[0])

    def test_row_separation_is_delta(self):
        cfg = ilr_cfg(0.95, 5)
        pseudo = cfg.pseudo([1, 3])
        dist = np.linalg.norm(pseudo.Z[0] - pseudo.Z[1])
        assert dist == pytest.approx(separation_delta(cfg.smoothing), abs=1e-10)

    def test_noise_is_squared_sigma(self):
        cfg = ilr_cfg(0.9, 3, noise_sigma=0.25)
        pseudo = cfg.pseudo([1, 2, 3])
        assert pseudo.noise == 0.0625
        assert pseudo.latent_dim == 2  # K - 1 coordinates

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ilr_cfg(0.9, 3).pseudo([1, 4])
        with pytest.raises(ValueError):
            ilr_cfg(0.9, 3).pseudo([0, 1])


class TestGpdPseudo:
    def test_unit_concentration_values(self):
        # with alpha_eps = 1 the off-class concentration is exactly 1
        Y, S2 = gpd_target_rows(3, 1.0)
        assert S2[0, 1] == pytest.approx(math.log(2), abs=1e-12)
        assert Y[0, 1] == pytest.approx(-0.5 * math.log(2), abs=1e-12)
        assert Y[0, 1] == pytest.approx(-0.34657, abs=1e-5)

    def test_lognormal_moment_match(self):
        # the matched log-normal reproduces Gamma(alpha, 1) mean and variance
        for alpha_eps in (0.1, 0.01, 1.0, 7.3):
            Y, S2 = gpd_target_rows(4, alpha_eps)
            for alpha, y, s2 in ((1 + alpha_eps, Y[0, 0], S2[0, 0]), (alpha_eps, Y[0, 1], S2[0, 1])):
                mean = math.exp(y + s2 / 2)
                var = (math.exp(s2) - 1) * math.exp(2 * y + s2)
                assert mean == pytest.approx(alpha, rel=1e-10)
                assert var == pytest.approx(alpha, rel=1e-10)

    def test_large_concentration_shrinks_noise(self):
        _, S2_big = gpd_target_rows(3, 1e4)
        assert S2_big.max() <= 1e-3

    def test_table_shapes_and_noise(self):
        cfg = GpdClassifierConfig(0.01, 3)
        pseudo = cfg.pseudo([1, 2, 3, 1])
        assert pseudo.Z.shape == (4, 3)  # K coordinates, not K - 1
        assert pseudo.noise.shape == (4, 3)
        assert pseudo.noise_kind == "per_coordinate"
        # hot coordinate carries the small variance
        assert pseudo.noise[0, 0] < pseudo.noise[0, 1]


@pytest.fixture(scope="module")
def toy():
    train = gen_circle_mixture(3, 90, 0.1, seed=0)
    test = gen_circle_mixture(3, 30, 0.1, seed=1)
    return train, test


class TestPredictProba:

    def test_rows_are_distributions(self, toy):
        train, test = toy
        cfg = ilr_cfg(0.9, 3, mc_samples=50)
        model = fit_classifier(train.X, train.labels, cfg, OptConfig(max_iters=30))
        pred = predict_proba(model, test.X, cfg, seed=0)
        assert np.all(pred.probs > 0)
        assert np.abs(pred.probs.sum(axis=1) - 1).max() <= 1e-9
        np.testing.assert_array_equal(pred.labels_hat, pred.probs.argmax(axis=1) + 1)

    def test_deterministic_given_seed(self, toy):
        train, test = toy
        cfg = ilr_cfg(0.9, 3, mc_samples=20)
        model = fit_classifier(train.X, train.labels, cfg, OptConfig(max_iters=20))
        p1 = predict_proba(model, test.X, cfg, seed=5)
        p2 = predict_proba(model, test.X, cfg, seed=5)
        np.testing.assert_array_equal(p1.probs, p2.probs)
        p3 = predict_proba(model, test.X, cfg, seed=6)
        assert not np.array_equal(p1.probs, p3.probs)

    def test_order_independent_per_point_streams(self, toy):
        train, test = toy
        cfg = ilr_cfg(0.9, 3, mc_samples=20)
        model = fit_classifier(train.X, train.labels, cfg, OptConfig(max_iters=20))
        full = predict_proba(model, test.X, cfg, seed=3)
        head = predict_proba(model, test.X[:5], cfg, seed=3)
        np.testing.assert_array_equal(full.probs[:5], head.probs)

    def test_small_variance_concentrates_on_link_of_mean(self, toy):
        train, _ = toy
        cfg = ilr_cfg(0.9, 3, mc_samples=4000, noise_sigma=0.05)
        model = fit_classifier(train.X, train.labels, cfg, OptConfig(max_iters=40))
        x = np.array([[1.0, 0.0]])  # a cluster center
        means, _ = model.predictive(x)
        H = helmert_basis(3)
        direct = ilr_inverse(means[0], H)
        pred = predict_proba(model, x, cfg, seed=0)
        np.testing.assert_allclose(pred.probs[0], direct, atol=0.02)

    def test_argmax_matches_nearest_target(self, toy):
        train, test = toy
        cfg = ilr_cfg(0.9, 3, mc_samples=1)
        model = fit_classifier(train.X, train.labels, cfg, OptConfig(max_iters=40))
        means, var = model.predictive(test.X)
        targets = class_target_matrix(cfg.smoothing)
        d2 = ((means[:, None, :] - targets[None, :, :]) ** 2).sum(axis=2)
        nearest = d2.argmin(axis=1) + 1
        # with S -> infinity the argmax follows the nearest latent target;
        # check via a high-sample prediction
        big = predict_proba(model, test.X, replace(cfg, mc_samples=500), seed=2)
        np.testing.assert_array_equal(big.labels_hat, nearest)

    def test_noisy_mode_inflates_spread(self, toy):
        train, test = toy
        cfg = ilr_cfg(0.9, 3, mc_samples=400)
        model = fit_classifier(train.X, train.labels, cfg, OptConfig(max_iters=30))
        quiet = predict_proba(model, test.X, cfg, seed=1)
        noisy = predict_proba(model, test.X, replace(cfg, prediction_mode="noisy-z"), seed=1)
        assert noisy.probs.max(axis=1).mean() < quiet.probs.max(axis=1).mean()

    def test_gpd_uses_k_coordinates(self, toy):
        train, test = toy
        cfg = GpdClassifierConfig(0.01, 3, mc_samples=30)
        model = fit_classifier(train.X, train.labels, cfg, OptConfig(max_iters=20))
        assert model.pseudo.latent_dim == 3
        pred = predict_proba(model, test.X, cfg, seed=0)
        assert pred.probs.shape == (30, 3)

    def test_collapsed_backend(self, toy):
        train, test = toy
        cfg = ilr_cfg(0.9, 3, mc_samples=30, backend="collapsed", num_inducing=20, backend_seed=0)
        model = fit_classifier(train.X, train.labels, cfg, OptConfig(max_iters=20))
        assert isinstance(model, CollapsedGpModel)
        pred = predict_proba(model, test.X, cfg, seed=0)
        assert np.abs(pred.probs.sum(axis=1) - 1).max() <= 1e-9

    def test_dimension_mismatch_rejected(self, toy):
        train, test = toy
        cfg = ilr_cfg(0.9, 3, mc_samples=5)
        model = fit_classifier(train.X, train.labels, cfg, OptConfig(max_iters=5))
        with pytest.raises(ValueError):
            predict_proba(model, test.X, ilr_cfg(0.9, 4, mc_samples=5), seed=0)

    def test_prediction_set_validation(self):
        with pytest.raises(ValueError):
            PredictionSet(np.array([[0.5, 0.6]]), np.array([2]))
        with pytest.raises(ValueError):
            PredictionSet(np.array([[0.4, 0.6]]), np.array([1]))


def reference_predict_proba(model, X_star, cfg, seed):
    """The per-point Monte-Carlo loop that predict_proba batches, kept as its oracle."""

    def softmax(Z):
        Z = Z - Z.max(axis=1, keepdims=True)
        W = np.exp(Z)
        return W / W.sum(axis=1, keepdims=True)

    means, var = model.predictive(X_star)
    if cfg.prediction_mode == "noisy-z":
        var = var + model.pseudo.observation_variance()
    T, D = means.shape
    if isinstance(cfg, IlrClassifierConfig):
        H = helmert_basis(cfg.num_classes)
        link = lambda F: softmax(F @ H)
    else:
        link = softmax
    sd = np.sqrt(var)
    probs = np.empty((T, cfg.num_classes))
    for i in range(T):
        rng = np.random.default_rng([seed, i])
        draws = means[i] + sd[i] * rng.standard_normal((cfg.mc_samples, D))
        probs[i] = link(draws).mean(axis=0)
    return probs


ORACLE_MODELS = ["ilr", "gpd", "collapsed", "gpd-collapsed"]


@pytest.fixture(scope="module")
def models_by_k():
    """Exact and collapsed ILR (scalar variance) and GPD (per-coordinate variance) for K classes."""
    cache = {}

    def get(K):
        if K not in cache:
            train = gen_circle_mixture(K, 80, 0.3, seed=0)
            test = gen_circle_mixture(K, 41, 0.3, seed=1)
            cfgs = {
                "ilr": ilr_cfg(0.9, K),
                "gpd": GpdClassifierConfig(0.01, K),
                "collapsed": ilr_cfg(0.9, K, backend="collapsed", num_inducing=12),
                "gpd-collapsed": GpdClassifierConfig(0.01, K, backend="collapsed", num_inducing=12),
            }
            opt = OptConfig(max_iters=10)
            models = {name: (fit_classifier(train.X, train.labels, cfg, opt), cfg)
                      for name, cfg in cfgs.items()}
            cache[K] = models, test.X
        return cache[K]

    return get


@pytest.fixture(scope="module")
def oracle_models(models_by_k):
    return models_by_k(4)


class TestBlockedMonteCarlo:
    """predict_proba's blocks give exactly the per-point loop's probabilities."""

    @pytest.mark.parametrize("name", ["ilr", "gpd", "collapsed", "gpd-collapsed"])
    @pytest.mark.parametrize("mode", PREDICTION_MODES)
    @pytest.mark.parametrize("samples, block_draws", [
        (1, None),    # one block holds every point
        (7, 64),      # blocks of 9 points: 41 is not a multiple
        (300, None),  # blocks of 218 points
    ])
    def test_matches_per_point_loop(self, oracle_models, monkeypatch, name, mode, samples, block_draws):
        if block_draws is not None:
            monkeypatch.setattr(classifiers, "_MC_BLOCK_DRAWS", block_draws)
        models, X = oracle_models
        model, cfg = models[name]
        cfg = replace(cfg, mc_samples=samples, prediction_mode=mode)
        for xs in (X, X[:1]):
            got = predict_proba(model, xs, cfg, seed=4).probs
            assert np.array_equal(got, reference_predict_proba(model, xs, cfg, 4))

    def test_more_samples_than_a_block(self, oracle_models):
        models, X = oracle_models
        model, cfg = models["gpd"]
        cfg = replace(cfg, mc_samples=classifiers._MC_BLOCK_DRAWS + 3)
        got = predict_proba(model, X[:3], cfg, seed=9).probs
        assert np.array_equal(got, reference_predict_proba(model, X[:3], cfg, 9))

    def test_memory_bounded_by_one_block(self, oracle_models):
        # One T x S x K array of link outputs would take 3000 * 1000 * 4 * 8 B = 96 MB.
        models, _ = oracle_models
        model, cfg = models["ilr"]
        X = gen_circle_mixture(4, 3000, 0.3, seed=2).X
        tracemalloc.start()
        try:
            predict_proba(model, X, replace(cfg, mc_samples=1000), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("K", [2, 3])  # D = 1 for a two-class ILR model; 3 is the benchmark's K
    @pytest.mark.parametrize("name", ORACLE_MODELS)
    @pytest.mark.parametrize("mode", PREDICTION_MODES)
    @pytest.mark.parametrize("samples, block_draws", [(1, None), (7, 64), (300, None)])
    def test_few_classes_match_per_point_loop(self, models_by_k, monkeypatch, K, name, mode,
                                              samples, block_draws):
        if block_draws is not None:
            monkeypatch.setattr(classifiers, "_MC_BLOCK_DRAWS", block_draws)
        models, X = models_by_k(K)
        model, cfg = models[name]
        cfg = replace(cfg, mc_samples=samples, prediction_mode=mode)
        for xs in (X, X[:1], X[:2]):
            got = predict_proba(model, xs, cfg, seed=4).probs
            assert np.array_equal(got, reference_predict_proba(model, xs, cfg, 4))

    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("mode", PREDICTION_MODES)
    def test_one_point_blocks_match_default_blocking(self, models_by_k, monkeypatch, K, mode):
        # With one point per block the sum over samples runs over a (S, K)
        # slab; it must still add the samples in sequence, as larger blocks do.
        models, X = models_by_k(K)
        for name in ORACLE_MODELS:
            model, cfg = models[name]
            cfg = replace(cfg, mc_samples=300, prediction_mode=mode)
            default = predict_proba(model, X, cfg, seed=4).probs
            monkeypatch.setattr(classifiers, "_MC_BLOCK_DRAWS", cfg.mc_samples)
            one_point = predict_proba(model, X, cfg, seed=4).probs
            monkeypatch.undo()
            assert np.array_equal(one_point, default), name


class TestNoRows:
    @pytest.mark.parametrize("name", ORACLE_MODELS)
    @pytest.mark.parametrize("mode", PREDICTION_MODES)
    def test_zero_rows_give_zero_probability_rows(self, oracle_models, name, mode):
        model, cfg = oracle_models[0][name]
        pred = predict_proba(model, np.empty((0, 2)), replace(cfg, prediction_mode=mode), seed=0)
        assert pred.probs.shape == (0, 4) and pred.labels_hat.shape == (0,)


class _GivenPredictive:
    """A model whose latent predictive at the inputs ``[[t]]`` is row t of given means and variances."""

    def __init__(self, means, var, pseudo):
        self.means, self.var, self.pseudo = means, var, pseudo

    def predictive(self, X):
        rows = X[:, 0].astype(int)
        return self.means[rows], self.var[rows]


class TestPredictionSetProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        setup=st.tuples(st.sampled_from(["ilr", "gpd"]), st.integers(2, 6), st.integers(1, 8)),
        mode=st.sampled_from(PREDICTION_MODES),
        samples=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_predict_proba_outputs_a_valid_prediction_set(self, setup, mode, samples, seed, data):
        kind, K, T = setup
        cfg = ilr_cfg(0.9, K) if kind == "ilr" else GpdClassifierConfig(0.01, K)
        cfg = replace(cfg, mc_samples=samples, prediction_mode=mode)
        D = cfg.latent_dim
        # Means far enough out to saturate the softmax; variances from 0 up.
        means = data.draw(arrays(np.float64, (T, D), elements=st.floats(-800, 800)))
        var = data.draw(arrays(np.float64, (T, 1) if kind == "ilr" else (T, D),
                               elements=st.one_of(st.just(0.0), st.floats(0, 100))))
        var = np.broadcast_to(var, (T, D))  # shared noise: one column for every coordinate
        model = _GivenPredictive(means, var, cfg.pseudo(np.arange(1, K + 1)))
        X = np.arange(T, dtype=float)[:, None]

        pred = predict_proba(model, X, cfg, seed=seed)
        assert pred.probs.shape == (T, K) and pred.labels_hat.shape == (T,)
        assert np.all((pred.probs >= 0) & (pred.probs <= 1))
        np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(pred.labels_hat, pred.probs.argmax(axis=1) + 1)
        # Point t draws from the substream (seed, t): a prefix of the batch
        # and one-point blocks give the same rows, bit for bit.
        head = predict_proba(model, X[:1], cfg, seed=seed)
        assert np.array_equal(head.probs, pred.probs[:1])
        with mock.patch.object(classifiers, "_MC_BLOCK_DRAWS", samples):
            assert np.array_equal(predict_proba(model, X, cfg, seed=seed).probs, pred.probs)
        if mode == "latent-f":
            # Every draw of a zero-variance point is its mean.
            still = np.all(var == 0, axis=1)
            expected = softmax_rows(cfg.logits(means[still]))
            np.testing.assert_allclose(pred.probs[still], expected, rtol=0, atol=1e-12)


class TestGpdLabelRecovery:
    def test_frozen_regression_values(self):
        assert gpd_label_recovery_error(3, 0.01, num_samples=100_000, seed=0) == 0.00438
        assert gpd_label_recovery_error(8, 0.1, num_samples=50_000, seed=1) == 0.17178

    def test_error_increases_with_classes(self):
        errs = [
            gpd_label_recovery_error(K, 0.1, num_samples=50_000, seed=2)
            for K in (2, 8, 64)
        ]
        assert errs[0] < errs[1] < errs[2]

    def test_error_decreases_with_smaller_concentration(self):
        errs = [
            gpd_label_recovery_error(32, a, num_samples=50_000, seed=3)
            for a in (0.1, 0.001, 0.0001)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_tiny_concentration_near_zero_error(self):
        assert gpd_label_recovery_error(4, 1e-5, num_samples=20_000, seed=4) <= 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            gpd_label_recovery_error(1, 0.1)


class TestBreakdownSmoke:
    def test_structure_and_separable_errors(self):
        rows, summary = run_breakdown({"n_train": 90, "n_test": 90, "num_repeats": 2, "max_iters": 25})
        assert {row["model"] for row in rows} == {"ilr", "gpd"}
        assert {row["mode"] for row in rows if row["model"] == "ilr"} == {"latent-f", "noisy-z"}
        assert summary["ilr/latent-f"]["mean"] == 0.0
        assert summary["gpd/latent-f"]["mean"] == 0.0
        assert len([row for row in rows if (row["model"], row["mode"]) == ("gpd", "noisy-z")]) == 2

    def test_deterministic(self):
        params = {"n_train": 60, "n_test": 60, "num_repeats": 1, "max_iters": 10}
        assert run_breakdown(params) == run_breakdown(params)
