import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from ilrgp.simplex import (
    SmoothingConfig,
    aitchison_distance,
    aitchison_inner,
    class_target,
    class_target_matrix,
    helmert_basis,
    ilr_forward,
    ilr_inverse,
    ilr_inverse_rows,
    normal_quantile,
    separation_delta,
    sigma_bound,
    softmax_rows,
)


def random_interior(rng, K):
    p = rng.random(K) + 1e-3
    return p / p.sum()


class TestHelmertBasis:
    def test_k2_explicit(self):
        H = helmert_basis(2)
        np.testing.assert_allclose(H, [[0.7071067811865476, -0.7071067811865476]], atol=1e-15)

    def test_k3_explicit(self):
        H = helmert_basis(3)
        s2, s6 = 1 / math.sqrt(2), 1 / math.sqrt(6)
        np.testing.assert_allclose(H, [[s2, -s2, 0.0], [s6, s6, -2 * s6]], atol=1e-15)

    @pytest.mark.parametrize("K", [2, 3, 5, 26, 128, 512])
    def test_orthonormal_contrast(self, K):
        H = helmert_basis(K)
        assert np.abs(H @ H.T - np.eye(K - 1)).max() <= 1e-12
        assert np.abs(H @ np.ones(K)).max() <= 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            helmert_basis(1)
        with pytest.raises(ValueError):
            helmert_basis(2000)


class TestIlrMaps:
    def test_uniform_maps_to_zero(self):
        for K in (2, 3, 7):
            z = ilr_forward(np.full(K, 1.0 / K))
            assert np.abs(z).max() <= 1e-14

    def test_k2_hand_value(self):
        z = ilr_forward(np.array([0.9, 0.1]))
        assert z.shape == (1,)
        assert abs(z[0] - math.log(9.0) / math.sqrt(2.0)) <= 1e-12

    def test_inverse_of_zero_is_uniform(self):
        p = ilr_inverse(np.zeros(3))
        np.testing.assert_allclose(p, np.full(4, 0.25), atol=1e-15)

    def test_inverse_hand_value(self):
        p = ilr_inverse(np.array([math.log(9.0) / math.sqrt(2.0)]))
        np.testing.assert_allclose(p, [0.9, 0.1], atol=1e-12)

    def test_softmax_saturation(self):
        H = helmert_basis(3)
        # push far along the direction of class 1's vertex
        z = 200.0 * (H @ np.log([0.98, 0.01, 0.01]))
        p = ilr_inverse(z, H)
        assert p[0] > 1.0 - 1e-12
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("K", [2, 3, 5, 10, 26])
    def test_round_trip(self, K):
        rng = np.random.default_rng(K)
        H = helmert_basis(K)
        for _ in range(50):
            p = random_interior(rng, K)
            assert np.abs(ilr_inverse(ilr_forward(p, H), H) - p).max() <= 1e-10
            z = rng.standard_normal(K - 1)
            assert np.abs(ilr_forward(ilr_inverse(z, H), H) - z).max() <= 1e-10

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            ilr_forward(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ilr_forward(np.array([1.1, -0.1]))
        with pytest.raises(ValueError):
            ilr_forward(np.array([0.6, 0.6]))  # sums to 1.2
        with pytest.raises(ValueError):
            ilr_inverse(np.array([np.nan]))

    def test_row_wise_inverse_matches(self):
        rng = np.random.default_rng(0)
        H = helmert_basis(4)
        Z = rng.standard_normal((6, 3))
        rows = ilr_inverse_rows(Z, H)
        for i in range(6):
            np.testing.assert_allclose(rows[i], ilr_inverse(Z[i], H), atol=1e-14)

    @pytest.mark.parametrize("K", [2, 3, 5, 7, 8, 64])
    def test_softmax_rows_matches_axis_reductions(self, K):
        rng = np.random.default_rng(K)
        Z = 30.0 * rng.standard_normal((500, K))
        shifted = Z - Z.max(axis=1, keepdims=True)
        W = np.exp(shifted)
        expected = W / W.sum(axis=1, keepdims=True)
        got = softmax_rows(Z)
        if K < 8:  # numpy sums rows this short left to right, as softmax_rows does
            assert np.array_equal(got, expected)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("K", [2, 3, 5, 7])
    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_softmax_rows_class_axis_and_in_place(self, K, axis):
        rng = np.random.default_rng(K)
        shape = [4, 6, 5]
        shape[axis] = K
        Z = 30.0 * rng.standard_normal(shape)
        W = np.exp(Z - Z.max(axis=axis, keepdims=True))
        expected = W / W.sum(axis=axis, keepdims=True)
        assert np.array_equal(softmax_rows(Z, axis=axis), expected)
        rows = softmax_rows(np.moveaxis(Z, axis, -1).reshape(-1, K))
        assert np.array_equal(np.moveaxis(expected, axis, -1).reshape(-1, K), rows)
        out = softmax_rows(Z, axis=axis, out=Z)
        assert out is Z
        assert np.array_equal(Z, expected)


class TestAitchisonGeometry:
    def test_inner_with_uniform_is_zero(self):
        rng = np.random.default_rng(1)
        for K in (2, 4, 9):
            x = random_interior(rng, K)
            assert abs(aitchison_inner(x, np.full(K, 1.0 / K))) <= 1e-12

    @pytest.mark.parametrize("K", [2, 3, 5, 10, 26])
    def test_inner_matches_ilr_dot(self, K):
        rng = np.random.default_rng(100 + K)
        H = helmert_basis(K)
        for _ in range(25):
            x, y = random_interior(rng, K), random_interior(rng, K)
            dot = ilr_forward(x, H) @ ilr_forward(y, H)
            assert abs(aitchison_inner(x, y) - dot) <= 1e-10

    @pytest.mark.parametrize("K", [2, 3, 5, 10, 26])
    def test_distance_matches_ilr_norm(self, K):
        rng = np.random.default_rng(200 + K)
        H = helmert_basis(K)
        for _ in range(25):
            x, y = random_interior(rng, K), random_interior(rng, K)
            ref = np.linalg.norm(ilr_forward(x, H) - ilr_forward(y, H))
            assert abs(aitchison_distance(x, y) - ref) <= 1e-10

    def test_distance_to_self_zero(self):
        x = np.array([0.2, 0.3, 0.5])
        assert aitchison_distance(x, x) == 0.0

    def test_target_cross_inner(self):
        # distinct smoothed targets have inner product -L^2 / K
        for lam, K in ((0.9, 3), (0.99, 5), (0.5, 2)):
            cfg = SmoothingConfig(lam, K)
            L = math.log1p(K * lam / (1 - lam))
            mu1, _ = class_target(1, cfg)
            mu2, _ = class_target(2, cfg)
            assert abs(aitchison_inner(mu1, mu2) - (-L * L / K)) <= 1e-10

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            aitchison_inner(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            aitchison_distance(np.array([0.5, 0.5]), np.array([0.0, 1.0]))


class TestClassTargets:
    def test_values_k3(self):
        cfg = SmoothingConfig(0.9, 3)
        mu, m = class_target(1, cfg)
        np.testing.assert_allclose(mu, [0.9 + 0.1 / 3, 0.1 / 3, 0.1 / 3], atol=1e-15)
        np.testing.assert_allclose(m, ilr_forward(mu), atol=1e-15)

    def test_small_lambda_limit(self):
        cfg = SmoothingConfig(1e-9, 4)
        mu, m = class_target(2, cfg)
        assert np.abs(mu - 0.25).max() <= 1e-9
        assert np.abs(m).max() <= 1e-8

    def test_pairwise_distances_equal(self):
        cfg = SmoothingConfig(0.97, 5)
        M = class_target_matrix(cfg)
        dists = [
            np.linalg.norm(M[i] - M[j])
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        assert max(dists) - min(dists) <= 1e-10

    def test_index_errors(self):
        cfg = SmoothingConfig(0.9, 3)
        with pytest.raises(IndexError):
            class_target(0, cfg)
        with pytest.raises(IndexError):
            class_target(4, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmoothingConfig(0.0, 3)
        with pytest.raises(ValueError):
            SmoothingConfig(1.0, 3)
        with pytest.raises(ValueError):
            SmoothingConfig(0.9, 1)
        with pytest.raises(ValueError):
            SmoothingConfig(0.9, 3, epsilon=0.0)


class TestSeparationDelta:
    def test_hand_values(self):
        assert separation_delta(SmoothingConfig(0.95, 3)) == pytest.approx(
            math.sqrt(2) * math.log(58), abs=1e-12
        )
        assert separation_delta(SmoothingConfig(0.9, 3)) == pytest.approx(
            math.sqrt(2) * math.log(28), abs=1e-12
        )

    @pytest.mark.parametrize("lam", [0.5, 0.9, 0.99, 0.9999])
    @pytest.mark.parametrize("K", [2, 3, 10])
    def test_matches_target_distance(self, lam, K):
        cfg = SmoothingConfig(lam, K)
        mu1, _ = class_target(1, cfg)
        mu2, _ = class_target(2, cfg)
        assert abs(aitchison_distance(mu1, mu2) - separation_delta(cfg)) <= 1e-10


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_known_value(self):
        assert abs(normal_quantile(0.975) - 1.959963984540054) <= 1e-9

    def test_against_reference(self):
        qs = np.concatenate([
            np.array([1e-12, 1e-9, 5e-7, 1e-3, 0.02, 0.3]),
            np.linspace(0.4, 0.6, 5),
            1.0 - np.array([1e-12, 1e-9, 5e-7, 1e-3, 0.02, 0.3]),
        ])
        assert np.abs(normal_quantile(qs) - norm.ppf(qs)).max() <= 1e-9

    def test_within_ulps_of_ndtri(self):
        # AS241 and ndtri are each a few ulp from a 60-digit reference (at
        # most 4 and 3 on the 1 - epsilon/D points), sometimes on opposite
        # sides: on this grid they differ by at most 5 ulp.
        qs = np.concatenate([
            np.logspace(-300, -1, 600),
            np.linspace(0.01, 0.99, 981),
            1.0 - np.logspace(-16, -1, 300),
            [1.0 - eps / D for eps in (1e-2, 1e-3, 1e-6, 1e-9, 1e-12) for D in range(1, 200)],
        ])
        ref = ndtri(qs)
        ulps = np.abs(normal_quantile(qs) - ref) / np.spacing(np.abs(ref))
        assert ulps[ref != 0.0].max() <= 5.0

    def test_erf_round_trip(self):
        # forward CDF from the complementary error function, independent path
        for q in np.linspace(0.001, 0.999, 41):
            x = normal_quantile(q)
            assert abs(0.5 * math.erfc(-x / math.sqrt(2)) - q) <= 1e-9

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5, np.nan):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestSigmaBound:
    def test_value_against_reference(self):
        cfg = SmoothingConfig(0.9, 3, epsilon=1e-6)
        ref = separation_delta(cfg) / (2.0 * norm.ppf(1.0 - 1e-6 / 2))
        assert sigma_bound(cfg) == pytest.approx(ref, abs=1e-12)
        assert sigma_bound(cfg) == pytest.approx(0.4817, abs=2e-4)

    def test_default_value_is_pinned(self):
        # AS241's quantile, as before scipy's ndtri moved it by 1-2 ulp
        assert sigma_bound(SmoothingConfig(0.99, 3)) == 0.8235386685589093
        assert sigma_bound(SmoothingConfig(0.9, 3)) == 0.48168408543335517

    def test_monotonicities(self):
        base = sigma_bound(SmoothingConfig(0.9, 3, epsilon=1e-6))
        assert sigma_bound(SmoothingConfig(0.9, 3, epsilon=1e-8)) < base
        assert sigma_bound(SmoothingConfig(0.95, 3, epsilon=1e-6)) > base

    def test_union_bound_analytic(self):
        # with sigma at the bound, D * Phi(-delta / 2 sigma) equals epsilon
        for K in (2, 3, 10):
            cfg = SmoothingConfig(0.9, K, epsilon=1e-6)
            D = K - 1
            margin = separation_delta(cfg) / (2.0 * sigma_bound(cfg))
            assert D * norm.cdf(-margin) <= 1e-6 * (1 + 1e-9)

    def test_escape_rate_monte_carlo(self):
        # moderate-tolerance version; the acceptance suite runs 1e6 samples
        n = 200_000
        for K in (3, 5):
            cfg = SmoothingConfig(0.9, K, epsilon=0.05)
            sigma = sigma_bound(cfg)
            M = class_target_matrix(cfg)
            rng = np.random.default_rng(K)
            samples = M[0] + sigma * rng.standard_normal((n, K - 1))
            d2 = ((samples[:, None, :] - M[None, :, :]) ** 2).sum(axis=2)
            escape = float(np.mean(d2.argmin(axis=1) != 0))
            assert escape <= 0.05 + 4.0 * math.sqrt(0.05 * 0.95 / n)

    def test_pairwise_misassignment_bound(self):
        # misassignment toward one fixed competitor obeys the half-space bound
        cfg = SmoothingConfig(0.9, 4, epsilon=0.05)
        sigma = sigma_bound(cfg)
        M = class_target_matrix(cfg)
        delta = separation_delta(cfg)
        n = 200_000
        rng = np.random.default_rng(7)
        samples = M[0] + sigma * rng.standard_normal((n, 3))
        closer = ((samples - M[1]) ** 2).sum(axis=1) <= ((samples - M[0]) ** 2).sum(axis=1)
        bound = norm.cdf(-delta / (2 * sigma))
        assert closer.mean() <= bound + 4.0 * math.sqrt(bound * (1 - bound) / n) + 1e-9
