import math

import numpy as np
import pytest

from ilrgp.kernel import (
    RbfKernel,
    cholesky_with_jitter,
    cross_gram,
    gram,
    gram_gradients,
)


@pytest.fixture
def kern():
    return RbfKernel(math.log(1.3), math.log(0.7), 3)


class TestKernelEval:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RbfKernel(np.nan, 0.0, 2)
        with pytest.raises(ValueError):
            RbfKernel(0.0, 0.0, 0)


class TestGram:
    def test_single_point(self, kern):
        G = gram(kern, np.zeros((1, 3)))
        np.testing.assert_allclose(G, [[kern.signal_variance]], rtol=1e-15)

    def test_duplicated_rows(self, kern):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3)
        G = gram(kern, np.vstack([x, x, rng.standard_normal(3)]))
        np.testing.assert_array_equal(G[0], G[1])
        np.testing.assert_array_equal(G[:, 0], G[:, 1])

    def test_symmetric_psd(self, kern):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 3))
        G = gram(kern, X)
        np.testing.assert_array_equal(G, G.T)
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() >= -1e-8 * kern.signal_variance

    def test_cross_gram_consistency(self, kern):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 3))
        np.testing.assert_allclose(cross_gram(kern, X, X), gram(kern, X), atol=1e-15)

    @pytest.mark.parametrize("x2, expected", [
        pytest.param([1.0, 1.0, 0.0], math.exp(-1.0), id="unit"),  # squared distance 2
        pytest.param([100.0, 100.0, 100.0], 0.0, id="decay"),
    ])
    def test_cross_gram_value(self, x2, expected):
        k = RbfKernel(0.0, 0.0, 3)
        C = cross_gram(k, np.zeros((1, 3)), np.array([x2]))
        assert C[0, 0] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_cross_gram_dimension_mismatch(self, kern):
        with pytest.raises(ValueError):
            cross_gram(kern, np.zeros((1, 2)), np.zeros((1, 3)))

    def test_cross_gram_shape(self, kern):
        rng = np.random.default_rng(4)
        C = cross_gram(kern, rng.standard_normal((5, 3)), rng.standard_normal((2, 3)))
        assert C.shape == (5, 2)

    def test_nonfinite_rejected(self, kern):
        with pytest.raises(ValueError):
            gram(kern, np.array([[np.inf, 0.0, 0.0]]))


class TestGramGradients:
    def test_signal_gradient_equals_gram(self, kern):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 3))
        K, dK_sf2, _ = gram_gradients(kern, X)
        np.testing.assert_array_equal(K, dK_sf2)

    def test_lengthscale_gradient_zero_diagonal(self, kern):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 3))
        _, _, dK_len = gram_gradients(kern, X)
        np.testing.assert_array_equal(np.diag(dK_len), np.zeros(8))

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 3))
        p0 = np.array([math.log(1.3), math.log(0.7)])
        _, dK_sf2, dK_len = gram_gradients(RbfKernel(p0[0], p0[1], 3), X)
        h = 1e-5
        for i, analytic in ((0, dK_sf2), (1, dK_len)):
            hi, lo = p0.copy(), p0.copy()
            hi[i] += h
            lo[i] -= h
            fd = (gram(RbfKernel(hi[0], hi[1], 3), X) - gram(RbfKernel(lo[0], lo[1], 3), X)) / (2 * h)
            scale = np.abs(fd).max()
            assert np.abs(analytic - fd).max() <= 1e-5 * scale


class TestCholeskyWithJitter:
    def test_clean_matrix_no_jitter(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        L = cholesky_with_jitter(A, 1.0)
        np.testing.assert_allclose(L @ L.T, A, atol=1e-14)

    def test_singular_recovers_with_jitter(self, kern):
        # duplicated inputs make the bare Gram exactly singular
        x = np.array([0.1, 0.2, 0.3])
        X = np.vstack([x] * 5)
        G = gram(kern, X)
        L = cholesky_with_jitter(G, kern.signal_variance)
        assert np.all(np.isfinite(L))
        rebuilt = L @ L.T
        assert np.abs(rebuilt - G).max() <= 1e-4 * kern.signal_variance * 1.5

    def test_hopeless_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_with_jitter(-np.eye(3), 1.0)
