import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from ilrgp.kernel import (
    RbfKernel,
    cholesky_with_jitter,
    cross_gram,
    gram,
    lower_inverse,
    sq_distances,
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


class TestCovarianceFormula:
    """The kernel's two formulas keep the bits of the expressions they replace."""

    def test_bits_of_the_inline_expressions(self):
        rng = np.random.default_rng(0)
        d2 = sq_distances(rng.standard_normal((40, 3)), rng.standard_normal((30, 3)))
        for k in (RbfKernel(math.log(1.3), math.log(0.7), 3), RbfKernel(-2.1, 1.9, 3)):
            K = k.covariance(d2)
            assert K.tobytes() == (k.signal_variance * np.exp(-d2 / (2.0 * k.lengthscale**2))).tobytes()
            assert k.dlog_lengthscale(K, d2).tobytes() == (K * (d2 / k.lengthscale**2)).tobytes()
            assert gram(k, np.eye(3)).tobytes() == k.covariance(sq_distances(np.eye(3), np.eye(3))).tobytes()

    def test_out_keeps_the_bits(self):
        rng = np.random.default_rng(1)
        d2 = sq_distances(rng.standard_normal((40, 3)), rng.standard_normal((30, 3)))
        k = RbfKernel(math.log(1.3), math.log(0.7), 3)
        K = k.covariance(d2)
        dK = k.dlog_lengthscale(K, d2)
        buf = np.empty_like(d2)
        assert k.covariance(d2, out=buf) is buf and buf.tobytes() == K.tobytes()
        assert k.dlog_lengthscale(K, d2, out=buf) is buf and buf.tobytes() == dK.tobytes()
        in_place = d2.copy()
        k.dlog_lengthscale(K, in_place, out=in_place)
        assert in_place.tobytes() == dK.tobytes()

    def test_huge_lengthscale_overflows_to_a_constant_kernel(self):
        # exp(400) squared overflows a float; the kernel is then flat at sf2.
        k = RbfKernel(0.0, 400.0, 2)
        d2 = np.array([0.0, 1.0, 4.0])
        K = k.covariance(d2)
        np.testing.assert_array_equal(K, 1.0)
        np.testing.assert_array_equal(k.dlog_lengthscale(K, d2), 0.0)


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

    def test_jitter_goes_on_the_diagonal_and_comes_off(self, kern):
        G = gram(kern, np.vstack([np.array([0.1, 0.2, 0.3])] * 5))
        before = G.tobytes()
        L = cholesky_with_jitter(G, kern.signal_variance)
        assert G.tobytes() == before
        jitter = 1e-8
        while True:  # the first rung of the ladder that factors is the one taken
            try:
                ref = np.linalg.cholesky(G + (jitter * kern.signal_variance) * np.eye(5))
                break
            except np.linalg.LinAlgError:
                jitter *= 10.0
        assert L.tobytes() == ref.tobytes()
        hopeless = -np.eye(3)
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_with_jitter(hopeless, 1.0)
        np.testing.assert_array_equal(hopeless, -np.eye(3))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)

# (A, B) with n and m rows in 1..9 and the same column count P in 1..12
_POINT_SETS = st.tuples(st.integers(1, 12), st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda s: st.tuples(arrays(np.float64, (s[1], s[0]), elements=_FINITE),
                        arrays(np.float64, (s[2], s[0]), elements=_FINITE))
)


class TestSqDistances:
    """``sq_distances`` has the bits of ``cdist(..., "sqeuclidean")``."""

    @settings(max_examples=300, deadline=None)
    @given(pair=_POINT_SETS)
    @example(pair=(np.array([[1e300, -0.0]]), np.array([[-1e300, 5e-324]])))
    @example(pair=(np.arange(12.0)[None, :], np.linspace(-3.0, 3.0, 24).reshape(2, 12)))
    def test_property_bit_identical_to_cdist(self, pair):
        A, B = pair
        assert sq_distances(A, B).tobytes() == cdist(A, B, "sqeuclidean").tobytes()

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 9, 13, 30])
    def test_wide_inputs_bit_identical(self, p):
        # numpy's pairwise summation over a row differs from cdist from P = 8
        rng = np.random.default_rng(p)
        A, B = rng.standard_normal((40, p)) * 7.0, rng.standard_normal((30, p))
        np.testing.assert_array_equal(sq_distances(A, B), cdist(A, B, "sqeuclidean"))

    def test_overflow_is_silent_inf(self):
        with np.errstate(over="raise"):
            d2 = sq_distances(np.array([[1e200]]), np.array([[-1e200]]))
        assert d2[0, 0] == np.inf


class TestLowerInverse:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 75, 200])
    def test_exactly_lower_triangular_and_an_inverse(self, n):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 2))
        L = np.linalg.cholesky(gram(RbfKernel(0.0, 0.0, 2), X) + 0.1 * np.eye(n))
        Li = lower_inverse(L)
        assert not np.triu(Li, 1).any()
        assert np.abs(L @ Li - np.eye(n)).max() <= 1e-12
        ref = solve_triangular(L, np.eye(n), lower=True)
        assert np.abs(Li - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_jittered_near_singular_factor(self):
        # one cluster of 60 close inputs under a long lengthscale: the bare
        # Gram is numerically singular and the factor needs jitter
        X = 1e-3 * np.random.default_rng(0).standard_normal((60, 2))
        k = RbfKernel(0.0, math.log(2.0), 2)
        G = gram(k, X)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(G)
        L = cholesky_with_jitter(G, k.signal_variance)
        Li = lower_inverse(L)
        assert not np.triu(Li, 1).any()
        ref = solve_triangular(L, np.eye(60), lower=True)
        # cond(L) is about 8e4; both errors measure below 1e-15
        assert np.abs(L @ Li - np.eye(60)).max() <= 1e-12
        assert np.abs(Li - ref).max() <= 1e-12 * np.abs(ref).max()
