import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from bgelearn.errors import IndexOutOfRangeError, NotPositiveDefiniteError
from bgelearn.linalg import (
    as_sym,
    invert_spd,
    log_det,
    spd_factor,
    submatrix,
    sym_factor,
    sym_log_det,
)

# Posterior precision hyperparameter of the bundled three-variable demo,
# as printed to one decimal in the classical worked example.
DEMO_POSTERIOR_T = np.array(
    [[13.8, 11.3, 6.7], [11.3, 35.8, 27.7], [6.7, 27.7, 41.2]]
)


def det3_by_cofactors(a):
    """Independent 3x3 determinant via cofactor expansion."""
    return (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def random_spd(rng, n):
    g = rng.standard_normal((n, n))
    a = g @ g.T + 1e-3 * np.eye(n)
    return (a + a.T) / 2.0


class TestSpdFactor:
    def test_identity_factors_to_identity(self):
        np.testing.assert_allclose(spd_factor(np.eye(3)), np.eye(3))

    def test_scalar_square_root(self):
        np.testing.assert_allclose(spd_factor([[4.0]]), [[2.0]])

    def test_indefinite_matrix_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefiniteError):
            spd_factor([[1.0, 2.0], [2.0, 1.0]])

    def test_tiny_pivot_counts_as_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_factor(np.diag([1.0, 1e-13]))
        spd_factor(np.diag([1.0, 1e-11]))  # above the tolerance: fine

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            spd_factor([[1.0, 0.5], [0.0, 1.0]])

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_spd(rng, int(rng.integers(1, 9)))
            lower = spd_factor(a)
            np.testing.assert_allclose(lower @ lower.T, a, rtol=1e-10, atol=1e-12)
            assert np.all(lower.diagonal() > 0)


class TestSymmetrizeOnce:
    def test_principal_submatrices_factor_as_spd_factor_does(self):
        # as_sym once on the whole matrix, then sym_factor on a principal
        # submatrix, is bit for bit spd_factor on that submatrix.
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = random_spd(rng, n)
            a[0, 1] += 1e-12  # an asymmetry for as_sym to average away
            sym = as_sym(a)
            for _ in range(5):
                keep = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
                sub = np.ix_(keep, keep)
                np.testing.assert_array_equal(sym_factor(sym[sub]), spd_factor(a[sub]))
                assert sym_log_det(sym[sub]) == log_det(a[sub])

    def test_sym_factor_keeps_the_pivot_test(self):
        with pytest.raises(NotPositiveDefiniteError):
            sym_factor(np.diag([1.0, 1e-13]))
        with pytest.raises(NotPositiveDefiniteError):
            sym_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestLogDet:
    def test_identity(self):
        assert log_det(np.eye(3)) == 0.0

    def test_scalar(self):
        assert log_det([[2.0]]) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_demo_posterior_matrix_against_cofactor_oracle(self):
        oracle = math.log(det3_by_cofactors(DEMO_POSTERIOR_T))
        assert oracle == pytest.approx(8.867, abs=5e-4)
        assert log_det(DEMO_POSTERIOR_T) == pytest.approx(oracle, abs=1e-10)

    def test_inverse_negates_log_det(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_spd(rng, int(rng.integers(1, 9)))
            assert log_det(a) + log_det(invert_spd(a)) == pytest.approx(0.0, abs=1e-8)


class TestInvertSpd:
    def test_identity(self):
        np.testing.assert_allclose(invert_spd(np.eye(4)), np.eye(4))

    def test_hand_checked_three_by_three(self):
        w = np.array([[2.0, 1.0, -1.0], [1.0, 2.0, -1.0], [-1.0, -1.0, 1.0]])
        expected = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
        inv = invert_spd(w)
        np.testing.assert_allclose(inv, expected, atol=1e-12)
        np.testing.assert_allclose(w @ inv, np.eye(3), atol=1e-9)

    def test_scalar(self):
        np.testing.assert_allclose(invert_spd([[4.0]]), [[0.25]])

    def test_product_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_spd(rng, int(rng.integers(1, 7)))
            np.testing.assert_allclose(a @ invert_spd(a), np.eye(a.shape[0]), atol=1e-9)

    def test_matches_cholesky_solve(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            a = random_spd(rng, int(rng.integers(1, 31)))
            expected = cho_solve(cho_factor(a, lower=True), np.eye(a.shape[0]))
            err = np.abs(invert_spd(a) - expected).max() / np.abs(expected).max()
            assert err <= 1e-14 * np.linalg.cond(a)


class TestSubmatrix:
    def test_identity_restriction(self):
        np.testing.assert_allclose(submatrix(np.eye(3), [0, 2]), np.eye(2))

    def test_demo_prior_t_restriction(self):
        t0 = np.array([[1.7, 0.0, 1.7], [0.0, 1.7, 1.7], [1.7, 1.7, 5.1]])
        np.testing.assert_allclose(
            submatrix(t0, [0, 1]), [[1.7, 0.0], [0.0, 1.7]]
        )

    def test_keep_all_is_identity_operation(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 4)
        np.testing.assert_array_equal(submatrix(a, range(4)), a)

    def test_keep_order_respected(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        np.testing.assert_allclose(submatrix(a, [1, 0]), [[4.0, 2.0], [2.0, 1.0]])

    def test_bad_indices(self):
        with pytest.raises(IndexOutOfRangeError):
            submatrix(np.eye(2), [0, 2])
        with pytest.raises(IndexOutOfRangeError):
            submatrix(np.eye(2), [0, 0])
