"""Dense solve, numerical rank, and the sign-block assembly."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradleak import SingularMatrixError, block_sign_matrix, rank_with_tolerance, solve_linear_system


class TestSolve:
    def test_identity(self):
        assert_allclose(solve_linear_system(np.eye(2), [3.0, -1.0]), [3.0, -1.0])

    def test_diagonal(self):
        assert_allclose(solve_linear_system([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0]), [1.0, 2.0])

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_linear_system([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])

    def test_near_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_linear_system([[1.0, 1.0], [1.0, 1.0 + 1e-12]], [1.0, 2.0])

    def test_needs_pivoting(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(solve_linear_system(m, [5.0, 7.0]), [7.0, 5.0])

    def test_round_trip_on_random_well_conditioned(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 8, 16, 40):
            for _ in range(10):
                m = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
                b = rng.standard_normal(n)
                x = solve_linear_system(m, b)
                assert np.max(np.abs(m @ x - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))

    def test_tall_full_column_rank(self):
        # A consistent tall system is solved exactly; an inconsistent one gets
        # its least-squares solution, and the caller judges the residual.
        m = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        assert_allclose(solve_linear_system(m, [1.0, 4.0, 3.0]), [1.0, 2.0])
        assert_allclose(solve_linear_system(m, [1.0, 4.0, 0.0]), np.linalg.lstsq(m, [1.0, 4.0, 0.0])[0])

    def test_tall_rank_deficient(self):
        with pytest.raises(SingularMatrixError):
            solve_linear_system([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], [1.0, 2.0, 3.0])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            solve_linear_system(np.ones((2, 3)), [1.0, 2.0])
        with pytest.raises(ValueError):
            solve_linear_system(np.eye(2), [1.0, 2.0, 3.0])

    def test_columns_of_the_right_hand_side_are_solved_independently(self):
        rng = np.random.default_rng(3)
        for n, k in ((3, 3), (7, 4)):
            m, b = rng.standard_normal((n, k)), rng.standard_normal((n, 2))
            x = solve_linear_system(m, b)
            assert x.shape == (k, 2)
            for j in range(2):
                assert_allclose(x[:, j], solve_linear_system(m, b[:, j]), rtol=1e-12, atol=1e-14)

    def test_right_hand_side_shape_errors(self):
        with pytest.raises(ValueError, match="right-hand side"):
            solve_linear_system(np.eye(2), np.ones((2, 2, 1)))
        with pytest.raises(ValueError, match="right-hand side"):
            solve_linear_system(np.eye(2), np.ones((3, 2)))
        with pytest.raises(ValueError, match="right-hand side"):
            solve_linear_system(np.eye(2), 1.0)
        with pytest.raises(ValueError, match="columns than rows"):
            solve_linear_system(np.ones((2, 3)), np.ones((2, 2)))


class TestRank:
    def test_identity(self):
        assert rank_with_tolerance(np.eye(3), 1e-9) == 3

    def test_proportional_rows(self):
        assert rank_with_tolerance([[1.0, 2.0], [2.0, 4.0]], 1e-9) == 1

    def test_zero(self):
        assert rank_with_tolerance(np.zeros((3, 4)), 1e-9) == 0

    def test_empty(self):
        assert rank_with_tolerance(np.zeros((0, 3)), 1e-9) == 0

    def test_rectangular(self):
        m = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
        assert rank_with_tolerance(m, 1e-9) == 2

    def test_near_dependency_respects_tolerance(self):
        m = np.array([[1.0, 0.0], [1.0, 1e-12]])
        assert rank_with_tolerance(m, 1e-9) == 1
        assert rank_with_tolerance(m, 1e-14) == 2

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            rank_with_tolerance(np.eye(2), 0.0)

    def test_nan_tolerance(self):
        with pytest.raises(ValueError):
            rank_with_tolerance(np.eye(2), float("nan"))


class TestBlockSignMatrix:
    def test_one_by_one_positive(self):
        assert_allclose(block_sign_matrix([[1.0]]), [[1.0, 0.0], [0.0, 1.0]])

    def test_one_by_one_negative(self):
        assert_allclose(block_sign_matrix([[-1.0]]), [[0.0, 1.0], [1.0, 0.0]])

    def test_all_positive_determinant_squares(self):
        rng = np.random.default_rng(1)
        zx = rng.uniform(0.5, 2.0, size=(2, 2))
        m = block_sign_matrix(zx)
        assert_allclose(m[:2, 2:], 0.0)
        assert_allclose(m[2:, :2], 0.0)
        assert np.linalg.det(m) == pytest.approx(np.linalg.det(zx) ** 2, rel=1e-9)

    def test_mixed_signs_full_rank(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            zx = rng.standard_normal((4, 4))
            zx[np.abs(zx) < 0.1] = 0.5
            # A constant sign per row mirrors one cell's activation pattern.
            zx = np.abs(zx) * np.where(rng.random(4) < 0.5, -1.0, 1.0)[:, None]
            m = block_sign_matrix(zx)
            assert rank_with_tolerance(m, 1e-9) == 8

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            block_sign_matrix([[1.0, 0.0], [1.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            block_sign_matrix(np.ones((2, 3)))
