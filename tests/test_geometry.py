"""The paper's reference sign step: closed-form query points ZX = diag(sigma)(I + J), the block
sign system and its SVD solve, and recover_s."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradleak import (
    GeometryError,
    Oracle,
    SignRecoveryError,
    SingularMatrixError,
    TwoLayerNet,
    block_sign_matrix,
    eval_target,
    generate_random_net,
    rank_with_tolerance,
    recover_s,
    recovered_from_net,
    sign_query_points,
    solve_linear_system,
)
from gradleak.geometry import _solve
from gradleak.model import eval_recovered_batch


def weighted_normals(d, h, seed):
    net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=seed)
    return net.w[:, None] * net.A


def target(sigma):
    h = sigma.shape[0]
    return sigma[:, None] * (np.eye(h) + 1.0)


class TestSignQueryPoints:
    def test_zx_matches_target(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            z = weighted_normals(16, 6, seed=trial)
            x, sigma = sign_query_points(z, rng)
            assert x.shape == (16, 6)
            assert_allclose(z @ x, target(sigma), rtol=1e-9, atol=1e-9)

    def test_columns_lie_in_cell_sigma(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            z = weighted_normals(8, 5, seed=trial + 100)
            x, sigma = sign_query_points(z, rng)
            assert set(sigma.tolist()) <= {-1, 1}
            zx = z @ x
            assert np.min(np.abs(zx)) >= 1.0 - 1e-9
            for j in range(5):
                assert np.array_equal(np.sign(zx[:, j]).astype(int), sigma)

    def test_single_row(self):
        z = np.array([[2.0, 0.0, 0.0]])
        x, sigma = sign_query_points(z, np.random.default_rng(2))
        assert x.shape == (3, 1)
        assert_allclose(z @ x, [[2.0 * sigma[0]]], rtol=1e-12)

    def test_square_case(self):
        z = weighted_normals(4, 4, seed=3)
        x, sigma = sign_query_points(z, np.random.default_rng(3))
        assert_allclose(z @ x, target(sigma), rtol=1e-9, atol=1e-9)

    def test_duplicated_row_rejected(self):
        z = weighted_normals(6, 3, seed=4)
        z[2] = z[0]
        with pytest.raises(GeometryError):
            sign_query_points(z, np.random.default_rng(4))

    def test_zero_row_rejected(self):
        z = weighted_normals(6, 3, seed=5)
        z[1] = 0.0
        with pytest.raises(GeometryError):
            sign_query_points(z, np.random.default_rng(5))

    def test_square_32_case(self):
        # h = d is the worst-conditioned shape the least-squares solve sees.
        z = weighted_normals(32, 32, seed=6)
        x, sigma = sign_query_points(z, np.random.default_rng(6))
        assert_allclose(z @ x, target(sigma), rtol=1e-9, atol=1e-9)

    def test_tiny_pivot_rejected(self):
        # Z has full rank, but its smallest singular value (~1e-8) is below
        # SINGULAR_PIVOT_TOL times the largest (1e-10 * ~1e3).
        z = np.zeros((2, 6))
        z[0, 0] = 1e3
        z[1, 0] = 1.0
        z[1, 1] = 1e-8
        with pytest.raises(GeometryError, match="ill-conditioned"):
            sign_query_points(z, np.random.default_rng(7))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_rescaled_z_places_points(self, scale):
        # Rescaling Z changes neither its rank nor its conditioning.
        z = weighted_normals(8, 4, seed=8) * scale
        x, sigma = sign_query_points(z, np.random.default_rng(8))
        assert_allclose(z @ x, target(sigma), rtol=1e-9, atol=1e-9)

    def test_overflowing_points_rejected(self):
        # Full rank at cond 1e9, but X ~ 1e309 overflows: ZX is NaN, not near T.
        z = np.array([[1e-300, 0.0], [0.0, 1e-309]])
        with pytest.raises(GeometryError):
            sign_query_points(z, np.random.default_rng(9))


class TestRecoverS:
    def test_two_unit_signs(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, -1.0]))
        oracle = Oracle(net)
        z = np.array([[1.0, 0.0], [0.0, -1.0]])
        s = recover_s(oracle, z, rng=np.random.default_rng(0))
        assert s.tolist() == [1, 0, 0, -1]

    def test_single_positive_unit(self):
        net = TwoLayerNet(A=np.array([[1.0, 0.0]]), w=np.array([1.0]))
        oracle = Oracle(net)
        s = recover_s(oracle, np.array([[1.0, 0.0]]), rng=np.random.default_rng(1))
        assert s.tolist() == [1, 0]

    def test_uses_exactly_2h_value_queries(self):
        net = generate_random_net(9, 4, seed=8)
        oracle = Oracle(net)
        z = net.w[:, None] * net.A
        recover_s(oracle, z, rng=np.random.default_rng(2))
        assert oracle.ledger.value_queries == 8
        assert oracle.ledger.gradient_queries == 0
        # The paper's one batch of 2h value queries: one request, not 2h.
        assert oracle.ledger.rounds == 1

    def test_sign_flips_match_reference(self):
        rng = np.random.default_rng(3)
        net = generate_random_net(10, 5, seed=9)
        flips = rng.choice([-1.0, 1.0], size=5)
        z = flips[:, None] * net.w[:, None] * net.A
        oracle = Oracle(net)
        s = recover_s(oracle, z, rng=rng)
        from gradleak import RecoveredModel

        model = RecoveredModel(Z=z, s=s)
        pts = rng.standard_normal((2000, 10))[:50]
        expected = [eval_target(net, x) for x in pts]
        assert eval_recovered_batch(model, pts) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-305, 1e-300, 1e-160, 1e-20, 1e-8, 1e-4, 1.0, 1e8, 1e160, 1e300, 1e305])
    def test_certificate_is_relative_at_any_weight_scale(self, scale):
        # The residual scale is max(1, max|Z| max_j ||x_j||), which ZX =
        # diag(sigma)(I + J) keeps near 1 at any weight scale. The points'
        # own length, max_j ||x_j|| ~ 1/|w|, let a row 1% too long pass on
        # all 10 nets at every scale from 1e-8 down.
        for seed in range(10):
            net = generate_random_net(12, 5, seed=seed)
            scaled = TwoLayerNet(net.A, net.w * scale)
            true, oracle = recovered_from_net(scaled), Oracle(scaled)
            s = recover_s(oracle, true.Z, rng=np.random.default_rng(seed))
            assert s.tolist() == true.s.tolist(), f"net {seed}"
            long_row = true.Z.copy()
            long_row[2] *= 1.01
            with pytest.raises(SignRecoveryError, match="leaves residual"):
                recover_s(oracle, long_row, rng=np.random.default_rng(seed))

    @pytest.mark.parametrize(
        "s, message",
        [
            ([0.0, -1.0, 3.0, 0.0], r"entry 2 = 3 rounds outside \{-1,0,1\}"),
            ([0.0, 0.5, 1.0, 0.0], r"entry 1 = 0\.5 is not near an integer"),
            ([1.0, 0.0, 1.0, 0.0], r"sign pattern is invalid: .*one nonzero per row pair"),
        ],
    )
    def test_rejection_names_the_offending_entry(self, s, message):
        from gradleak.errors import SignRecoveryError

        z = np.array([[1.0, 0.0], [0.0, 1.0]])

        class StubOracle:
            # Values of sum_i s_i relu(z_i x) + s_{h+i} relu(-z_i x) at the rows of X.
            def values(self, xs):
                pre = xs @ z.T
                return np.maximum(pre, 0.0) @ s[:2] + np.maximum(-pre, 0.0) @ s[2:]

        with pytest.raises(SignRecoveryError, match=message):
            recover_s(StubOracle(), z, rng=np.random.default_rng(4))

    def test_non_finite_values_are_rejected(self):
        # An infinite value makes the solution NaN, which every comparison
        # with a tolerance must reject rather than let through.
        from gradleak.errors import SignRecoveryError

        class InfOracle:
            def values(self, xs):
                return np.full(len(xs), math.inf)

        with pytest.raises(SignRecoveryError, match=r"entry 0 = nan is not near an integer"):
            recover_s(InfOracle(), np.eye(2), rng=np.random.default_rng(4))


class TestSolveRefusals:
    # recover_s's solve reports a system it cannot solve as a failed sign
    # recovery, not as a linear-algebra error.
    @pytest.mark.parametrize(
        "m, b, match",
        [
            ([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], "singular value"),
            (np.ones((2, 3)), [1.0, 2.0], "more columns than rows"),
            (np.eye(2), [1.0, 2.0, 3.0], "right-hand side"),
        ],
    )
    def test_failures_are_sign_recovery_errors(self, m, b, match):
        with pytest.raises(SignRecoveryError, match=f"sign system is singular: .*{match}"):
            _solve(m, b)


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

    def test_right_hand_side_shape_errors(self):
        with pytest.raises(ValueError, match="right-hand side"):
            solve_linear_system(np.eye(2), np.ones((2, 2, 1)))
        with pytest.raises(ValueError, match="right-hand side"):
            solve_linear_system(np.eye(2), np.ones((3, 2)))
        with pytest.raises(ValueError, match="right-hand side"):
            solve_linear_system(np.eye(2), 1.0)
        with pytest.raises(ValueError, match="columns than rows"):
            solve_linear_system(np.ones((2, 3)), np.ones((2, 2)))


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

    def test_equals_the_stacked_reference(self):
        rng = np.random.default_rng(36)
        for h in (1, 2, 3, 8, 16):
            zx = rng.standard_normal((h, h))
            pos, neg = np.maximum(zx, 0.0).T, np.maximum(-zx, 0.0).T
            ref = np.vstack([np.hstack([pos, neg]), np.hstack([neg, pos])])
            m = block_sign_matrix(zx)
            assert m.tobytes() == ref.tobytes()
            assert (m.dtype, m.shape, m.flags.c_contiguous) == (ref.dtype, ref.shape, True)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            block_sign_matrix([[1.0, 0.0], [1.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            block_sign_matrix(np.ones((2, 3)))
