"""The paper's reference sign step: closed-form query points ZX = diag(sigma)(I + J), and recover_s."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradleak import (
    GeometryError,
    Oracle,
    TwoLayerNet,
    eval_target,
    generate_random_net,
    recover_s,
    sign_query_points,
)
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
            # Values of sum_i s_i relu(z_i x) + s_{h+i} relu(-z_i x).
            def value(self, x):
                pre = z @ x
                return float(np.maximum(pre, 0.0) @ s[:2] + np.maximum(-pre, 0.0) @ s[2:])

        with pytest.raises(SignRecoveryError, match=message):
            recover_s(StubOracle(), z, rng=np.random.default_rng(4))

    def test_non_finite_values_are_rejected(self):
        # An infinite value makes the solution NaN, which every comparison
        # with a tolerance must reject rather than let through.
        from gradleak.errors import SignRecoveryError

        class InfOracle:
            def value(self, x):
                return math.inf

        with pytest.raises(SignRecoveryError, match=r"entry 0 = nan is not near an integer"):
            recover_s(InfOracle(), np.eye(2), rng=np.random.default_rng(4))
