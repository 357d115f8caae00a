"""Closed-form sign-query points: ZX = diag(sigma)(I + J)."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradleak import GeometryError, generate_random_net, sign_query_points


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
        # h = d is the worst-conditioned shape the forward substitution sees.
        z = weighted_normals(32, 32, seed=6)
        x, sigma = sign_query_points(z, np.random.default_rng(6))
        assert_allclose(z @ x, target(sigma), rtol=1e-9, atol=1e-9)

    def test_tiny_pivot_rejected(self):
        # Row 1 clears the span test (1e-8 > 1e-9 |z_1|) but its pivot is
        # below SINGULAR_PIVOT_TOL times the largest entry of L (1e-10 * 1e3).
        z = np.zeros((2, 6))
        z[0, 0] = 1e3
        z[1, 0] = 1.0
        z[1, 1] = 1e-8
        with pytest.raises(GeometryError, match="ill-conditioned"):
            sign_query_points(z, np.random.default_rng(7))
