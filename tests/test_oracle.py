"""Query metering, finite-difference estimation, and smoothed gradients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradleak import (
    FiniteDiffConfig,
    Oracle,
    SmoothGradConfig,
    TwoLayerNet,
    cell_mask,
    generate_random_net,
    grad_target,
)


def two_unit_net(w=(1.0, -1.0)):
    return TwoLayerNet(A=np.eye(2), w=np.array(w))


class TestCounters:
    def test_value_query(self):
        oracle = Oracle(two_unit_net())
        assert oracle.value((2.0, 3.0)) == pytest.approx(-1.0)
        assert oracle.ledger.value_queries == 1 and oracle.ledger.gradient_queries == 0

    def test_value_query_at_zero(self):
        oracle = Oracle(two_unit_net())
        assert oracle.value(np.zeros(2)) == 0.0
        assert oracle.ledger.value_queries == 1

    def test_two_calls_add_two(self):
        oracle = Oracle(two_unit_net())
        oracle.value((1.0, 1.0))
        oracle.value((1.0, 2.0))
        assert oracle.ledger.value_queries == 2

    def test_gradient_counting(self):
        oracle = Oracle(two_unit_net())
        assert_allclose(oracle.gradient((2.0, 3.0)), [1.0, -1.0])
        assert_allclose(oracle.gradient((-1.0, -1.0)), [0.0, 0.0])
        for _ in range(3):
            oracle.gradient((1.0, 1.0))
        assert oracle.ledger.gradient_queries == 5
        assert oracle.ledger.value_queries == 0


class TestFiniteDifference:
    def test_hand_case_same_cell(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        grad = Oracle(net, "membership").gradient((1.0, 2.0), eta=0.01)
        assert_allclose(grad, [1.0, 1.0], rtol=1e-12)

    def test_cost_is_d_plus_one_values(self):
        net = generate_random_net(7, 3, seed=0)
        oracle = Oracle(net, "membership")
        oracle.gradient(np.ones(7), eta=1e-3)
        assert oracle.ledger.value_queries == 8
        assert oracle.ledger.gradient_queries == 0

    def test_matches_exact_gradient_off_hyperplanes(self):
        rng = np.random.default_rng(1)
        net = generate_random_net(10, 5, seed=1)
        eta = 1e-2
        checked = 0
        while checked < 50:
            x = rng.standard_normal(10)
            if np.min(np.abs(net.A @ x)) <= eta:
                continue
            checked += 1
            approx = Oracle(net, "membership").gradient(x, eta=eta)
            exact = grad_target(net, x)
            assert np.max(np.abs(approx - exact)) <= 1e-9 * (1.0 + np.max(np.abs(exact)))

    def test_within_cell_exactness_requires_shared_mask(self):
        rng = np.random.default_rng(2)
        net = generate_random_net(6, 4, seed=2)
        eta = 1e-3
        checked = 0
        while checked < 30:
            x = rng.standard_normal(6)
            probes = [x] + [x + eta * e for e in np.eye(6)]
            masks = {tuple(cell_mask(net, p)) for p in probes}
            if len(masks) != 1:
                continue
            checked += 1
            approx = Oracle(net, "membership").gradient(x, eta=eta)
            exact = grad_target(net, x)
            assert np.max(np.abs(approx - exact)) <= 1e-9 * (1.0 + np.max(np.abs(exact)))

    def test_bad_eta(self):
        for eta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                FiniteDiffConfig(eta=eta)
        with pytest.raises(ValueError):
            Oracle(two_unit_net(), "membership").gradient((1.0, 2.0), eta=0.0)


class TestSmoothGrad:
    def test_zero_sigma_equals_exact(self):
        net = generate_random_net(5, 3, seed=3)
        oracle = Oracle(net, "smoothgrad", sg=SmoothGradConfig(sigma=0.0, n_samples=10, seed=0))
        x = np.array([0.3, -0.2, 1.0, 0.4, -0.9])
        got = oracle.gradient(x)
        assert np.array_equal(got, grad_target(net, x))
        assert oracle.ledger.gradient_queries == 1
        assert oracle.ledger.value_queries == 0

    def test_deep_cell_average_is_exact(self):
        net = TwoLayerNet(A=np.array([[1.0, 0.0]]), w=np.array([1.0]))
        cfg = SmoothGradConfig(sigma=0.1, n_samples=10, seed=4)
        x = np.array([10.0, 0.0])
        # All perturbations keep the unit active: x1 + z > 0 for |z| << 10.
        rng_check = np.random.default_rng(4)
        zs = np.array([rng_check.normal(0.0, 0.1, size=2) for _ in range(10)])
        assert np.all(10.0 + zs[:, 0] > 0)
        got = Oracle(net, "smoothgrad", sg=cfg).gradient(x)
        assert_allclose(got, [1.0, 0.0], atol=1e-15)

    def test_single_sample_zero_sigma_is_exact(self):
        net = generate_random_net(4, 2, seed=5)
        x = np.ones(4)
        sg = SmoothGradConfig(sigma=0.0, n_samples=1, seed=1)
        got = Oracle(net, "smoothgrad", sg=sg).gradient(x)
        assert np.array_equal(got, grad_target(net, x))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmoothGradConfig(sigma=-0.1)
        for sigma in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SmoothGradConfig(sigma=sigma)
        with pytest.raises(ValueError):
            SmoothGradConfig(n_samples=0)


class TestOracleDispatch:
    def test_grad_mode_counts(self):
        net = generate_random_net(6, 3, seed=6)
        oracle = Oracle(net, mode="grad")
        oracle.gradient(np.ones(6))
        oracle.value(np.ones(6))
        assert oracle.ledger.gradient_queries == 1
        assert oracle.ledger.value_queries == 1

    def test_membership_mode_serves_gradients_from_values(self):
        net = generate_random_net(6, 3, seed=7)
        oracle = Oracle(net, mode="membership")
        x = 3.0 * np.ones(6)
        grad, val = oracle.gradient_with_value(x, eta=1e-3)
        assert oracle.ledger.gradient_queries == 0
        assert oracle.ledger.value_queries == 7
        assert val == pytest.approx(float(np.maximum(net.A @ x, 0.0) @ net.w))
        assert grad.shape == (6,)

    def test_per_call_eta_override(self):
        net = generate_random_net(4, 2, seed=8)
        oracle = Oracle(net, mode="membership")
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4)
        if np.min(np.abs(net.A @ x)) <= 1e-2:
            x = x + 0.5
        grad = oracle.gradient(x, eta=1e-2)
        assert np.max(np.abs(grad - grad_target(net, x))) <= 1e-8

    def test_gradient_is_constant_inside_a_cell(self):
        rng = np.random.default_rng(9)
        net = generate_random_net(8, 4, seed=9)
        oracle = Oracle(net, mode="grad")
        found = 0
        while found < 20:
            x, y = rng.standard_normal((2, 8))
            if cell_mask(net, x).tolist() != cell_mask(net, y).tolist():
                continue
            seg_ok = all(
                cell_mask(net, theta * x + (1 - theta) * y).tolist() == cell_mask(net, x).tolist()
                for theta in (0.25, 0.5, 0.75)
            )
            if not seg_ok:
                continue
            found += 1
            assert np.array_equal(oracle.gradient(x), oracle.gradient(y))

    def test_rejects_unknown_mode(self):
        net = generate_random_net(3, 2, seed=10)
        with pytest.raises(ValueError):
            Oracle(net, mode="labels")
