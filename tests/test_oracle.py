"""Query metering, the attacker's finite-difference estimation, and smoothed gradients."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradleak import (
    FiniteDiffConfig,
    Oracle,
    SmoothGradConfig,
    TwoLayerNet,
    cell_mask,
    eval_target,
    generate_random_net,
    grad_target,
)
from gradleak.extraction import finite_differences
from gradleak.oracle import ORACLE_MODES


def two_unit_net(w=(1.0, -1.0)):
    return TwoLayerNet(A=np.eye(2), w=np.array(w))


class TestCounters:
    def test_value_query(self):
        oracle = Oracle(two_unit_net())
        assert oracle.values([(2.0, 3.0)])[0] == pytest.approx(-1.0)
        assert oracle.ledger.value_queries == 1 and oracle.ledger.gradient_queries == 0

    def test_value_query_at_zero(self):
        oracle = Oracle(two_unit_net())
        assert oracle.values(np.zeros((1, 2)))[0] == 0.0
        assert oracle.ledger.value_queries == 1

    def test_two_calls_add_two(self):
        oracle = Oracle(two_unit_net())
        oracle.values([(1.0, 1.0)])
        oracle.values([(1.0, 2.0)])
        assert oracle.ledger.value_queries == 2

    def test_gradient_counting(self):
        oracle = Oracle(two_unit_net())
        assert_allclose(oracle.gradients([(2.0, 3.0)])[0], [1.0, -1.0])
        assert_allclose(oracle.gradients([(-1.0, -1.0)])[0], [0.0, 0.0])
        for _ in range(3):
            oracle.gradients([(1.0, 1.0)])
        assert oracle.ledger.gradient_queries == 5
        assert oracle.ledger.value_queries == 0


class TestFiniteDifference:
    """finite_differences: the attacker's gradient estimate from one values request."""

    def test_hand_case_same_cell(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        grads, values = finite_differences(Oracle(net, "membership"), [[1.0, 2.0]], 0.01)
        assert_allclose(grads[0], [1.0, 1.0], rtol=1e-12)
        assert values.tolist() == [3.0]

    def test_cost_is_d_plus_one_values(self):
        net = generate_random_net(7, 3, seed=0)
        oracle = Oracle(net, "membership")
        finite_differences(oracle, np.ones((1, 7)), 1e-3)
        assert (oracle.ledger.value_queries, oracle.ledger.gradient_queries, oracle.ledger.rounds) == (8, 0, 1)

    def test_matches_exact_gradient_off_hyperplanes(self):
        # The request evaluates [x; x + eta I] as one block; the reference is
        # the per-coordinate loop of single-point evaluations it replaced.
        rng = np.random.default_rng(1)
        net = generate_random_net(10, 5, seed=1)
        eta = 1e-2
        checked = 0
        while checked < 50:
            x = rng.standard_normal(10)
            if np.min(np.abs(net.A @ x)) <= eta:
                continue
            checked += 1
            oracle = Oracle(net, "membership")
            (approx,), (base,) = finite_differences(oracle, x[None], eta)
            assert (oracle.ledger.value_queries, oracle.ledger.gradient_queries) == (11, 0)
            ref_base = eval_target(net, x)
            ref = np.array([(eval_target(net, x + eta * e) - ref_base) / eta for e in np.eye(10)])
            exact = grad_target(net, x)
            for want in (ref, exact):
                assert np.max(np.abs(approx - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))
            assert abs(base - ref_base) <= 1e-12 * abs(ref_base)

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
            approx = finite_differences(Oracle(net, "membership"), x[None], eta)[0][0]
            exact = grad_target(net, x)
            assert np.max(np.abs(approx - exact)) <= 1e-9 * (1.0 + np.max(np.abs(exact)))

    def test_rows_are_per_point_value_differences(self):
        # k points, one round of k(d+1) values: each row's f(x) and each
        # difference f(x + eta e_j) - f(x) match single-point evaluations.
        net = generate_random_net(8, 4, seed=35)
        X = np.random.default_rng(35).standard_normal((6, 8))
        eta = 1e-5
        oracle = Oracle(net, "membership")
        grads, values = finite_differences(oracle, X, eta)
        assert (oracle.ledger.value_queries, oracle.ledger.gradient_queries, oracle.ledger.rounds) == (6 * 9, 0, 1)
        assert len(grads) == len(values) == 6
        for g, f, x in zip(grads, values, X):
            base = eval_target(net, x)
            diffs = np.array([eval_target(net, x + eta * e) - base for e in np.eye(8)])
            assert abs(f - base) <= 1e-12
            assert np.max(np.abs(eta * g - diffs)) <= 1e-12

    def test_bad_eta(self):
        for eta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                FiniteDiffConfig(eta=eta)
        # The step is the attacker's: no oracle request takes one.
        with pytest.raises(TypeError):
            Oracle(two_unit_net()).gradients([(1.0, 2.0)], eta=1e-3)


def exact_oracle(net, mode):
    """An oracle in one of the two exact modes: grad, or smoothgrad at sigma=0."""
    return Oracle(net, mode, sg=SmoothGradConfig(sigma=0.0, n_samples=4, seed=0))


@pytest.mark.parametrize("mode", ["grad", "smoothgrad"])
class TestCellGradients:
    def test_bytes_match_grad_target(self, mode):
        rng = np.random.default_rng(20)
        net = generate_random_net(8, 5, seed=20)
        oracle = exact_oracle(net, mode)
        # Many points over few cells, so most answers come from the table.
        for x in rng.standard_normal((200, 8)):
            assert oracle.gradients(x[None])[0].tobytes() == grad_target(net, x).tobytes()
        assert oracle.ledger.gradient_queries == 200

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_bytes_match_on_a_hyperplane(self, mode, zero):
        # A pre-activation of exactly +-0 counts as active, as in grad_target.
        net = TwoLayerNet(A=np.eye(3), w=np.array([1.5, -2.0, 0.5]))
        x = np.array([zero, 1.0, -1.0])
        assert (net.A @ x)[0] == 0.0
        oracle = exact_oracle(net, mode)
        assert oracle.gradients(x[None])[0].tobytes() == grad_target(net, x).tobytes()
        assert oracle.gradients([[-zero, 2.0, -3.0]])[0].tobytes() == grad_target(net, x).tobytes()

    def test_same_cell_returns_same_object(self, mode):
        net = two_unit_net()
        oracle = exact_oracle(net, mode)
        first = oracle.gradients([(1.0, 2.0)])[0]
        assert oracle.gradients([(3.0, 0.5)])[0] is first
        assert oracle.ledger.gradient_queries == 2
        assert oracle.gradients([(1.0, -2.0)])[0] is not first

    def test_returned_array_is_read_only(self, mode):
        oracle = exact_oracle(two_unit_net(), mode)
        grad = oracle.gradients([(1.0, 2.0)])[0]
        with pytest.raises(ValueError):
            grad[0] = 7.0
        assert_allclose(oracle.gradients([(1.0, 2.0)])[0], [1.0, -1.0])


def test_smoothed_gradient_is_fresh_and_writable():
    net = TwoLayerNet(A=np.array([[1.0, 0.0]]), w=np.array([1.0]))
    oracle = Oracle(net, "smoothgrad", sg=SmoothGradConfig(sigma=0.1, n_samples=3, seed=4))
    x = np.array([10.0, 0.0])
    first, second = oracle.gradients(x[None])[0], oracle.gradients(x[None])[0]
    assert first is not second
    first[0] = 7.0
    assert_allclose(second, [1.0, 0.0], atol=1e-15)


class TestSmoothGrad:
    def test_zero_sigma_equals_exact(self):
        net = generate_random_net(5, 3, seed=3)
        oracle = Oracle(net, "smoothgrad", sg=SmoothGradConfig(sigma=0.0, n_samples=10, seed=0))
        x = np.array([0.3, -0.2, 1.0, 0.4, -0.9])
        got = oracle.gradients(x[None])[0]
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
        got = Oracle(net, "smoothgrad", sg=cfg).gradients(x[None])[0]
        assert_allclose(got, [1.0, 0.0], atol=1e-15)

    def test_single_sample_zero_sigma_is_exact(self):
        net = generate_random_net(4, 2, seed=5)
        x = np.ones(4)
        sg = SmoothGradConfig(sigma=0.0, n_samples=1, seed=1)
        got = Oracle(net, "smoothgrad", sg=sg).gradients(x[None])[0]
        assert np.array_equal(got, grad_target(net, x))

    def test_blurred_average_matches_per_sample_gradients(self):
        # One (n_samples, d) block of draws, one product with A; the reference
        # is the mean of per-sample exact gradients on the same seeded draws.
        net = generate_random_net(6, 4, seed=3)
        x = np.array([0.3, -0.2, 1.0, 0.4, -0.9, 0.1])
        oracle = Oracle(net, "smoothgrad", sg=SmoothGradConfig(sigma=0.5, n_samples=16, seed=7))
        draws = np.random.default_rng(7)
        for _ in range(5):
            got = oracle.gradients(x[None])[0]
            ref = np.mean([grad_target(net, x + draws.normal(0.0, 0.5, size=6)) for _ in range(16)], axis=0)
            assert np.max(np.abs(got - ref)) <= 1e-12
        assert (oracle.ledger.gradient_queries, oracle.ledger.value_queries) == (5, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmoothGradConfig(sigma=-0.1)
        for sigma in (float("nan"), float("inf")):
            with pytest.raises(ValueError) as info:
                SmoothGradConfig(sigma=sigma)
            assert str(info.value) == f"sigma must lie in [0, inf), got {sigma!r}"
        with pytest.raises(ValueError):
            SmoothGradConfig(n_samples=0)
        # sigma=True ran with sigma = 1.
        for sigma in (True, np.True_):
            with pytest.raises(ValueError, match="sigma must be a number, not a bool"):
                SmoothGradConfig(sigma=sigma)
        # A bool is refused, though Python counts True as the integer 1.
        for n_samples in (2.5, True):
            with pytest.raises(ValueError, match="integer"):
                SmoothGradConfig(n_samples=n_samples)
        assert SmoothGradConfig(n_samples=np.int64(3)).n_samples == 3
        # A seed the oracle's generator cannot take is refused by the config.
        for seed in (-1, 1.5, np.int64(-2), "0", True, False):
            with pytest.raises(ValueError, match="seed"):
                SmoothGradConfig(sigma=0.1, seed=seed)
        for seed in (None, 0, np.uint32(7)):
            Oracle(generate_random_net(3, 2, seed=0), "smoothgrad", sg=SmoothGradConfig(sigma=0.1, seed=seed))


class TestOracleDispatch:
    def test_grad_mode_counts(self):
        net = generate_random_net(6, 3, seed=6)
        oracle = Oracle(net, mode="grad")
        oracle.gradients(np.ones((1, 6)))
        oracle.values(np.ones((1, 6)))
        assert oracle.ledger.gradient_queries == 1
        assert oracle.ledger.value_queries == 1

    def test_membership_mode_refuses_gradients(self):
        # A membership oracle serves values only: a gradient request is
        # refused before anything is metered.
        net = generate_random_net(6, 3, seed=7)
        oracle = Oracle(net, mode="membership")
        x = 3.0 * np.ones(6)
        with pytest.raises(ValueError, match="serves values only"):
            oracle.gradients(x[None])
        assert (oracle.ledger.gradient_queries, oracle.ledger.value_queries, oracle.ledger.rounds) == (0, 0, 0)
        assert oracle.values(x[None])[0] == pytest.approx(float(np.maximum(net.A @ x, 0.0) @ net.w))
        assert (oracle.ledger.gradient_queries, oracle.ledger.value_queries, oracle.ledger.rounds) == (0, 1, 1)

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
            assert np.array_equal(oracle.gradients(x[None])[0], oracle.gradients(y[None])[0])

    @pytest.mark.parametrize("mode, sigma", [("grad", 0.0), ("membership", 0.0), ("smoothgrad", 0.0), ("smoothgrad", 0.1)])
    def test_wrong_shape_point_is_refused(self, mode, sigma):
        # A one-row request whose point has the wrong shape; a membership
        # oracle refuses every gradient request, so its values are checked.
        oracle = Oracle(generate_random_net(4, 2, seed=8), mode, sg=SmoothGradConfig(sigma=sigma, n_samples=3, seed=0))
        request = oracle.values if mode == "membership" else oracle.gradients
        for x in (np.ones(3), np.ones((4, 1)), np.ones(5)):
            with pytest.raises(ValueError, match=r"points must have shape \(k, 4\)"):
                request(x[None])
        assert (oracle.ledger.gradient_queries, oracle.ledger.value_queries) == (0, 0)

    @pytest.mark.parametrize(
        "mode, sigma, expected",
        [
            ("grad", 0.5, (True, 0.0)),
            ("smoothgrad", 0.0, (True, 0.0)),
            ("smoothgrad", 1e-300, (False, 1e-300)),
            ("smoothgrad", 0.5, (False, 0.5)),
            ("membership", 0.0, (False, 0.0)),
            ("membership", 0.5, (False, 0.0)),
        ],
    )
    def test_oracle_declares_how_its_gradients_compare(self, mode, sigma, expected):
        # The search's cell test reads exact and its probe margin sigma. Any
        # blur, however small, leaves the cell arrays: the tolerance path.
        oracle = Oracle(two_unit_net(), mode, sg=SmoothGradConfig(sigma=sigma, n_samples=3, seed=0))
        assert (oracle.exact, oracle.sigma) == expected

    def test_rejects_unknown_mode(self):
        net = generate_random_net(3, 2, seed=10)
        with pytest.raises(ValueError):
            Oracle(net, mode="labels")


class TestBatchedGradients:
    """gradients(X) and values(X): one request, one round, for the k rows of X."""

    @pytest.mark.parametrize(
        "mode, sigma, gradient_queries, value_queries",
        [("grad", 0.0, 5, 0), ("smoothgrad", 0.0, 5, 0), ("smoothgrad", 0.2, 5, 0), ("membership", 0.0, 0, 5 * 9)],
    )
    def test_metering_per_mode(self, mode, sigma, gradient_queries, value_queries):
        net = generate_random_net(8, 4, seed=30)
        oracle = Oracle(net, mode, sg=SmoothGradConfig(sigma=sigma, n_samples=3, seed=0))
        X = np.random.default_rng(30).standard_normal((5, 8))
        # A membership oracle serves values only: the attacker's gradients are finite differences.
        grads = finite_differences(oracle, X, 1e-5)[0] if mode == "membership" else oracle.gradients(X)
        assert len(grads) == 5 and all(g.shape == (8,) for g in grads)
        ledger = oracle.ledger
        assert (ledger.gradient_queries, ledger.value_queries, ledger.rounds) == (gradient_queries, value_queries, 1)

    def test_values_are_one_round_in_every_mode(self):
        net = generate_random_net(8, 4, seed=31)
        X = np.random.default_rng(31).standard_normal((4, 8))
        for mode in ORACLE_MODES:
            oracle = Oracle(net, mode, sg=SmoothGradConfig(sigma=0.2, n_samples=3, seed=0))
            values = oracle.values(X)
            assert_allclose(values, [eval_target(net, x) for x in X], rtol=1e-14)
            assert (oracle.ledger.gradient_queries, oracle.ledger.value_queries, oracle.ledger.rounds) == (0, 4, 1)

    @pytest.mark.parametrize("mode", ["grad", "smoothgrad"])
    def test_exact_rows_are_the_cell_arrays(self, mode):
        net = generate_random_net(8, 5, seed=32)
        oracle = exact_oracle(net, mode)
        X = np.random.default_rng(32).standard_normal((40, 8))
        grads = oracle.gradients(X)
        assert all(g is oracle.gradients(x[None])[0] for g, x in zip(grads, X))
        assert all(g.tobytes() == grad_target(net, x).tobytes() and not g.flags.writeable for g, x in zip(grads, X))
        assert (oracle.ledger.gradient_queries, oracle.ledger.rounds) == (80, 41)

    def test_membership_rows_match_single_requests(self):
        net = generate_random_net(8, 4, seed=33)
        X = np.random.default_rng(33).standard_normal((6, 8))
        batch = Oracle(net, "membership")
        grads, values = finite_differences(batch, X, 1e-5)
        single = Oracle(net, "membership")
        for g, f, x in zip(grads, values, X):
            (g1,), (f1,) = finite_differences(single, x[None], 1e-5)
            assert_allclose(g, g1, rtol=0.0, atol=1e-9)
            assert f == pytest.approx(f1, rel=1e-14)
        assert batch.ledger.value_queries == single.ledger.value_queries == 6 * 9
        assert (batch.ledger.rounds, single.ledger.rounds) == (1, 6)

    def test_blurred_draws_follow_the_row_order(self):
        # One (n_samples, d) block per row, drawn in row order: the same
        # stream as one request per row on a same-seed oracle.
        net = generate_random_net(6, 4, seed=34)
        X = np.random.default_rng(34).standard_normal((5, 6))
        sg = SmoothGradConfig(sigma=0.5, n_samples=4, seed=9)
        batch, single = Oracle(net, "smoothgrad", sg=sg), Oracle(net, "smoothgrad", sg=sg)
        for g, x in zip(batch.gradients(X), X):
            assert_allclose(g, single.gradients(x[None])[0], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_blurred_request_holds_one_rows_draws(self, k):
        # The draws are made and reduced row by row, so a k-row request's
        # traced peak stays near one (n_samples, d) block, 512 KiB here.
        d, n = 256, 256
        net = generate_random_net(d, 4, seed=35)
        oracle = Oracle(net, "smoothgrad", sg=SmoothGradConfig(sigma=0.5, n_samples=n, seed=10))
        X = np.random.default_rng(35).standard_normal((k, d))
        tracemalloc.start()
        try:
            oracle.gradients(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * d * 8

    @pytest.mark.parametrize("mode", ["grad", "membership"])
    def test_wrong_shape_batch_is_refused(self, mode):
        oracle = Oracle(generate_random_net(4, 2, seed=8), mode)
        # A membership oracle refuses every gradient request; its values check the shape.
        for request in (oracle.values, oracle.gradients) if mode == "grad" else (oracle.values,):
            for X in (np.ones(4), np.ones((2, 3)), np.ones((1, 2, 4))):
                with pytest.raises(ValueError, match=r"points must have shape \(k, 4\)"):
                    request(X)
        assert (oracle.ledger.gradient_queries, oracle.ledger.value_queries, oracle.ledger.rounds) == (0, 0, 0)
