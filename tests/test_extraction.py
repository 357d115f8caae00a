"""Parameter selection, crossing search, sign recovery, and the full attack."""

import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradleak import (
    ExtractionConfig,
    ExtractionFailure,
    GradleakError,
    Oracle,
    SmoothGradConfig,
    TwoLayerNet,
    binary_search_segment,
    eval_target,
    functional_equivalence,
    generate_random_net,
    learn_model,
    match_rows,
    membership_step_bound,
    recover_s,
    recover_z,
    select_parameters,
)
from gradleak import extraction
from gradleak.extraction import GRAD_CHANGE_TOL, _gradient_attempt
from gradleak.model import eval_recovered_batch


def single_unit_net():
    return TwoLayerNet(A=np.array([[1.0, 0.0]]), w=np.array([2.0]))


class TestSelectParameters:
    def test_moderate_budget(self):
        eps, l = select_parameters(0.1, 0.5, 2)
        assert l == 26
        assert eps == pytest.approx(7.764e-5, rel=1e-3)

    def test_loose_budget(self):
        eps, l = select_parameters(0.5, 1.0, 1)
        assert l == 3
        assert eps == pytest.approx(0.013889, rel=1e-3)

    def test_epsilon_decreases_in_h(self):
        values = [select_parameters(0.1, 0.5, h)[0] for h in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_budget_split_is_respected(self):
        for delta, c, h in [(0.1, 0.5, 2), (0.05, 0.01, 8), (0.3, 1.0, 5)]:
            eps, l = select_parameters(delta, c, h)
            gap_term = 3.0 ** (4.0 / 3.0) * (eps / c) ** (2.0 / 3.0) * h * h
            tail_term = 2.0 * h / (math.pi * l)
            assert gap_term <= delta / 2.0 + 1e-12
            assert tail_term <= delta / 2.0 + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            select_parameters(0.0, 0.5, 2)
        with pytest.raises(ValueError):
            select_parameters(0.1, 1.5, 2)
        with pytest.raises(ValueError):
            select_parameters(0.1, 0.5, 0)


class TestConfig:
    def test_defaults_filled(self):
        cfg = ExtractionConfig(h=4, delta=0.2, c=0.3)
        eps, l = select_parameters(0.2, 0.3, 4)
        assert cfg.epsilon == eps and cfg.l == l

    def test_explicit_override(self):
        cfg = ExtractionConfig(h=2, epsilon=0.01, l=5.0)
        assert cfg.epsilon == 0.01 and cfg.l == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtractionConfig(h=0)
        with pytest.raises(ValueError):
            ExtractionConfig(h=2, delta=1.5)
        with pytest.raises(ValueError):
            ExtractionConfig(h=2, epsilon=10.0, l=1.0)
        with pytest.raises(ValueError):
            ExtractionConfig(h=2, max_retries=-1)

    @pytest.mark.parametrize(
        "override", [{"l": math.inf}, {"l": math.nan}, {"epsilon": math.inf}, {"epsilon": math.nan}]
    )
    def test_non_finite_range_refused(self, override):
        # A search at +-inf would warn inside the oracle and then fail as
        # "fewer than h crossings", blaming the instance for a usage error.
        with pytest.raises(ValueError, match="positive and finite"):
            ExtractionConfig(h=2, **override)

    def test_membership_step_formula(self):
        assert membership_step_bound(0.1, 7.764e-5, 26, 2) == pytest.approx(
            0.1 * 7.764e-5 / (2 * 1.9 * 26 * 2)
        )


def _bracket(oracle, u, v, t_lo, t_hi):
    """The floor and the stack of points past it for a search of [t_lo, t_hi]."""
    return (t_lo, oracle.gradient(u + t_lo * v)), [(t_hi, oracle.gradient(u + t_hi * v))]


class TestBinarySearchSegment:
    def test_single_crossing_exact_row(self):
        net = single_unit_net()
        oracle = Oracle(net)
        u = np.array([-0.5, 0.0])
        v = np.array([1.0, 0.0])  # crossing at t = 0.5
        floor, above = _bracket(oracle, u, v, -2.0, 2.0)
        row, (t, _) = binary_search_segment(oracle, u, v, floor, above, 0.01)
        assert_allclose(np.abs(row), [2.0, 0.0], atol=1e-12)
        assert 0.5 - 1e-12 <= t <= 0.51

    def test_no_crossing_fails(self):
        net = single_unit_net()
        oracle = Oracle(net)
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])  # <A, u + t v> = 1, never zero
        floor, above = _bracket(oracle, u, v, -2.0, 2.0)
        with pytest.raises(ExtractionFailure, match="fewer than h crossings"):
            binary_search_segment(oracle, u, v, floor, above, 0.01)
        # Equal end gradients certify the empty bracket without a midpoint.
        assert oracle.ledger.gradient_queries == 2

    def test_narrow_bracket_returns_immediately(self):
        net = single_unit_net()
        oracle = Oracle(net)
        u = np.array([-0.5, 0.0])
        v = np.array([1.0, 0.0])
        floor, above = _bracket(oracle, u, v, 0.498, 0.505)
        row, (t, _) = binary_search_segment(oracle, u, v, floor, above, 0.01)
        assert t == 0.505
        assert_allclose(row, [2.0, 0.0])
        assert oracle.ledger.gradient_queries == 2

    def test_gradient_caching_across_searches(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        oracle = Oracle(net)
        u = np.array([-0.5, -0.25])
        v = np.array([1.0, 1.0])  # crossings at t = 0.25 and t = 0.5
        floor, above = _bracket(oracle, u, v, -2.0, 2.0)
        _, floor = binary_search_segment(oracle, u, v, floor, above, 0.01)
        first = oracle.ledger.gradient_queries
        # The first search passed t = 0.5 on its way down; that is the
        # tightest queried bound on the second crossing.
        assert above[-1][0] == 0.5
        row, (t, _) = binary_search_segment(oracle, u, v, floor, above, 0.01)
        steps = math.ceil(math.log2((0.5 - floor[0]) / 0.01))
        assert oracle.ledger.gradient_queries - first == steps
        assert steps < math.ceil(math.log2((2.0 - floor[0]) / 0.01))
        assert_allclose(np.abs(row), [1.0, 0.0])
        assert 0.5 <= t <= 0.51


class TestRecoverZ:
    def test_single_unit_weighted_normal(self):
        net = single_unit_net()
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=1, delta=0.2, c=0.5, seed=3)
        res = recover_z(oracle, cfg)
        assert res.Z.shape == (1, 2)
        assert_allclose(np.abs(res.Z[0]), [2.0, 0.0], atol=1e-7)

    def test_hand_probe_rows_in_crossing_order(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=2, epsilon=0.01, l=2.0, seed=0)
        u = np.array([-0.5, -0.25])
        v = np.array([1.0, 1.0])  # crossings: unit 1 at t=0.5, unit 2 at t=0.25
        z, crossings = _gradient_attempt(oracle, u, v, cfg)
        assert_allclose(np.abs(z[0]), [0.0, 1.0], atol=1e-12)
        assert_allclose(np.abs(z[1]), [1.0, 0.0], atol=1e-12)
        assert 0.25 <= crossings[0] <= 0.26
        assert 0.5 <= crossings[1] <= 0.51

    def test_rows_ordered_by_analytic_crossings(self):
        net = generate_random_net(12, 5, seed=21)
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=5, delta=0.1, c=0.01, seed=4)
        res = recover_z(oracle, cfg)
        t = -(net.A @ res.u) / (net.A @ res.v)
        order = np.argsort(t)
        assert np.all(np.abs(t[order]) <= cfg.l)
        for i, unit in enumerate(order):
            target = net.w[unit] * net.A[unit]
            err = min(
                np.max(np.abs(res.Z[i] - target)), np.max(np.abs(res.Z[i] + target))
            )
            assert err <= 1e-9
        assert all(a < b for a, b in zip(res.crossings, res.crossings[1:]))

    def test_query_budget(self):
        net = generate_random_net(16, 6, seed=5)
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=6, delta=0.1, c=0.01, seed=6)
        res = recover_z(oracle, cfg)
        if res.retries == 0:
            steps = math.ceil(math.log2(2 * cfg.l / cfg.epsilon))
            assert oracle.ledger.gradient_queries <= 3 * 6 * steps + 2 * 6

    def test_out_of_range_crossings_exhaust_retries(self):
        net = single_unit_net()
        oracle = Oracle(net)
        # A tiny search range almost never brackets the Cauchy crossing.
        cfg = ExtractionConfig(h=1, epsilon=1e-4, l=1e-3, seed=7, max_retries=3)
        with pytest.raises(ExtractionFailure):
            recover_z(oracle, cfg)

    def test_retry_counter_reflects_failed_attempts(self):
        net = single_unit_net()
        # l=1 brackets the crossing about half the time, so some seed in a
        # short scan retries at least once and then succeeds.
        found = False
        for seed in range(40):
            oracle = Oracle(net)
            cfg = ExtractionConfig(h=1, epsilon=1e-4, l=1.0, seed=seed, max_retries=5)
            try:
                res = recover_z(oracle, cfg)
            except ExtractionFailure:
                continue
            if res.retries > 0:
                found = True
                assert len(res.crossings) == 1
                break
        assert found


def _independent_bisection_attempt(oracle, u, v, cfg):
    """Reference: each crossing bisects [floor, +l] afresh, reusing only
    gradients queried at exactly the same t."""
    grads = {}

    def grad_at(t):
        if t not in grads:
            grads[t] = oracle.gradient(u + t * v)
        return grads[t]

    def changed(g0, g1):
        return np.linalg.norm(g0 - g1) > GRAD_CHANGE_TOL

    floor, rows, crossings = -float(cfg.l), [], []
    for _ in range(cfg.h):
        t_l, t_r = floor, float(cfg.l)
        while t_r - t_l > cfg.epsilon:
            t_m = 0.5 * (t_l + t_r)
            g_l, g_m, g_r = grad_at(t_l), grad_at(t_m), grad_at(t_r)
            if changed(g_l, g_m):
                t_r = t_m
            elif changed(g_m, g_r):
                t_l = t_m
            else:
                raise ExtractionFailure("no gradient change in either half-bracket")
        row = grad_at(t_r) - grad_at(t_l)
        if not changed(row, 0.0):
            raise ExtractionFailure("located bracket shows no gradient change")
        rows.append(row)
        crossings.append(t_r)
        floor = t_r
    return np.vstack(rows), crossings


class TestSharedBracketSearch:
    def test_same_models_as_independent_bisection_with_fewer_queries(self, monkeypatch):
        # Each row is the gradient difference between the same two cells
        # whichever bracket isolates the crossing, so reusing queried points
        # may change the query count but never the model or the retries.
        def outcome(net, h, seed):
            oracle = Oracle(net)
            try:
                report = learn_model(oracle, ExtractionConfig(h, delta=0.1, c=0.01, seed=seed))
                result = (report.model.Z.tobytes(), report.model.s.tobytes(), report.retries)
            except GradleakError as err:
                result = (type(err).__name__, err.retries)
            return result, oracle.ledger.gradient_queries

        shared_total = reference_total = 0
        for d, h, count in [(16, 16, 16), (128, 8, 12), (32, 32, 12)]:
            for trial in range(count):
                net_seed, seed = (
                    int(s)
                    for s in np.random.SeedSequence([6100, d, h, trial]).generate_state(2, dtype=np.uint64)
                )
                net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
                shared, shared_queries = outcome(net, h, seed)
                with monkeypatch.context() as patch:
                    patch.setattr(extraction, "_gradient_attempt", _independent_bisection_attempt)
                    reference, reference_queries = outcome(net, h, seed)
                assert shared == reference, f"(d, h, trial) = ({d}, {h}, {trial})"
                assert shared_queries <= reference_queries
                shared_total += shared_queries
                reference_total += reference_queries
        assert shared_total < reference_total


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


class TestLearnModel:
    def test_single_unit_closed_form(self):
        net = single_unit_net()
        oracle = Oracle(net)
        report = learn_model(oracle, ExtractionConfig(h=1, delta=0.2, c=0.5, seed=10))
        pts = np.random.default_rng(11).standard_normal((1000, 2))
        got = eval_recovered_batch(report.model, pts)
        assert got == pytest.approx(2.0 * np.maximum(pts[:, 0], 0.0), abs=1e-7)

    def test_full_instance_grad_mode(self):
        net = generate_random_net(20, 8, seed=12)
        oracle = Oracle(net)
        report = learn_model(oracle, ExtractionConfig(h=8, delta=0.1, c=0.01, seed=13))
        match = match_rows(net, report.model.Z)
        assert match.max_row_error <= 1e-7
        assert report.gradient_queries >= 8
        # Ledger conservation: gradient mode spends values only on the 2h
        # sign-recovery equations.
        assert report.value_queries == 16

    @pytest.mark.parametrize(
        "d, h, net_seed, cfg_seed, gradient_queries, value_queries, retries",
        [
            (16, 16, 7000, 0, 920, 32, 1),
            (128, 8, 7001, 1, 220, 16, 0),
            (20, 8, 27, 3, 229, 16, 0),
        ],
    )
    def test_grad_query_counts_are_pinned(
        self, d, h, net_seed, cfg_seed, gradient_queries, value_queries, retries
    ):
        # Query counts are the attack's cost metric and deterministic for a
        # seed; a change in them must be explained, not absorbed.
        net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
        report = learn_model(Oracle(net), ExtractionConfig(h, delta=0.1, c=0.01, seed=cfg_seed))
        assert (report.gradient_queries, report.value_queries, report.retries) == (
            gradient_queries,
            value_queries,
            retries,
        )
        assert functional_equivalence(net, report.model, 4096, 1e-7, seed=0).passed

    @pytest.mark.parametrize(
        "mode, d, h, net_seed, gradient_queries, value_queries, retries, digest",
        [
            ("membership", 12, 4, 40, 0, 1443, 0, "e586431fb4cbab6302edfec4d8e533b2"),
            ("membership", 12, 4, 41, 0, 2604, 1, "dbd16bee976226ab44662080840c425e"),
            ("membership", 20, 8, 40, 0, 4939, 0, "f096c9b5cb41e33b40446391e3de66f1"),
            ("smoothgrad", 12, 4, 40, 105, 8, 0, "e09b6233b7280d7a722d72a0df03d18f"),
            ("smoothgrad", 12, 4, 42, 111, 8, 0, "8e7b4a5a70ad593e134c6ef4ee9c9f38"),
        ],
    )
    def test_membership_and_smoothgrad_outcomes_are_pinned(
        self, mode, d, h, net_seed, gradient_queries, value_queries, retries, digest
    ):
        # Like the grad pins, plus the bytes of (Z, s): the finite-difference
        # loop and the smoothing draws must keep their order.
        net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
        sg = SmoothGradConfig(sigma=1e-9, n_samples=3, seed=net_seed + 1)
        report = learn_model(
            Oracle(net, mode=mode, sg=sg), ExtractionConfig(h, delta=0.1, c=0.01, seed=net_seed + 2)
        )
        assert (report.gradient_queries, report.value_queries, report.retries) == (
            gradient_queries,
            value_queries,
            retries,
        )
        model = report.model
        blob = np.ascontiguousarray(model.Z).tobytes() + np.asarray(model.s, dtype=np.int64).tobytes()
        assert hashlib.sha256(blob).hexdigest()[:32] == digest

    def test_too_few_crossings_are_refused_without_a_query(self):
        # Once the last crossing on the line is found, the floor's gradient
        # equals the one already queried at +l: a second crossing is refused
        # on that certificate alone, after exactly the search one width costs.
        net = single_unit_net()

        def config(h):
            return ExtractionConfig(h=h, epsilon=1e-3, l=50.0, seed=3, max_retries=0)

        one = learn_model(Oracle(net), config(1))
        oracle = Oracle(net)
        with pytest.raises(ExtractionFailure, match="fewer than h crossings"):
            learn_model(oracle, config(2))
        # Sign recovery spends value queries only, so these are all search.
        assert oracle.ledger.gradient_queries == one.gradient_queries

    def test_first_attempt_failure_rate_within_budget(self):
        # With the true collinearity gap supplied, single attempts (no
        # retries) must fail at most delta plus sampling slack.
        trials = 100
        delta = 0.1
        failures = 0
        for trial in range(trials):
            net_seed, run_seed, _ = (
                int(s)
                for s in np.random.SeedSequence([900, trial]).generate_state(3, dtype=np.uint64)
            )
            net = generate_random_net(16, 6, c_min=0.1, w_min=0.1, seed=net_seed)
            oracle = Oracle(net)
            cfg = ExtractionConfig(h=6, delta=delta, c=0.1, seed=run_seed, max_retries=0)
            try:
                learn_model(oracle, cfg)
            except ExtractionFailure:
                failures += 1
        assert failures / trials <= delta + 3.0 * math.sqrt(delta / trials)

    def test_membership_mode_paired_with_grad(self):
        net = generate_random_net(20, 8, seed=14)
        grad_oracle = Oracle(net, mode="grad")
        grad_report = learn_model(grad_oracle, ExtractionConfig(h=8, seed=15))
        mem_oracle = Oracle(net, mode="membership")
        mem_report = learn_model(mem_oracle, ExtractionConfig(h=8, seed=15))
        assert mem_report.gradient_queries == 0
        ratio = mem_report.value_queries / grad_report.gradient_queries
        assert 0.9 * 20 <= ratio <= 1.1 * 21
        match = match_rows(net, mem_report.model.Z)
        assert match.max_row_error <= 1e-7
        for cg, cm in zip(grad_report.crossings, mem_report.crossings):
            assert abs(cg - cm) <= 2.0 * ExtractionConfig(h=8).epsilon + 1e-6

    def test_membership_thin_cell_is_retried_not_returned(self):
        # Net 27 of the membership acceptance batch has a cell about 1.4e-3
        # wide on the first search line; the finite-difference refinement
        # straddled its hyperplane and mixed two rows. The result must now
        # either verify or be an honest failure.
        from gradleak import GradleakError

        net_seed, run_seed, check_seed = (
            int(s) for s in np.random.SeedSequence([4001, 27]).generate_state(3, dtype=np.uint64)
        )
        net = generate_random_net(20, 8, c_min=0.1, w_min=0.1, seed=net_seed)
        oracle = Oracle(net, mode="membership")
        cfg = ExtractionConfig(h=8, delta=0.1, c=0.01, seed=run_seed)
        try:
            report = learn_model(oracle, cfg)
        except GradleakError:
            return
        eq = functional_equivalence(net, report.model, 10_000, 1e-7, seed=check_seed)
        assert eq.passed, f"verify error {eq.max_rel_error:.3e}"

    def test_failure_carries_phase_retries_and_crossings(self):
        from gradleak import GradleakError

        net = generate_random_net(12, 5, seed=1)
        with pytest.raises(GradleakError) as sign_err:
            learn_model(Oracle(net), ExtractionConfig(h=4, seed=0))
        assert sign_err.value.phase == "sign"
        assert sign_err.value.retries == 0
        assert len(sign_err.value.crossings) == 4

        cfg = ExtractionConfig(h=8, seed=0, max_retries=1)
        with pytest.raises(ExtractionFailure) as search_err:
            learn_model(Oracle(net), cfg)
        assert search_err.value.phase == "search"
        assert search_err.value.retries == 1
        assert search_err.value.crossings == []

    def test_wrong_width_signals_failure(self):
        from gradleak.errors import GeometryError, SignRecoveryError

        net = generate_random_net(12, 4, seed=16)
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=5, delta=0.1, c=0.01, seed=17, max_retries=2)
        with pytest.raises((ExtractionFailure, GeometryError, SignRecoveryError)):
            learn_model(oracle, cfg)

    def test_report_dict_schema(self):
        net = single_unit_net()
        oracle = Oracle(net)
        report = learn_model(oracle, ExtractionConfig(h=1, delta=0.2, c=0.5, seed=18))
        payload = report.report_dict()
        assert set(payload) == {
            "success",
            "retries",
            "gradient_queries",
            "value_queries",
            "crossings",
        }
        assert payload["success"] is True
        assert len(payload["crossings"]) == 1
