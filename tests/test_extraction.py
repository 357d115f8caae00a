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
    eval_target,
    functional_equivalence,
    generate_random_net,
    learn_model,
    match_rows,
    recover_s,
    recover_z,
    select_parameters,
)
from gradleak import extraction
from gradleak.extraction import GRAD_CHANGE_TOL, _mid, _search_line
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


def _attempt(net, u, v, h, epsilon, l=2.0):
    """One gradient-mode search pass on the line u + t v and its gradient queries."""
    oracle = Oracle(net)
    cfg = ExtractionConfig(h=h, epsilon=epsilon, l=l, seed=0)
    z, crossings = _search_line(oracle, np.asarray(u, float), np.asarray(v, float), cfg)
    return z, crossings, oracle.ledger.gradient_queries


def _refused(net, u, v, h, epsilon, message, mode="grad", l=2.0):
    """Queries one search pass on the line u + t v spends before it is refused."""
    oracle = Oracle(net, mode=mode)
    cfg = ExtractionConfig(h=h, epsilon=epsilon, l=l, seed=0)
    with pytest.raises(ExtractionFailure, match=message):
        _search_line(oracle, np.asarray(u, float), np.asarray(v, float), cfg)
    return oracle.ledger.gradient_queries + oracle.ledger.value_queries


def _grazing_line(c=2e-6):
    """A net and a line u + t v with crossings at t = -c and t = 1."""
    net = TwoLayerNet(A=np.array([[1.0, 0.0], [math.cos(2.0), math.sin(2.0)]]), w=np.ones(2))
    return net, [-c, 1.0], [-1.0, math.cos(2.0) * (1.0 + c) / math.sin(2.0) - 1.0]


class TestBinarySearchSegment:
    """One line's search through _search_line: its splits, certificates and refusals."""

    def test_single_crossing_exact_row(self):
        # crossing at t = 0.5
        z, crossings, _ = _attempt(single_unit_net(), [-0.5, 0.0], [1.0, 0.0], 1, 0.01)
        assert_allclose(np.abs(z[0]), [2.0, 0.0], atol=1e-12)
        assert 0.5 - 1e-12 <= crossings[0] <= 0.51

    def test_no_crossing_fails(self):
        oracle = Oracle(single_unit_net())
        cfg = ExtractionConfig(h=1, epsilon=0.01, l=2.0, seed=0)
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])  # <A, u + t v> = 1, never zero
        with pytest.raises(ExtractionFailure, match="fewer than h crossings"):
            _search_line(oracle, u, v, cfg)
        # The line is parallel to the hyperplane, so its ends -v and +v lie
        # on it, in one closed cell: refused without a midpoint.
        assert oracle.ledger.gradient_queries == 2

    def test_narrow_bracket_returns_immediately(self):
        # Crossings at t = 0.25 and 0.5 lie closer than epsilon = 0.3, finer
        # than the certificate resolves. With h=1 the whole line certifies
        # at once: t* = 0.375 lies inside and the probes at 0.075 and 0.675
        # fall in the cells of -v and +v, so the summed row is returned after
        # 4 queries (the closer-than-epsilon event the parameter budget pays
        # for). With h=2 the Cauchy-median splits at 0, 0.618 and 0.284
        # isolate both crossings, but the probe at 0.25 + 0.3 steps over the
        # crossing at 0.5: refused.
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        u, v = [-0.5, -0.25], [1.0, 1.0]
        z, crossings, one = _attempt(net, u, v, 1, 0.3)
        assert (one, crossings) == (4, [0.375])
        assert_allclose(z, [[1.0, 1.0]])
        assert _refused(net, u, v, 2, 0.3, "isolation probes") == 7

    def test_gradient_caching_across_searches(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        u, v = [-0.5, -0.25], [1.0, 1.0]  # crossings at t = 0.25 and t = 0.5
        oracle = Oracle(net)
        queried = []
        exact = oracle.gradient
        oracle.gradient = lambda x, eta=1e-6: (queried.append(float(x[0]) + 0.5), exact(x, eta))[1]
        cfg = ExtractionConfig(h=2, epsilon=0.01, l=2.0, seed=0)
        z, crossings = _search_line(oracle, np.asarray(u), np.asarray(v), cfg)
        # The line's ends at -v and +v (recorded as -0.5 and 1.5), then the
        # splits, each at the Cauchy median tan((atan a + atan b) / 2) of its
        # bracket's part in [-l, l]: 0, then tan(atan(2) / 2) = 0.618 and
        # tan(atan(0.618) / 2) = 0.284. Every queried point bounds two
        # brackets, so the crossings share their splits. Each certified
        # bracket then costs its two probes at t* -+ epsilon.
        assert queried == pytest.approx(
            [-0.5, 1.5, 0.0, 0.6180339887498948, 0.28407904384041227, 0.24, 0.26, 0.49, 0.51]
        )
        assert crossings == [0.25, 0.5]
        assert_allclose(z, [[0.0, 1.0], [1.0, 0.0]])
        # One crossing short, the whole line is one bracket with t* = 0.375,
        # and its first probe at 0.365 lies between the two crossings.
        assert _refused(net, u, v, 1, 0.01, "isolation probes") == 3

    def test_membership_empty_range_fails(self):
        # The requests at -v and +v find the same cell: refused after those
        # two requests, d+1 value queries each.
        u, v = [1.0, 0.0], [0.0, 1.0]
        assert _refused(single_unit_net(), u, v, 1, 0.01, "fewer than h crossings", "membership") == 6

    def test_membership_shares_the_search_and_its_refusals(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        u, v = [-0.5, -0.25], [1.0, 1.0]  # crossings at t = 0.25 and t = 0.5
        oracle = Oracle(net, mode="membership")
        cfg = ExtractionConfig(h=2, epsilon=0.01, l=2.0, seed=0)
        z, crossings = _search_line(oracle, np.asarray(u), np.asarray(v), cfg)
        # The 9 points of the grad search, one (d+1)-value request each;
        # the probes next to the crossings take the value test.
        assert crossings == [0.25, 0.4999999999986122]
        assert oracle.ledger.value_queries == 27
        assert_allclose(z, [[0.0, 1.0], [1.0, 0.0]], atol=1e-9)
        # One crossing short: the grad refusal's 3 points.
        assert _refused(net, u, v, 1, 0.01, "isolation probes", "membership") == 9

    def test_membership_invalid_range_end_is_refused(self):
        # The unit points +-v / |v| lie 1e-6 from the hyperplane x_1 = 0,
        # closer than the step 1e-5, so the request at +v steps across it and
        # fails Euler's identity: refused after the two end requests.
        net = TwoLayerNet(A=np.array([[1.0, 0.0]]), w=np.array([1.0]))
        message = "no Euler-valid gradient at an end of the line"
        assert _refused(net, [-1e-5, 0.0], [-1e-6, 1.0], 1, 0.01, message, "membership") == 6

    @pytest.mark.parametrize("epsilon", [1.5, 0.01])
    def test_membership_split_point_in_neither_cell_is_refused(self, epsilon):
        # Crossings at t = -c and t = 1. The split of the line at 0 lies c
        # from the first hyperplane, so its request steps across it, and its
        # cell (between the crossings) is neither end's. A split point is
        # never moved, so at any epsilon the line is refused after the ends
        # and that split, three requests.
        net, u, v = _grazing_line()
        message = "no Euler-valid split point in a bracket"
        assert _refused(net, u, v, 2, epsilon, message, "membership") == 9
        # Grad mode takes the exact gradient at 0; at epsilon = 1.5 the probe
        # at t* + epsilon of the bracket (-v, 0) lies past t = 1.
        if epsilon == 1.5:
            assert _refused(net, u, v, 2, epsilon, "isolation probes") == 5

    def test_membership_invalid_split_point_takes_its_end_cell(self, monkeypatch):
        # Crossings at t = c and t = 1. The split at 0 lies c below the first
        # hyperplane, so its request steps across it, but f(p) = <g, p> holds
        # there for the gradient of -v, whose cell it is in: it takes that
        # gradient, and the search goes on from (0, +inf) as grad mode does.
        c = 2e-6
        net, _, _ = _grazing_line()
        u, v = [-c, 1.0], [1.0, -math.cos(2.0) * (1.0 - c) / math.sin(2.0) - 1.0]
        requested = []
        point = extraction._MembershipLine.point
        monkeypatch.setattr(
            extraction._MembershipLine, "point", lambda line, t, x=None: (requested.append(t), point(line, t, x))[1]
        )
        oracle = Oracle(net, mode="membership")
        z, crossings = _search_line(oracle, u, v, ExtractionConfig(h=2, epsilon=0.01, l=2.0, seed=0))
        assert requested[:4] == pytest.approx([-math.inf, math.inf, 0.0, 0.6180339887498948])
        assert crossings == pytest.approx([2e-6, 1.0], abs=1e-10)
        assert oracle.ledger.value_queries == 3 * len(requested) == 24
        assert_allclose(np.abs(z), np.abs(net.A), atol=1e-9)

    def test_equal_smoothed_cells_take_the_norm_test(self):
        # One crossing at t = 0.5 and h=1: the ends and both probes are fresh
        # smoothed arrays at sigma > 0, so each probe joins its end's cell by
        # the norm test instead of the identity shortcut. 4 requests.
        oracle = Oracle(single_unit_net(), mode="smoothgrad", sg=SmoothGradConfig(sigma=1e-6, n_samples=3, seed=0))
        cfg = ExtractionConfig(h=1, epsilon=0.01, l=2.0, seed=0)
        z, crossings = _search_line(oracle, np.array([-0.5, 0.0]), np.array([1.0, 0.0]), cfg)
        assert crossings == pytest.approx([0.5])
        assert_allclose(np.abs(z), [[2.0, 0.0]])
        assert oracle.ledger.gradient_queries == 4

    def test_outside_bracket_is_split_before_any_probe(self):
        # Crossings at t = -3, 1 and 1.5; w_3 < 0 puts the t* of the bracket
        # (0, +v) holding the last two at -3.5, outside it. It is split first
        # although (-v, 0) holds as much Cauchy mass and starts lower, and
        # its part holding both crossings again at 0.781 and 1.538, then at
        # 1.090 once t* lies inside, with no probe until h brackets are
        # kinked: 4 splits, then 2 probes per bracket.
        net = TwoLayerNet(A=np.eye(3), w=np.array([1.0, 1.0, -0.9]))
        oracle = Oracle(net)
        queried = []
        exact = oracle.gradient
        oracle.gradient = lambda x, eta=1e-6: (queried.append(float(x[0]) - 3.0), exact(x, eta))[1]
        cfg = ExtractionConfig(h=3, epsilon=0.01, l=4.0, seed=0)
        z, crossings = _search_line(oracle, np.array([3.0, -1.0, -1.5]), np.ones(3), cfg)
        assert queried[2:] == pytest.approx(
            [0.0, 0.7807764064044151, 1.5382667542636725, 1.0904426700838203, -3.01, -2.99, 0.99, 1.01, 1.49, 1.51]
        )
        assert crossings == [-3.0, 1.0, 1.5]
        assert_allclose(z, np.diag([1.0, 1.0, -0.9]))

    def test_width_below_truth_is_refused_by_a_probe(self):
        # Crossings at t = 0.5 and 5. With h=1 the whole line is one bracket
        # with t* = 2.75, and its first probe lies between the crossings:
        # refused after the ends and that probe, before the crossing at 0.5
        # could give a one-row model for the sign phase to judge. l only
        # places splits, so it does not matter whether 5 lies beyond it.
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        u, v = [-0.5, -5.0], [1.0, 1.0]
        assert _refused(net, u, v, 1, 0.01, "isolation probes") == 3
        assert _refused(net, u, v, 1, 0.01, "isolation probes", l=8.0) == 3

    def test_crossing_beyond_l_is_found(self):
        # The line above with the true h=2 and l = 2: the crossing at 5 lies
        # beyond l but inside the end bracket (0.618, +v), which is certified.
        # The splits at 0 and 0.618, then two probes per bracket.
        z, crossings, queries = _attempt(TwoLayerNet(A=np.eye(2), w=np.ones(2)), [-0.5, -5.0], [1.0, 1.0], 2, 0.01)
        assert (crossings, queries) == ([0.5, 5.0], 8)
        assert_allclose(z, np.eye(2))

    @pytest.mark.parametrize("mode, queries", [("grad", 56), ("membership", 168)])
    def test_two_crossings_beyond_l_on_one_side_are_refused(self, mode, queries):
        # Crossings at t = 5 and 7, both beyond l = 2. The bracket (t, +v)
        # holding both is split at the Cauchy median of (t, l), which closes
        # in on l until it rounds to l itself and no longer lies inside the
        # bracket: refused after 56 requests, not split forever.
        net = TwoLayerNet(A=np.eye(2), w=np.ones(2))
        message = "fewer than h crossings are separated at resolution epsilon"
        assert _refused(net, [-5.0, -7.0], [1.0, 1.0], 2, 0.01, message, mode) == queries


class TestCauchyMedian:
    """Splits halve the Cauchy mass (arctan width) of a bracket, not its length."""

    def test_symmetric_range_splits_at_zero(self):
        for h in (1, 16, 32):
            l = float(ExtractionConfig(h=h).l)
            assert _mid(-l, l) == 0.0

    def test_halves_the_arctan_width(self):
        # Bracket ends drawn as crossings are, from the Cauchy law, kept in
        # [-l, l], to which the search clamps a bracket, at h = 16.
        l = float(ExtractionConfig(h=16).l)
        ends = np.tan(np.random.default_rng(31).uniform(-math.atan(l), math.atan(l), size=(2000, 2)))
        for a, b in np.sort(ends, axis=1).tolist():
            m = _mid(a, b)
            assert abs((math.atan(m) - math.atan(a)) - (math.atan(b) - math.atan(m))) <= 1e-12

    @pytest.mark.parametrize("h", [32, 48])
    def test_splits_the_narrowest_bracket_at_the_range_ends(self, h):
        # A bracket of width 2 epsilon next to +-l must still be split inside,
        # or the search would refuse a line the budget allows. A tan of the
        # mean angle resolves t there only to ~1e-16 (1 + l^2) and fails this
        # at h = 48.
        cfg = ExtractionConfig(h=h)
        l, width = float(cfg.l), 2.0 * cfg.epsilon
        for k in range(100):
            for a, b in ((l - width * (k + 1), l - width * k), (-l + width * k, -l + width * (k + 1))):
                assert a < _mid(a, b) < b

    def test_most_mass_is_split_before_the_widest(self):
        # Crossings at t = -3.5, -0.5 and -0.25, with l = 4. The splits at 0
        # and -0.781 leave (-v, -0.781) and (-0.781, 0) with a quarter of the
        # mass of [-l, l] each; the lower is split at -1.538 and its part
        # (-v, -1.538) keeps the crossing at -3.5. That bracket is unbounded
        # but holds an eighth of the mass, (-0.781, 0) is 0.78 wide and holds
        # a quarter: it is split next, at -0.344, and h brackets are kinked.
        # Splitting the widest first would spend three more queries on the
        # tail.
        net = TwoLayerNet(A=np.eye(3), w=np.ones(3))
        oracle = Oracle(net)
        queried = []
        exact = oracle.gradient
        oracle.gradient = lambda x, eta=1e-6: (queried.append(float(x[0]) - 3.5), exact(x, eta))[1]
        cfg = ExtractionConfig(h=3, epsilon=0.01, l=4.0, seed=0)
        z, crossings = _search_line(oracle, np.array([3.5, 0.5, 0.25]), np.ones(3), cfg)
        assert queried[2:6] == pytest.approx([0.0, -0.7807764064044151, -1.5382667542636725, -0.3441507314089108])
        assert len(queried) == 12
        assert crossings == pytest.approx([-3.5, -0.5, -0.25])
        assert_allclose(z, np.eye(3))


class TestRecoverZ:
    def test_single_unit_weighted_normal(self):
        net = single_unit_net()
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=1, delta=0.2, c=0.5, seed=3)
        res = recover_z(oracle, cfg, np.random.default_rng(cfg.seed))
        assert res.Z.shape == (1, 2)
        assert_allclose(np.abs(res.Z[0]), [2.0, 0.0], atol=1e-7)

    def test_hand_probe_rows_in_crossing_order(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=2, epsilon=0.01, l=2.0, seed=0)
        u = np.array([-0.5, -0.25])
        v = np.array([1.0, 1.0])  # crossings: unit 1 at t=0.5, unit 2 at t=0.25
        z, crossings = _search_line(oracle, u, v, cfg)
        assert_allclose(np.abs(z[0]), [0.0, 1.0], atol=1e-12)
        assert_allclose(np.abs(z[1]), [1.0, 0.0], atol=1e-12)
        assert 0.25 <= crossings[0] <= 0.26
        assert 0.5 <= crossings[1] <= 0.51

    def test_rows_ordered_by_analytic_crossings(self):
        net = generate_random_net(12, 5, seed=21)
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=5, delta=0.1, c=0.01, seed=4)
        res = recover_z(oracle, cfg, np.random.default_rng(cfg.seed))
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
        res = recover_z(oracle, cfg, np.random.default_rng(cfg.seed))
        if res.retries == 0:
            steps = math.ceil(math.log2(2 * cfg.l / cfg.epsilon))
            assert oracle.ledger.gradient_queries <= 3 * 6 * steps + 2 * 6

    def test_too_few_crossings_exhaust_retries(self):
        # Every line meets the single hyperplane once, so an assumed h=2
        # splits the one kinked bracket down to epsilon on each attempt.
        net = single_unit_net()
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=2, epsilon=1e-4, l=4.0, seed=7, max_retries=3)
        message = "all 4 search attempts failed; last: fewer than h crossings are separated"
        with pytest.raises(ExtractionFailure, match=message):
            recover_z(oracle, cfg, np.random.default_rng(cfg.seed))

    def test_retry_counter_reflects_failed_attempts(self, monkeypatch):
        # epsilon = 0.5 is coarser than the gap between the two crossings on
        # some lines, where a probe steps over the other crossing and the line
        # is refused, so some seed in a short scan retries at least once and
        # then succeeds. The counter is the number of lines searched, less one.
        net = TwoLayerNet(A=np.eye(2), w=np.ones(2))
        lines = []
        search = extraction._search_line
        monkeypatch.setattr(extraction, "_search_line", lambda *args: (lines.append(args), search(*args))[1])
        found = False
        for seed in range(40):
            lines.clear()
            cfg = ExtractionConfig(h=2, epsilon=0.5, l=4.0, seed=seed, max_retries=5)
            try:
                res = recover_z(Oracle(net), cfg, np.random.default_rng(cfg.seed))
            except ExtractionFailure:
                continue
            if res.retries > 0:
                found = True
                assert res.retries == len(lines) - 1
                assert len(res.crossings) == 2
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
                    patch.setattr(extraction, "_search_line", _independent_bisection_attempt)
                    reference, reference_queries = outcome(net, h, seed)
                assert shared == reference, f"(d, h, trial) = ({d}, {h}, {trial})"
                assert shared_queries <= reference_queries
                shared_total += shared_queries
                reference_total += reference_queries
        assert shared_total < reference_total

    def test_cell_identity_never_changes_a_decision(self, monkeypatch):
        # The search skips the norm test when two observations are the same
        # array; copying every gradient disables that shortcut, so both runs
        # must take the same path. Assumed h=9 on true h=8 is the refusal path.
        def outcome(d, h, assumed_h, trial):
            net_seed, seed = (
                int(s) for s in np.random.SeedSequence([6200, d, h, trial]).generate_state(2, dtype=np.uint64)
            )
            net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
            oracle = Oracle(net)
            try:
                report = learn_model(oracle, ExtractionConfig(assumed_h, delta=0.1, c=0.01, seed=seed))
                model = report.model
                result = (model.Z.tobytes(), model.s.astype(np.int64).tobytes(), report.crossings, report.retries)
            except GradleakError as err:
                result = (f"{type(err).__name__}: {err}", err.crossings, err.retries)
            return result, oracle.ledger.gradient_queries, oracle.ledger.value_queries

        exact_gradient = Oracle.gradient

        def copied_gradient(self, x, eta=1e-6):
            return exact_gradient(self, x, eta).copy()

        for d, h, assumed_h in [(16, 16, 16), (128, 8, 8), (20, 8, 9)]:
            for trial in range(40):
                shortcut = outcome(d, h, assumed_h, trial)
                with monkeypatch.context() as patch:
                    patch.setattr(Oracle, "gradient", copied_gradient)
                    assert outcome(d, h, assumed_h, trial) == shortcut, f"(d, h, trial) = ({d}, {h}, {trial})"


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

    def test_sign_residual_bound_scales_with_the_query_points(self):
        # At (16,16) the sign query points reach norms in the hundreds, and a
        # row error dZ moves each value by up to h |dZ| |x_j|. A bound blind
        # to |x_j| refused this correct membership model in the sign phase
        # ("rounded sign vector leaves residual 1.8e-7").
        net_seed, _, cfg_seed = (
            int(s) for s in np.random.SeedSequence([8100, 16, 16, 3]).generate_state(3, dtype=np.uint64)
        )
        net = generate_random_net(16, 16, c_min=0.1, w_min=0.1, seed=net_seed)
        report = learn_model(Oracle(net, mode="membership"), ExtractionConfig(16, delta=0.1, c=0.01, seed=cfg_seed))
        assert functional_equivalence(net, report.model, 10_000, 1e-7, seed=0).passed

    @pytest.mark.parametrize(
        "d, h, net_seed, cfg_seed, gradient_queries, value_queries, retries",
        [
            (16, 16, 7000, 0, 79, 32, 0),
            (128, 8, 7001, 1, 34, 16, 0),
            (20, 8, 27, 3, 33, 16, 0),
        ],
        ids=["16-16-7000-0", "128-8-7001-1", "20-8-27-3"],
    )
    def test_grad_query_counts_are_pinned(
        self, d, h, net_seed, cfg_seed, gradient_queries, value_queries, retries
    ):
        # Query counts are the attack's cost metric and deterministic for a
        # seed; a change in them must be explained, not absorbed. The ids
        # name the instance, not the counts, so a re-pin keeps them.
        net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
        report = learn_model(Oracle(net), ExtractionConfig(h, delta=0.1, c=0.01, seed=cfg_seed))
        assert (report.gradient_queries, report.value_queries, report.retries) == (
            gradient_queries,
            value_queries,
            retries,
        )
        assert functional_equivalence(net, report.model, 4096, 1e-7, seed=0).passed

    @pytest.mark.parametrize(
        "d, h, net_seed, cfg_seed, digest",
        [
            (16, 16, 7000, 0, "7891f69eb01ff058d5cd7f90d3d6b1da"),
            (128, 8, 7001, 1, "132939f2d3cc77d600f20f1108cc2961"),
            (20, 8, 27, 3, "dcebeaf096ada332d2f3aa61f6bf1121"),
        ],
    )
    def test_grad_outcomes_are_pinned(self, d, h, net_seed, cfg_seed, digest):
        # The bytes of (Z, s) for the instances above: a faster search must
        # return the same rows, not merely equivalent ones.
        net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
        report = learn_model(Oracle(net), ExtractionConfig(h, delta=0.1, c=0.01, seed=cfg_seed))
        model = report.model
        blob = np.ascontiguousarray(model.Z).tobytes() + np.asarray(model.s, dtype=np.int64).tobytes()
        assert hashlib.sha256(blob).hexdigest()[:32] == digest

    @pytest.mark.parametrize(
        "mode, d, h, net_seed, gradient_queries, value_queries, retries, digest",
        [
            ("membership", 12, 4, 40, 0, 307, 0, "b0a225fe46f0d93b11235daac238def8"),
            ("membership", 12, 4, 41, 0, 203, 0, "bdc71604c75a261f43824e7e9b47b78a"),
            ("membership", 20, 8, 40, 0, 814, 0, "dea8d92cc0a4587c0234eb0016517caf"),
            ("smoothgrad", 12, 4, 40, 23, 8, 0, "e09b6233b7280d7a722d72a0df03d18f"),
            ("smoothgrad", 12, 4, 42, 18, 8, 0, "8e7b4a5a70ad593e134c6ef4ee9c9f38"),
        ],
        ids=["membership-12-4-40", "membership-12-4-41", "membership-20-8-40", "smoothgrad-12-4-40", "smoothgrad-12-4-42"],
    )
    def test_membership_and_smoothgrad_outcomes_are_pinned(
        self, mode, d, h, net_seed, gradient_queries, value_queries, retries, digest
    ):
        # Like the grad pins, plus the bytes of (Z, s): the finite-difference
        # loop and the smoothing draws must keep their order. Each instance
        # verifies at 1e-7. Membership rows are finite differences at the
        # bracket ends, so their bytes move with the split points; smoothgrad
        # rows are differences of cell gradients and do not.
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
        assert functional_equivalence(net, model, 4096, 1e-7, seed=0).passed

    def test_too_few_crossings_are_refused_without_a_query(self):
        # One crossing on the line, at t = 1.35: the line's ends differ, and
        # h=1 certifies the whole line at once (4 gradient queries). An
        # assumed h=2 splits the one kinked bracket at the Cauchy median of
        # its part in [-l, l] until it is narrower than epsilon: 14 halvings
        # of the arctan width 2 atan(50) = 3.10 leave 1.9e-4 rad, 5.4e-4 <
        # 1e-3 in t next to the crossing (13 leave 1.07e-3), so 16 queries.
        net = single_unit_net()

        def config(h):
            return ExtractionConfig(h=h, epsilon=1e-3, l=50.0, seed=3, max_retries=0)

        one = learn_model(Oracle(net), config(1))
        oracle = Oracle(net)
        with pytest.raises(ExtractionFailure, match="fewer than h crossings are separated"):
            learn_model(oracle, config(2))
        # Sign recovery spends value queries only, so these are all search.
        assert (one.gradient_queries, oracle.ledger.gradient_queries) == (4, 2 + 14)

    def test_smoothgrad_blur_has_a_working_regime(self):
        # At sigma = 1e-6 the blur used to hide a crossing on every line and
        # all 50 nets were refused. Probes 8 sigma off each crossing now see
        # exact gradients: every outcome verifies or is refused, and at
        # least 45 of 50 verify.
        verified = 0
        for trial in range(50):
            net_seed, sg_seed, cfg_seed = (
                int(s) for s in np.random.SeedSequence([9300, 12, 4, 4, trial]).generate_state(3, dtype=np.uint64)
            )
            net = generate_random_net(12, 4, c_min=0.1, w_min=0.1, seed=net_seed)
            oracle = Oracle(net, mode="smoothgrad", sg=SmoothGradConfig(sigma=1e-6, n_samples=3, seed=sg_seed))
            try:
                report = learn_model(oracle, ExtractionConfig(4, delta=0.1, c=0.01, seed=cfg_seed))
            except GradleakError:
                continue
            eq = functional_equivalence(net, report.model, 10_000, 1e-7, seed=trial)
            assert eq.passed, f"trial {trial}: verify error {eq.max_rel_error:.3e}"
            verified += 1
        assert verified >= 45

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

    def test_failure_carries_phase_retries_and_crossings(self, monkeypatch):
        from gradleak import GradleakError
        from gradleak.errors import SingularMatrixError

        def singular(m, b):
            raise SingularMatrixError("forced")

        net = generate_random_net(12, 5, seed=1)
        with monkeypatch.context() as patch:
            patch.setattr(extraction, "solve_linear_system", singular)
            with pytest.raises(GradleakError) as sign_err:
                learn_model(Oracle(net), ExtractionConfig(h=5, seed=0))
        assert sign_err.value.phase == "sign"
        assert sign_err.value.retries == 0
        assert len(sign_err.value.crossings) == 5

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
