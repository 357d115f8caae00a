"""Parameter selection, crossing search, sign recovery, and the full attack."""

import gc
import hashlib
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradleak import (
    ExtractionConfig,
    ExtractionFailure,
    GradleakError,
    Oracle,
    RecoveredModel,
    SignRecoveryError,
    SmoothGradConfig,
    TwoLayerNet,
    functional_equivalence,
    generate_random_net,
    learn_model,
    match_rows,
    recover_s,
    recover_z,
    recovered_from_net,
    select_parameters,
)
from gradleak import extraction
from gradleak.extraction import GRAD_CHANGE_TOL, _search_line
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

    @pytest.mark.parametrize("c, eps", [(0.01, 1e-3), (0.1, 1e-3), (0.5, 1e-2), (1.0, 1e-2)])
    def test_epsilon_bounds_close_crossing_angles(self, c, eps):
        # The search resolves crossing angles theta = atan t, and atan is
        # 1-Lipschitz, so the t-space gap bound above does not carry over by
        # itself. For unit rows a, b with <a, b> = rho, a Gaussian line's
        # projections are alpha = (<a, u>, <a, v>) and beta = rho alpha +
        # sqrt(1 - rho^2) gamma, gamma independent; the crossing angles are
        # those of the lines orthogonal to alpha and beta. With |alpha| = r
        # (chi, 2 degrees of freedom), the angle gap has density
        # E|N(rho r, 1 - rho^2)| / sqrt(2 pi (1 - rho^2)) at 0, at most
        # sqrt(1 + rho^2) / sqrt(2 pi (1 - rho^2)) <= 1 / sqrt(pi (1 - rho^2)),
        # so P(|theta_1 - theta_2| <= eps) <= 2 eps / sqrt(pi (1 - rho^2)).
        rho = 1.0 - c
        au, av, gu, gv = np.random.default_rng(8200).standard_normal((4, 1_000_000))
        bu, bv = rho * au + math.sqrt(1.0 - rho * rho) * gu, rho * av + math.sqrt(1.0 - rho * rho) * gv
        rate = np.mean(np.abs(np.arctan(-au / av) - np.arctan(-bu / bv)) <= eps)
        bound = 2.0 * eps / math.sqrt(math.pi * (1.0 - rho * rho))
        assert rate <= bound
        if c == 0.01:
            # Nearly collinear rows come within 15% of it, above the
            # 2 eps / (pi sqrt(1 - rho^2)) of a density 1/(pi sqrt(1 - rho^2)).
            assert rate >= 0.85 * bound > 2.0 * eps / (math.pi * math.sqrt(1.0 - rho * rho))

    def test_epsilon_meets_the_angle_budget(self):
        # |rho| <= 1 - c gives 1 - rho^2 >= c, so the h(h - 1)/2 pairs fit
        # the anti-concentration half of the budget at the chosen epsilon.
        for delta in (0.01, 0.1, 0.5, 0.99):
            for c in (1e-4, 0.01, 0.3, 1.0):
                for h in (1, 2, 16, 256, 4096):
                    eps, _ = select_parameters(delta, c, h)
                    assert h * h * eps / math.sqrt(math.pi * c) <= delta / 2.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            select_parameters(0.0, 0.5, 2)
        with pytest.raises(ValueError):
            select_parameters(0.1, 1.5, 2)
        with pytest.raises(ValueError):
            select_parameters(0.1, 0.5, 0)

    @pytest.mark.parametrize("h", [2.5, True, np.float64(3.0)])
    def test_non_integer_width_refused(self, h):
        # 2.5 returned an epsilon and an l for a width no net has.
        with pytest.raises(ValueError, match="h must be an integer of at least 1"):
            select_parameters(0.1, 0.01, h)

    def test_numpy_integer_width_accepted(self):
        assert select_parameters(0.1, 0.01, np.int64(3)) == select_parameters(0.1, 0.01, 3)


class TestConfig:
    def test_defaults_filled(self):
        # The search covers the whole line, so the config carries no range l.
        cfg = ExtractionConfig(h=4, delta=0.2, c=0.3)
        eps, _ = select_parameters(0.2, 0.3, 4)
        assert cfg.epsilon == eps and not hasattr(cfg, "l")

    def test_explicit_override(self):
        cfg = ExtractionConfig(h=2, epsilon=0.01)
        assert cfg.epsilon == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtractionConfig(h=0)
        with pytest.raises(ValueError):
            ExtractionConfig(h=2, delta=1.5)
        with pytest.raises(ValueError):
            ExtractionConfig(h=2, epsilon=0.0)
        with pytest.raises(ValueError):
            ExtractionConfig(h=2, max_retries=-1)
        # Each would leak a ValueError or TypeError from SeedSequence or range
        # inside learn_model, or refuse every line of a fractional h. A bool
        # is refused too, though Python counts True as the integer 1.
        bads = (
            {"seed": -1}, {"seed": 1.5}, {"h": 2.5}, {"max_retries": 1.5},
            {"h": True}, {"h": np.float64(2.0)}, {"max_retries": False}, {"seed": True},
        )
        for bad in bads:
            with pytest.raises(ValueError, match="integer|non-negative"):
                ExtractionConfig(**{"h": 2, **bad})
        cfg = ExtractionConfig(h=np.int64(2), seed=np.uint64(3), max_retries=np.int32(1))
        assert (cfg.h, cfg.seed, cfg.max_retries) == (2, 3, 1)

    @pytest.mark.parametrize("name", ["delta", "c", "epsilon"])
    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_number_refused(self, name, flag):
        # c=True ran with c = 1.0 and epsilon=True with a resolution of 1 rad.
        with pytest.raises(ValueError, match=f"{name} must be a number, not a bool"):
            ExtractionConfig(h=4, **{name: flag})

    @pytest.mark.parametrize("override", [{"epsilon": math.inf}, {"epsilon": math.nan}, {"epsilon": -math.inf}])
    def test_non_finite_range_refused(self, override):
        # An infinite resolution would refuse every split and a NaN one none,
        # blaming the instance for a usage error.
        with pytest.raises(ValueError) as info:
            ExtractionConfig(h=2, **override)
        assert str(info.value) == f"epsilon must lie in (0, inf), got {override['epsilon']!r}"


def _attempt(net, u, v, h, epsilon):
    """One gradient-mode search pass on the line u + t v and its gradient queries."""
    oracle = Oracle(net)
    cfg = ExtractionConfig(h=h, epsilon=epsilon, seed=0)
    z, crossings, _ = _search_line(oracle, np.asarray(u, float), np.asarray(v, float), cfg)
    return z, crossings, oracle.ledger.gradient_queries


def _refused(net, u, v, h, epsilon, message, mode="grad"):
    """Queries one search pass on the line u + t v spends before it is refused."""
    oracle = Oracle(net, mode=mode)
    cfg = ExtractionConfig(h=h, epsilon=epsilon, seed=0)
    with pytest.raises(ExtractionFailure, match=message):
        _search_line(oracle, np.asarray(u, float), np.asarray(v, float), cfg)
    return oracle.ledger.gradient_queries + oracle.ledger.value_queries


def _angle(x, u, v):
    """The angle theta of a requested point x, a positive multiple of cos theta u + sin theta v."""
    c, s = np.linalg.lstsq(np.column_stack([u, v]), x, rcond=None)[0]
    return math.atan2(s, c)


def _record_rounds(oracle, u, v):
    """Wrap the oracle's batch request to record each round's angles, sorted; returns the list of rounds.

    In membership the request is one values call of the k(d+1) finite-difference
    rows, and every (d+1)-th row is a requested unit point."""
    rounds = []
    name, step = ("values", oracle.d + 1) if oracle.mode == "membership" else ("gradients", 1)
    batch = getattr(oracle, name)
    setattr(oracle, name, lambda X: (rounds.append(sorted(_angle(x, u, v) for x in X[::step])), batch(X))[1])
    return rounds


def _assert_rounds(rounds, expected, **tolerance):
    """Each round requested exactly the expected set of angles (pytest.approx tolerances)."""
    assert len(rounds) == len(expected)
    for got, want in zip(rounds, expected):
        assert got == pytest.approx(sorted(want), **tolerance)


class TestBinarySearchSegment:
    """One line's search through _search_line: its splits, certificates and refusals."""

    def test_single_crossing_exact_row(self):
        # crossing at t = 0.5
        z, crossings, _ = _attempt(single_unit_net(), [-0.5, 0.0], [1.0, 0.0], 1, 0.01)
        assert_allclose(np.abs(z[0]), [2.0, 0.0], atol=1e-12)
        assert 0.5 - 1e-12 <= crossings[0] <= 0.51

    def test_no_crossing_fails(self):
        oracle = Oracle(single_unit_net())
        cfg = ExtractionConfig(h=1, epsilon=0.01, seed=0)
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])  # <A, u + t v> = 1, never zero
        with pytest.raises(ExtractionFailure, match="fewer than h crossings"):
            _search_line(oracle, u, v, cfg)
        # The line is parallel to the hyperplane, so its ends -v and +v lie
        # on it, in one closed cell: refused without a probe.
        assert oracle.ledger.gradient_queries == 2

    def test_narrow_bracket_returns_immediately(self):
        # Crossings at t = 0.25 and 0.5 lie closer than epsilon = 0.3, finer
        # than the certificate resolves. With h=1 the whole line certifies
        # at once: t* = 0.375 lies inside and the probes at 0.075 and 0.675
        # fall in the cells of -v and +v, so the summed row is returned after
        # 4 queries (the closer-than-epsilon event the parameter budget pays
        # for). With h=2 the same 4 queries certify the same one bracket and
        # leave none open: refused as too few crossings.
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        u, v = [-0.5, -0.25], [1.0, 1.0]
        z, crossings, one = _attempt(net, u, v, 1, 0.3)
        assert (one, crossings) == (4, [0.375])
        assert_allclose(z, [[1.0, 1.0]])
        assert _refused(net, u, v, 2, 0.3, "fewer than h crossings lie on the line") == 4

    def test_gradient_caching_across_searches(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        u, v = [-0.5, -0.25], [1.0, 1.0]  # crossings at t = 0.25 and t = 0.5
        oracle = Oracle(net)
        rounds = _record_rounds(oracle, u, v)
        cfg = ExtractionConfig(h=2, epsilon=0.01, seed=0)
        z, crossings, ends = _search_line(oracle, np.asarray(u), np.asarray(v), cfg)
        # The crossings lie at theta = atan 0.25 and atan 0.5 on the half-circle
        # cos theta u + sin theta v. Round 1 requests the line's ends at theta
        # = -+pi/2, round 2 the whole line's first probe at theta* - epsilon,
        # theta* = atan 0.375 (its row (1, 1) gives t* = 0.375): it lies
        # between the crossings, outside the cell of -v, and is the split
        # point. Each half then certifies with its two probes at theta* -+
        # epsilon, one probe per half in each of rounds 3 and 4. Every queried
        # point bounds two brackets, so the crossings share the split: 7
        # queries in 4 rounds.
        eps = 0.01
        _assert_rounds(
            rounds,
            [
                [-math.pi / 2, math.pi / 2],
                [math.atan(0.375) - eps],
                [math.atan(0.25) - eps, math.atan(0.5) - eps],
                [math.atan(0.25) + eps, math.atan(0.5) + eps],
            ],
        )
        assert oracle.ledger.rounds == 4 and oracle.ledger.gradient_queries == 7
        assert crossings == [0.25, 0.5]
        assert_allclose(z, [[0.0, 1.0], [1.0, 0.0]])
        # The gradients at the ends are returned for the sign solve, at no query more.
        assert_allclose(ends, [[0.0, 0.0], [1.0, 1.0]])
        # One crossing short, that split leaves two kinked brackets for h=1.
        assert _refused(net, u, v, 1, 0.01, "more than h crossings lie on the line") == 3

    def test_line_ends_are_its_tail_cells(self):
        # The hyperplane x_1 = 0 contains v = (0, 1), and u = (-0.5, -0.25)
        # keeps the whole line in x_1 < 0: only x_2 = 0 is crossed, at t =
        # 0.25. The ends x(-+pi/2) = -+v + 6e-17 u lie in the line's tail
        # cells, off x_1 = 0, so h=1 certifies the one row (0, 1) after the
        # ends and two probes. Queried at exactly -+v, the closed indicator
        # put unit 1 on at both ends, the first probe failed against -v, and
        # the line was refused as holding more than h crossings.
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        u, v = [-0.5, -0.25], [0.0, 1.0]
        z, crossings, queries = _attempt(net, u, v, 1, 0.01)
        assert (crossings, queries) == ([0.25], 4)
        assert_allclose(z, [[0.0, 1.0]])
        # An assumed h=2 certifies the same bracket and has none left.
        assert _refused(net, u, v, 2, 0.01, "fewer than h crossings lie on the line") == 4

    def test_membership_empty_range_fails(self):
        # The requests at -v and +v find the same cell: refused after those
        # two requests, d+1 value queries each.
        u, v = [1.0, 0.0], [0.0, 1.0]
        assert _refused(single_unit_net(), u, v, 1, 0.01, "fewer than h crossings", "membership") == 6

    def test_membership_shares_the_search_and_its_refusals(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        u, v = [-0.5, -0.25], [1.0, 1.0]  # crossings at t = 0.25 and t = 0.5
        oracle = Oracle(net, mode="membership")
        cfg = ExtractionConfig(h=2, epsilon=0.01, seed=0)
        z, crossings, _ = _search_line(oracle, np.asarray(u), np.asarray(v), cfg)
        # The 7 points of the grad search, one (d+1)-value request each;
        # the probes next to the crossings take the value test.
        assert crossings == [0.25, 0.49999999999722444]
        assert oracle.ledger.value_queries == 21
        assert_allclose(z, [[0.0, 1.0], [1.0, 0.0]], atol=1e-9)
        # One crossing short: the grad refusal's 3 points.
        assert _refused(net, u, v, 1, 0.01, "more than h crossings", "membership") == 9

    def test_membership_invalid_range_end_is_refused(self):
        # The unit points +-v / |v| lie 1e-6 from the hyperplane x_1 = 0,
        # closer than the step 1e-5, so the request at +v steps across it and
        # fails Euler's identity: refused after the two end requests.
        net = TwoLayerNet(A=np.array([[1.0, 0.0]]), w=np.array([1.0]))
        message = "no Euler-valid gradient at an end of the line"
        assert _refused(net, [-1e-5, 0.0], [-1e-6, 1.0], 1, 0.01, message, "membership") == 6

    @pytest.mark.parametrize("epsilon", [1.5, 0.01])
    def test_membership_split_point_in_neither_cell_is_refused(self, epsilon):
        # With A = I, w = (1, 0.05), u = (0, -sin T) and v = (1, cos T) the
        # half-circle is x(theta) = (sin theta, sin(theta - T)): crossings at
        # theta = 0 and T. The whole line's row (1, 0.05) vanishes at theta*
        # with sin theta* = 0.05 sin(T - theta*). T = theta* + epsilon (1 +
        # 5e-6), so theta* = asin(0.05 sin(epsilon (1 + 5e-6))), which lies
        # within epsilon of 0: its first probe passes, and its second, at
        # theta* + epsilon, falls 5e-6 epsilon short of T, within 1e-5 of the
        # hyperplane x_2 = 0 at unit scale (|x| ~ sin T there). Its request
        # steps across it, and its cell (between the crossings) is neither
        # end's, so the failed probe is no valid split point. At either
        # epsilon the line is refused after the ends and the two probes. (A
        # weight of 0.1 would put T past pi/2 at epsilon = 1.5.)
        gap = epsilon * (1.0 + 5e-6)
        T = math.asin(0.05 * math.sin(gap)) + gap
        net, u, v = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 0.05])), [0.0, -math.sin(T)], [1.0, math.cos(T)]
        message = "no Euler-valid split point in a bracket"
        assert _refused(net, u, v, 2, epsilon, message, "membership") == 12
        # Grad mode takes the exact gradient there, splits, and certifies both.
        _, crossings, queries = _attempt(net, u, v, 2, epsilon)
        assert crossings == pytest.approx([0.0, math.tan(T)], abs=1e-12) and queries == 8

    def test_membership_invalid_split_point_takes_its_end_cell(self):
        # With A = I, w = (-0.5, 1), u = (0, sin T) and v = (1, -cos T) the
        # half-circle is x(theta) = (sin theta, sin(T - theta)): unit 1 turns
        # on at theta = 0 and unit 2 off at T. The whole line's row (-0.5,
        # -1) vanishes at theta* with 0.5 sin theta* = sin(theta* - T), past
        # both crossings, so its first probe, at theta* - epsilon, lies in the
        # cell of +v. T = asin(2 sin g) - g with g = epsilon (1 + 5e-6) puts
        # that probe g - epsilon beyond T, about 5e-6 beyond x_2 = 0 at unit
        # scale (|x| ~ sin T there). Its request steps back across that
        # hyperplane and is invalid, but f(p) = <g, p> holds there for the
        # gradient of +v: the probe, which failed against -v, splits the line
        # with +v's gradient, and the search goes on exactly as grad mode's
        # does. (Kept at t-space spacing, crossings at t = 0 and epsilon (1 +
        # 5e-6) lie less than epsilon apart in theta, and the line is refused.)
        epsilon = 0.01
        gap = epsilon * (1.0 + 5e-6)
        T = math.asin(2.0 * math.sin(gap)) - gap
        net = TwoLayerNet(A=np.eye(2), w=np.array([-0.5, 1.0]))
        u, v = np.array([0.0, math.sin(T)]), np.array([1.0, -math.cos(T)])
        cfg = ExtractionConfig(h=2, epsilon=epsilon, seed=0)
        oracle = Oracle(net, mode="membership")
        requested = _record_rounds(oracle, u, v)
        z, crossings, _ = _search_line(oracle, u, v, cfg)
        grad = Oracle(net)
        queried = _record_rounds(grad, u, v)
        _search_line(grad, u, v, cfg)
        # Each request is at the unit point of x(theta); round 1 is the ends
        # -v and +v, and round 2 that first probe.
        assert requested[1] == pytest.approx([T + gap - epsilon], abs=1e-12)
        _assert_rounds(requested, queried, abs=1e-12)
        assert crossings == pytest.approx([0.0, math.tan(T)], abs=1e-10)
        assert oracle.ledger.value_queries == 3 * sum(map(len, requested)) == 45
        assert_allclose(np.abs(z), [[0.5, 0.0], [0.0, 1.0]], atol=1e-9)

    def test_equal_smoothed_cells_take_the_norm_test(self):
        # One crossing at t = 0.5 and h=1: the ends and both probes are fresh
        # smoothed arrays at sigma > 0, so each probe joins its end's cell by
        # the norm test instead of the identity shortcut. 4 requests.
        oracle = Oracle(single_unit_net(), mode="smoothgrad", sg=SmoothGradConfig(sigma=1e-6, n_samples=3, seed=0))
        cfg = ExtractionConfig(h=1, epsilon=0.01, seed=0)
        z, crossings, _ = _search_line(oracle, np.array([-0.5, 0.0]), np.array([1.0, 0.0]), cfg)
        assert crossings == pytest.approx([0.5])
        assert_allclose(np.abs(z), [[2.0, 0.0]])
        assert oracle.ledger.gradient_queries == 4

    @pytest.mark.parametrize("sigma, refused", [(0.3, True), (0.1, False)])
    def test_blur_over_the_half_circle_is_refused(self, sigma, refused):
        # One crossing at t = 0.5, theta* = atan 0.5, row D = (2, 0): the
        # probes sit tau = 8 sigma |D| / hypot(<D, u>, <D, v>) = 7.2 sigma
        # from theta*. At sigma = 0.3 that is 2.1 > pi/2: the whole
        # half-circle lies within the blur, and a probe near theta* + pi would
        # lie on the hyperplane again. The line is refused after its two end
        # requests. At sigma = 0.1 (tau = 0.72) its probes certify it.
        oracle = Oracle(single_unit_net(), mode="smoothgrad", sg=SmoothGradConfig(sigma=sigma, n_samples=3, seed=0))
        cfg = ExtractionConfig(h=1, epsilon=0.01, seed=0)
        u, v = np.array([-0.5, 0.0]), np.array([1.0, 0.0])
        if refused:
            with pytest.raises(ExtractionFailure, match="blur around a crossing covers the half-circle"):
                _search_line(oracle, u, v, cfg)
            assert oracle.ledger.gradient_queries == 2
        else:
            _, crossings, _ = _search_line(oracle, u, v, cfg)
            assert crossings == [0.5] and oracle.ledger.gradient_queries == 4

    def test_outside_bracket_is_split_before_any_probe(self):
        # Crossings at t = -3, 1 and 1.5, theta = atan t; w_3 < 0. The whole
        # line's row (1, 1, -0.9) vanishes at theta* = atan2(-3.35, 1.1)
        # (t* = -3.045), inside it. Its first probe passes (round 2); its
        # second, at theta* + epsilon (round 3), falls short of the crossing
        # at atan(-3) and splits the line: (-v, that probe) holds the
        # crossing at atan(-3), and (that probe, +v) has the row (0, 1,
        # -0.9), whose theta* = atan(-3.5) lies outside it. That bracket is
        # split at its midpoint before any probe, in round 4 beside the first
        # probe of (-v, probe), and its part (midpoint, +v), holding the last
        # two crossings with the same row and theta*, at its own midpoint in
        # round 5. Then 2 probes per bracket: 12 queries in 7 rounds.
        net = TwoLayerNet(A=np.eye(3), w=np.array([1.0, 1.0, -0.9]))
        oracle = Oracle(net)
        u, v = np.array([3.0, -1.0, -1.5]), np.ones(3)
        rounds = _record_rounds(oracle, u, v)
        cfg = ExtractionConfig(h=3, epsilon=0.01, seed=0)
        z, crossings, _ = _search_line(oracle, u, v, cfg)
        eps, theta = 0.01, math.atan2(-3.35, 1.1)
        first = 0.5 * (theta + eps + math.pi / 2)
        second = 0.5 * (first + math.pi / 2)
        _assert_rounds(
            rounds,
            [
                [-math.pi / 2, math.pi / 2],
                [theta - eps],
                [theta + eps],
                [math.atan(-3.0) - eps, first],
                [math.atan(-3.0) + eps, second],
                [math.atan(1.0) - eps, math.atan(1.5) - eps],
                [math.atan(1.0) + eps, math.atan(1.5) + eps],
            ],
        )
        assert crossings == [-3.0, 1.0, 1.5]
        assert_allclose(z, np.diag([1.0, 1.0, -0.9]))

    def test_most_mass_is_split_before_the_widest(self):
        # Crossings at t = -3.5, -3 and 0.5, theta = atan t. The whole line's
        # first probe, at theta* - epsilon with theta* = atan(-2) (round 2),
        # fails and splits it into (-v, probe), holding two crossings, and
        # (probe, +v), holding one. Round 3 probes both: the lower's probe at
        # atan(-3.25) - epsilon fails and splits it in two brackets, and the
        # upper's passes. Round 4 takes the upper's second probe with the
        # first probes of the two new brackets: a round serves every open
        # bracket, whatever its depth, width or place. 10 queries in 5 rounds.
        net = TwoLayerNet(A=np.eye(3), w=np.ones(3))
        oracle = Oracle(net)
        u, v = np.array([3.5, 3.0, -0.5]), np.ones(3)
        rounds = _record_rounds(oracle, u, v)
        cfg = ExtractionConfig(h=3, epsilon=0.01, seed=0)
        z, crossings, _ = _search_line(oracle, u, v, cfg)
        eps = 0.01
        _assert_rounds(
            rounds,
            [
                [-math.pi / 2, math.pi / 2],
                [math.atan(-2.0) - eps],
                [math.atan(-3.25) - eps, math.atan(0.5) - eps],
                [math.atan(-3.5) - eps, math.atan(-3.0) - eps, math.atan(0.5) + eps],
                [math.atan(-3.5) + eps, math.atan(-3.0) + eps],
            ],
        )
        assert crossings == pytest.approx([-3.5, -3.0, 0.5])
        assert_allclose(z, np.eye(3))

    def test_width_below_truth_is_refused_by_a_probe(self):
        # Crossings at t = 0.5 and 5. With h=1 the whole line is one bracket
        # with t* = 2.75, and its first probe lies between the crossings. It
        # splits the line into two kinked brackets, one more than h: refused
        # after the ends and that probe, before the crossing at 0.5 could
        # give a one-row model for the sign phase to judge.
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        u, v = [-0.5, -5.0], [1.0, 1.0]
        assert _refused(net, u, v, 1, 0.01, "more than h crossings lie on the line") == 3
        assert _refused(net, u, v, 1, 0.01, "more than h crossings lie on the line", "membership") == 9

    def test_width_above_truth_is_refused_once_the_line_is_certified(self):
        # Crossings at t = 0.25 and 0.5 with h=3: the 7 queries that find and
        # certify both leave no bracket open, and the line is refused as
        # holding fewer than h crossings, at the cost of a success with h=2.
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        u, v = [-0.5, -0.25], [1.0, 1.0]
        assert _refused(net, u, v, 3, 0.01, "fewer than h crossings lie on the line") == 7
        assert _refused(net, u, v, 3, 0.01, "fewer than h crossings lie on the line", "membership") == 21

    def test_crossing_beyond_l_is_found(self):
        # The line above with the true h=2. The failed probe at 2.74 splits
        # the whole line, and each half certifies its crossing: the one at 5
        # as readily as the one at 0.5, since the search has no range l for
        # a crossing to lie beyond: 7 queries.
        z, crossings, queries = _attempt(TwoLayerNet(A=np.eye(2), w=np.ones(2)), [-0.5, -5.0], [1.0, 1.0], 2, 0.01)
        assert (crossings, queries) == ([0.5, 5.0], 7)
        assert_allclose(z, np.eye(2))

    @pytest.mark.parametrize("mode, queries", [("grad", 7), ("membership", 21)])
    def test_two_crossings_beyond_l_on_one_side_are_found(self, mode, queries):
        # Crossings at t = 5 and 7, both far out on one side. The whole
        # line's first probe, at t* - epsilon = 5.99, lies between them and
        # splits the line, and both halves certify: 7 requests.
        oracle = Oracle(TwoLayerNet(A=np.eye(2), w=np.ones(2)), mode=mode)
        cfg = ExtractionConfig(h=2, epsilon=0.01, seed=0)
        z, crossings, _ = _search_line(oracle, np.array([-5.0, -7.0]), np.ones(2), cfg)
        assert crossings == pytest.approx([5.0, 7.0])
        assert oracle.ledger.gradient_queries + oracle.ledger.value_queries == queries
        assert_allclose(z, np.eye(2), atol=1e-9)


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
        cfg = ExtractionConfig(h=2, epsilon=0.01, seed=0)
        u = np.array([-0.5, -0.25])
        v = np.array([1.0, 1.0])  # crossings: unit 1 at t=0.5, unit 2 at t=0.25
        z, crossings, _ = _search_line(oracle, u, v, cfg)
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
        if len(res.refusals) == 0:
            _, l = select_parameters(cfg.delta, cfg.c, cfg.h)
            steps = math.ceil(math.log2(2 * l / cfg.epsilon))
            assert oracle.ledger.gradient_queries <= 3 * 6 * steps + 2 * 6

    def test_too_few_crossings_exhaust_retries(self):
        # Every line meets the single hyperplane once, so an assumed h=2
        # certifies that one crossing and finds nothing more on each attempt.
        net = single_unit_net()
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=2, epsilon=1e-4, seed=7, max_retries=3)
        message = "all 4 search attempts failed; last: fewer than h crossings lie on the line"
        with pytest.raises(ExtractionFailure, match=message):
            recover_z(oracle, cfg, np.random.default_rng(cfg.seed))

    def test_exhausted_search_carries_its_report(self, monkeypatch):
        # recover_z's failure attaches the search's own record, with no
        # learn_model around it to build one.
        reasons = []
        search = extraction._search_line

        def noted(*args):
            try:
                return search(*args)
            except ExtractionFailure as err:
                reasons.append(str(err))
                raise

        monkeypatch.setattr(extraction, "_search_line", noted)
        oracle = Oracle(single_unit_net())
        cfg = ExtractionConfig(h=2, epsilon=1e-4, seed=7, max_retries=3)
        with pytest.raises(ExtractionFailure) as failure:
            recover_z(oracle, cfg, np.random.default_rng(cfg.seed))
        report = failure.value.report
        assert (report.model, report.phase, report.crossings) == (None, "search", [])
        assert report.refusals == reasons and len(reasons) == 4
        assert report.retries == cfg.max_retries
        assert (report.gradient_queries, report.rounds) == (oracle.ledger.gradient_queries, oracle.ledger.rounds)
        assert not hasattr(failure.value, "refusals")

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
            cfg = ExtractionConfig(h=2, epsilon=0.5, seed=seed, max_retries=5)
            try:
                res = recover_z(Oracle(net), cfg, np.random.default_rng(cfg.seed))
            except ExtractionFailure:
                continue
            if len(res.refusals) > 0:
                found = True
                assert len(res.refusals) == len(lines) - 1
                assert len(res.crossings) == 2
                break
        assert found


def _independent_bisection_attempt(oracle, u, v, cfg):
    """Reference: each crossing bisects [floor, +l] afresh, reusing only
    gradients queried at exactly the same t; l is the paper's tail bound."""
    _, l = select_parameters(cfg.delta, cfg.c, cfg.h)
    grads = {}

    def grad_at(t):
        if t not in grads:
            grads[t] = oracle.gradients((u + t * v)[None])[0]
        return grads[t]

    def changed(g0, g1):
        return np.linalg.norm(g0 - g1) > GRAD_CHANGE_TOL

    floor, rows, crossings = -float(l), [], []
    for _ in range(cfg.h):
        t_l, t_r = floor, float(l)
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
    # Every crossing found lies inside (-l, l), so the gradients queried at
    # -l and l are those of -v and +v, which the sign solve reads.
    return np.vstack(rows), crossings, (grad_at(-float(l)), grad_at(float(l)))


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
                result = (type(err).__name__, err.report.retries)
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
        # In grad the cell test is identity alone. On nets whose rows are all
        # far above GRAD_CHANGE_TOL, deciding every cell by the difference norm
        # instead must take the same path. Assumed h=9 on true h=8 is the
        # refusal path.
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
                result = (f"{type(err).__name__}: {err}", err.report.crossings, err.report.retries)
            return result, oracle.ledger.gradient_queries, oracle.ledger.value_queries

        same = extraction._GradientForm.same

        def by_norm(form, p, q):
            return same(SimpleNamespace(exact=False), p, q)

        for d, h, assumed_h in [(16, 16, 16), (128, 8, 8), (20, 8, 9)]:
            for trial in range(40):
                identity = outcome(d, h, assumed_h, trial)
                with monkeypatch.context() as patch:
                    patch.setattr(extraction._GradientForm, "same", by_norm)
                    assert outcome(d, h, assumed_h, trial) == identity, f"(d, h, trial) = ({d}, {h}, {trial})"

    def test_cell_test_follows_the_oracle(self):
        # The search reads how gradients compare from the oracle alone. An
        # oracle that serves each exact gradient as a fresh copy declares
        # exact=False and is searched by difference norm: the same model at
        # the same cost on these nets, whose rows are far above
        # GRAD_CHANGE_TOL. By identity, no two of its answers would share a cell.
        for seed in range(5):
            net = generate_random_net(16, 8, c_min=0.1, w_min=0.1, seed=seed)
            oracle = Oracle(net)
            copies = SimpleNamespace(
                gradients=lambda X, served=oracle.gradients: [g.copy() for g in served(X)],
                d=oracle.d,
                mode="grad",
                ledger=oracle.ledger,
                exact=False,
                sigma=0.0,
            )
            cfg = ExtractionConfig(8, seed=seed)
            want, got = learn_model(Oracle(net), cfg), learn_model(copies, cfg)
            assert got.model.Z.tobytes() == want.model.Z.tobytes() and got.model.s.tolist() == want.model.s.tolist()
            assert (got.gradient_queries, got.rounds, got.crossings) == (want.gradient_queries, want.rounds, want.crossings)

    def test_row_below_the_change_tolerance_verifies_or_is_refused(self):
        # One output weight of 1e-9 makes a row of norm 1e-9, below
        # GRAD_CHANGE_TOL. A norm test cannot see that crossing and refused
        # all 40 nets; by identity its cells still differ.
        verified = 0
        for trial in range(40):
            net = generate_random_net(16, 8, c_min=0.1, w_min=0.1, seed=trial)
            w = net.w.copy()
            w[0] = 1e-9
            net = TwoLayerNet(A=net.A, w=w)
            try:
                report = learn_model(Oracle(net), ExtractionConfig(8, seed=trial))
            except GradleakError:
                continue
            assert functional_equivalence(net, report.model, 10_000, 1e-7, seed=trial).passed, f"trial {trial}"
            verified += 1
        assert verified >= 30


def _digest_instance(d, h, trial):
    """(net, oracle seed, config seed) of an outcome-digest instance."""
    net_seed, sg_seed, cfg_seed = (
        int(s) for s in np.random.SeedSequence([8100, d, h, trial]).generate_state(3, dtype=np.uint64)
    )
    return generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed), sg_seed, cfg_seed


def _nudge_plus_end(z, ends):
    """g(+v) moved by 1e-6 |g(+v)| along the first axis (math.hypot: |g| neither overflows nor underflows)."""
    ends[1][0] += 1e-6 * math.hypot(*ends[1])
    return z, ends


def _scale_a_row(z, ends):
    """One row of Z 1% too long."""
    z[2] *= 1.01
    return z, ends


class TestEndSigns:
    """The sign solve from the search line's end gradients, and its certificate."""

    @pytest.mark.parametrize(
        "mode, d, h, count",
        [
            ("grad", 16, 16, 60),
            ("grad", 128, 8, 20),
            ("grad", 256, 128, 3),
            ("membership", 20, 8, 20),
            ("smoothgrad", 12, 4, 60),
        ],
    )
    def test_same_signs_as_the_reference_sign_step(self, mode, d, h, count):
        # recover_s, the paper's sign step from 2h value queries, stays in the
        # package as the reference for this test: on the attack's rows, with
        # the sign stream the attack used to give it, it must return the same
        # s as the end solve, on a fresh oracle.
        for trial in range(count):
            net, sg_seed, cfg_seed = _digest_instance(d, h, trial)
            sg = SmoothGradConfig(sigma=1e-9, n_samples=3, seed=sg_seed)
            report = learn_model(Oracle(net, mode=mode, sg=sg), ExtractionConfig(h, delta=0.1, c=0.01, seed=cfg_seed))
            sign_seed = np.random.SeedSequence(cfg_seed).spawn(2)[1]
            s = recover_s(Oracle(net, mode=mode, sg=sg), report.model.Z, rng=np.random.default_rng(sign_seed))
            assert s.tolist() == report.model.s.tolist(), f"{mode} ({d}, {h}) trial {trial}"

    @pytest.mark.parametrize("scale", [1e-305, 1e-300, 1e-160, 1e-20, 1e-8, 1e-4, 1.0, 1e8, 1e160, 1e300])
    @pytest.mark.parametrize("corrupt", [_nudge_plus_end, _scale_a_row], ids=["end-off-by-1e-6", "row-times-1.01"])
    def test_corrupted_rows_or_ends_are_refused_by_the_residual(self, monkeypatch, corrupt, scale):
        # Both corruptions still round to a valid pattern; only the residual
        # check can refuse them. The failure is the sign phase's, on the first
        # line, with all h crossings found. The residual is judged after the
        # power-of-two scaling, so its bound is relative to max |Z| at every
        # weight scale. An absolute 1e-8 (1 + max|g|) passed both corruptions
        # on all 10 nets at 1e-8 and 1e-20, where the end gradients are far
        # below 1, and the nudged end at 1e-4 as well.
        search = extraction._search_line

        def corrupted(*args):
            z, crossings, ends = search(*args)
            z, ends = corrupt(z.copy(), [g.copy() for g in ends])
            return z, crossings, ends

        monkeypatch.setattr(extraction, "_search_line", corrupted)
        for seed in range(10):
            net = generate_random_net(12, 5, seed=seed)
            with pytest.raises(SignRecoveryError, match="leaves residual") as err:
                learn_model(Oracle(TwoLayerNet(net.A, net.w * scale)), ExtractionConfig(5, seed=seed))
            report = err.value.report
            assert (report.phase, report.retries, len(report.crossings)) == ("sign", 0, 5), f"net {seed}"

    def test_negating_a_row_swaps_its_sign_pair(self):
        # The search orients row i as sign(<A_i, v>) w_i A_i, and on rows so
        # oriented the end solve returns the known net's signs. Negating a
        # row breaks the orientation the solve relies on: it is refused by
        # the residual, never answered with a wrong s. The function itself is
        # unchanged when the row and its pair (s_i, s_{h+i}) are swapped together.
        pts = np.random.default_rng(4).standard_normal((200, 12))
        for seed in range(50):
            net = generate_random_net(12, 5, seed=seed)
            v = np.random.default_rng(seed + 1000).standard_normal(12)
            oracle = Oracle(net)
            ends = tuple(oracle.gradients([-v, v]))  # one request, as the search's first round
            oriented = recovered_from_net(net, row_signs=np.sign(net.A @ v))
            z, s = oriented.Z, extraction._end_signs(oriented.Z, v, ends)
            assert s.tolist() == oriented.s.tolist(), f"net {seed}"
            flipped = z.copy()
            flipped[2] *= -1.0
            with pytest.raises(SignRecoveryError, match="leaves residual"):
                extraction._end_signs(flipped, v, ends)
            swapped = s.copy()
            swapped[[2, 7]] = s[[7, 2]]
            assert_allclose(
                eval_recovered_batch(RecoveredModel(Z=flipped, s=swapped), pts),
                eval_recovered_batch(RecoveredModel(Z=z, s=s), pts),
                rtol=1e-12,
                atol=1e-12,
            )

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e-20, 1e-8, 1e8, 1e160, 1e200, 1e300])
    def test_any_weight_scale_verifies(self, scale):
        # Z Z^T squares the weights: at 1e+-160 and beyond it underflowed or
        # overflowed, and every net was refused in the sign phase ("not
        # positive definite", or "entry 0 = nan"). The sign step scales Z and
        # the ends by a power of two first, at every scale. Verified at the
        # unscaled weights: at 1e-300 any model would pass the relative test of f.
        for seed in range(10):
            net = generate_random_net(12, 5, seed=seed)
            report = learn_model(Oracle(TwoLayerNet(net.A, net.w * scale)), ExtractionConfig(5, seed=seed))
            assert report.retries == 0, f"net {seed}"
            unscaled = RecoveredModel(Z=report.model.Z / scale, s=report.model.s)
            assert functional_equivalence(net, unscaled, 1000, 1e-7, seed=seed).passed, f"net {seed}"

    def test_gradient_modes_spend_no_value_query_and_membership_d_plus_one(self, monkeypatch):
        # One query phase: grad and smoothgrad spend gradient queries only,
        # and membership spends d+1 values per search request and nothing
        # else. A split point's cell is decided once, and in one end's cell
        # it takes that end's gradient, so a part that keeps its parent's
        # row keeps its bytes and t*, and membership's rows (off by ~1e-10)
        # never move its search off grad's: on every retry-free pair of the
        # same seed its rounds request the unit points of grad's, round by
        # round (to 1e-8: its probes sit at a theta* from its own rows), so
        # it spends exactly d+1 values wherever grad spends one gradient. On (64, 8) trials 3 and 35 a t* recomputed from fresh
        # membership gradients (t* ~ -36.7, moved ~2e-8) fell inside a part
        # that keeps its parent's row.
        rounds = {"grad": [], "smoothgrad": [], "membership": []}

        def recorded(name):
            batch = getattr(Oracle, name)

            def request(oracle, X):
                # The search's one request per round: in membership, one values
                # call whose every (d+1)-th row is a requested unit point.
                if (oracle.mode == "membership") == (name == "values"):
                    rounds[oracle.mode].append(np.array(X)[:: oracle.d + 1 if name == "values" else 1])
                return batch(oracle, X)

            return request

        for name in ("gradients", "values"):
            monkeypatch.setattr(Oracle, name, recorded(name))
        pairs, parted = 0, []
        instances = [(20, 8, t) for t in range(50)] + [(16, 16, t) for t in range(50)] + [(64, 8, 3), (64, 8, 35)]
        for d, h, trial in instances:
            net, sg_seed, cfg_seed = _digest_instance(d, h, trial)
            cfg = ExtractionConfig(h, delta=0.1, c=0.01, seed=cfg_seed)
            for batches in rounds.values():
                batches.clear()
            sg = SmoothGradConfig(sigma=1e-9, n_samples=3, seed=sg_seed)
            reports = {
                mode: learn_model(Oracle(net, mode=mode, sg=sg), cfg) for mode in ("grad", "smoothgrad", "membership")
            }
            grad, membership = reports["grad"], reports["membership"]
            assert grad.value_queries == reports["smoothgrad"].value_queries == 0
            requested = sum(map(len, rounds["membership"]))
            assert (membership.gradient_queries, membership.value_queries) == (0, (d + 1) * requested)
            assert membership.rounds == len(rounds["membership"]) and grad.rounds == len(rounds["grad"])
            if grad.retries == membership.retries == 0:
                pairs += 1
                same_rounds = len(rounds["membership"]) == len(rounds["grad"]) and all(
                    np.allclose(p, x / np.linalg.norm(x, axis=1, keepdims=True), rtol=0.0, atol=1e-8)
                    for p, x in zip(rounds["membership"], rounds["grad"])
                )
                if membership.value_queries != (d + 1) * grad.gradient_queries or not same_rounds:
                    parted.append((d, h, trial))
        assert pairs == 101 and parted == []


class TestLearnModel:
    def test_single_unit_closed_form(self):
        net = single_unit_net()
        oracle = Oracle(net)
        report = learn_model(oracle, ExtractionConfig(h=1, delta=0.2, c=0.5, seed=10))
        pts = np.random.default_rng(11).standard_normal((1000, 2))
        got = eval_recovered_batch(report.model, pts)
        assert got == pytest.approx(2.0 * np.maximum(pts[:, 0], 0.0), abs=1e-7)

    def test_leaves_no_reference_cycle(self):
        # The search's closures call one way, so a run's objects are freed by
        # reference counting alone and the cyclic collector finds nothing.
        net = generate_random_net(16, 16, c_min=0.1, w_min=0.1, seed=0)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            report = learn_model(Oracle(net), ExtractionConfig(16, seed=0))
            assert report.retries == 0
            del report
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("phase", [None, "search", "sign"])
    def test_report_counts_its_own_run_on_a_reused_oracle(self, monkeypatch, phase):
        # Reports were read off the oracle's running ledger, so a second run
        # on one oracle reported both runs: 56 gradient queries in 16 rounds.
        oracle = Oracle(generate_random_net(20, 8, seed=1))
        if phase == "sign":
            def refuse(*args):
                raise SignRecoveryError("refused")

            monkeypatch.setattr(extraction, "_end_signs", refuse)

        def run():
            try:
                report = learn_model(oracle, ExtractionConfig(h=9 if phase == "search" else 8, seed=0))
            except GradleakError as err:
                report = err.report
            assert report.phase == phase
            return report.gradient_queries, report.value_queries, report.rounds

        first, second = run(), run()
        assert first == second
        assert tuple(2 * n for n in first) == (
            oracle.ledger.gradient_queries, oracle.ledger.value_queries, oracle.ledger.rounds,
        )
        if phase is None:
            assert first == (28, 0, 8)

    def test_full_instance_grad_mode(self):
        net = generate_random_net(20, 8, seed=12)
        oracle = Oracle(net)
        report = learn_model(oracle, ExtractionConfig(h=8, delta=0.1, c=0.01, seed=13))
        match = match_rows(net, report.model.Z)
        assert match.max_row_error <= 1e-7
        assert report.gradient_queries >= 8
        # Ledger conservation: gradient mode spends no value query. It spent
        # 16 on the 2h sign equations before the signs came from the search
        # line's end gradients.
        assert report.value_queries == 0

    def test_sign_residual_bound_scales_with_the_query_points(self):
        # At (16,16) the sign query points reach norms in the hundreds, and a
        # row error dZ moves each value by up to h |dZ| |x_j|. A bound blind
        # to |x_j| made recover_s refuse this correct membership model
        # ("rounded sign vector leaves residual 1.8e-7"). learn_model no
        # longer calls recover_s, so it is run on the model's rows with the
        # sign stream the attack gave it, and must return the same signs.
        net, _, cfg_seed = _digest_instance(16, 16, 3)
        oracle = Oracle(net, mode="membership")
        report = learn_model(oracle, ExtractionConfig(16, delta=0.1, c=0.01, seed=cfg_seed))
        sign_seed = np.random.SeedSequence(cfg_seed).spawn(2)[1]
        s = recover_s(oracle, report.model.Z, rng=np.random.default_rng(sign_seed))
        assert s.tolist() == report.model.s.tolist()
        assert functional_equivalence(net, report.model, 10_000, 1e-7, seed=0).passed

    @pytest.mark.parametrize(
        "d, h, net_seed, cfg_seed, gradient_queries, value_queries, retries, rounds",
        [
            (16, 16, 7000, 0, 56, 0, 0, 11),
            (128, 8, 7001, 1, 32, 0, 0, 15),
            (20, 8, 27, 3, 31, 0, 0, 10),
        ],
        ids=["16-16-7000-0", "128-8-7001-1", "20-8-27-3"],
    )
    def test_grad_query_counts_are_pinned(
        self, d, h, net_seed, cfg_seed, gradient_queries, value_queries, retries, rounds
    ):
        # Query counts are the attack's cost metric and deterministic for a
        # seed; a change in them must be explained, not absorbed. The ids
        # name the instance, not the counts, so a re-pin keeps them. They
        # fell from 79, 34 and 33 gradient queries when a failed certificate
        # probe became the next split point instead of a Cauchy-median split
        # made before any probe; the rows, and so the digests below, held.
        # The value queries fell from 2h (32, 16 and 16) to 0 when the signs
        # came from the search line's end gradients; the digests held again.
        # Rounds, the requests that carry the queries, were pinned when each
        # round began to serve every open bracket at once (before, every
        # query was its own request).
        net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
        report = learn_model(Oracle(net), ExtractionConfig(h, delta=0.1, c=0.01, seed=cfg_seed))
        assert (report.gradient_queries, report.value_queries, report.retries, report.rounds) == (
            gradient_queries,
            value_queries,
            retries,
            rounds,
        )
        assert functional_equivalence(net, report.model, 4096, 1e-7, seed=0).passed

    @pytest.mark.parametrize("d, h, net_seed, cfg_seed", [(16, 16, 7000, 0), (128, 8, 7001, 1), (20, 8, 27, 3)])
    def test_order_within_a_round_changes_nothing(self, monkeypatch, d, h, net_seed, cfg_seed):
        # A bracket's fate depends only on its own ends, so the order in which
        # a round's brackets are served cannot move a successful search. The
        # search pairs each round's brackets with their replies in its one
        # zip (in grad mode); a zip that shuffles the pairs serves every round
        # in a random order, which also reorders the requests of the next.
        net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)

        def outcome():
            report = learn_model(Oracle(net), ExtractionConfig(h, delta=0.1, c=0.01, seed=cfg_seed))
            blob = report.model.Z.tobytes() + report.model.s.astype(np.int64).tobytes()
            return blob, report.crossings, report.gradient_queries, report.retries, report.rounds

        reference = outcome()
        for seed in range(5):
            order, shuffles = np.random.default_rng(seed), []

            def shuffled(*iterables):
                pairs = list(zip(*iterables))
                shuffles.append(len(pairs))
                return [pairs[i] for i in order.permutation(len(pairs))]

            with monkeypatch.context() as patch:
                patch.setattr(extraction, "zip", shuffled, raising=False)
                assert outcome() == reference
            # Every round but the ends', whose replies are not zipped.
            assert len(shuffles) == reference[-1] - 1 and sum(shuffles) == reference[2] - 2

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
            ("membership", 12, 4, 40, 0, 208, 0, "0092e165e15c64b721a01003f5d77c6e"),
            ("membership", 12, 4, 41, 0, 182, 0, "0a5ab9160970356cb1b2db9eafdc5b7f"),
            ("membership", 20, 8, 40, 0, 588, 0, "ad9241fd099975b9b6c35a9ef3cf2793"),
            ("smoothgrad", 12, 4, 40, 16, 0, 0, "54e2e36fed6de171128b0312d9a7f0ef"),
            ("smoothgrad", 12, 4, 42, 15, 0, 0, "b4f25f4dd75115e9fd0985aa3070f540"),
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
        # rows are differences of cell gradients and do not. Failed probes
        # as split points took the counts from 307, 203, 814, 23 and 18 and
        # moved the membership bytes (the split points moved); the smoothgrad
        # bytes held. Signs from the search line's end gradients took 2h
        # value queries (8, 8, 16, 8, 8) off each count, and all bytes held.
        # All five were re-pinned when each request became one matrix
        # evaluation (the d+1 finite-difference points, the n_samples
        # smoothing draws): the bytes moved by summation-order rounding, and
        # the counts and retries held. The three membership bytes moved again
        # when the search went to the half-circle (its probes and splits sit
        # at other points); the counts and retries held. They moved once more
        # when each round's points became one (k, 2) x (2, d) product, which
        # rounds differently from the (2,) x (2, d) product of one point; the
        # counts and retries held, and the smoothgrad bytes too.
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

    @pytest.mark.parametrize("d, h, count", [(256, 128, 10), (512, 256, 4)])
    def test_wide_nets_verify_on_their_first_line(self, d, h, count):
        # On the line u + t v, far crossings graze it and t* errs by ~1e-16
        # (1 + t^2): at h = 128 (epsilon ~ 6e-12) brackets shrank below
        # epsilon with t* just outside them, and such lines were refused
        # ("fewer than h crossings are separated at resolution epsilon"). On
        # the half-circle theta* errs by ~1e-16 wherever it lies, and every
        # outcome-digest net of these widths verifies on its first line.
        for trial in range(count):
            net, _, cfg_seed = _digest_instance(d, h, trial)
            report = learn_model(Oracle(net), ExtractionConfig(h, delta=0.1, c=0.01, seed=cfg_seed))
            assert report.retries == 0, f"({d}, {h}) trial {trial}"
            assert functional_equivalence(net, report.model, 4096, 1e-7, seed=trial).passed

    def test_too_few_crossings_are_refused_without_a_query(self):
        # One crossing on the line, at t = 1.35: the line's ends differ, and
        # h=1 certifies the whole line at once (4 gradient queries). An
        # assumed h=2 spends the same 4 certifying it and then has no bracket
        # left: refused without a query more. (Splitting until h brackets
        # were kinked halved the one bracket down to epsilon first, 16.)
        net = single_unit_net()

        def config(h):
            return ExtractionConfig(h=h, epsilon=1e-3, seed=3, max_retries=0)

        one = learn_model(Oracle(net), config(1))
        oracle = Oracle(net)
        with pytest.raises(ExtractionFailure, match="fewer than h crossings lie on the line"):
            learn_model(oracle, config(2))
        # Sign recovery spends no query, so these are all search.
        assert (one.gradient_queries, one.value_queries, oracle.ledger.gradient_queries) == (4, 0, 4)

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

    @pytest.mark.parametrize(
        "d, h, sigma, expected",
        [(6, 2, 0.1, {"verified", "refused"}), (6, 2, 0.3, {"refused"}), (12, 4, 0.03, {"verified", "refused"})],
        ids=["6-2-0.1", "6-2-0.3", "12-4-0.03"],
    )
    def test_blurred_smoothgrad_is_exact_or_refused(self, d, h, sigma, expected):
        # Large sigma blurs the gradients at the line's ends, which the sign
        # solve reads, as well as those near each crossing. The search is the
        # guard: no blurred end gradient slips a wrong sign vector through.
        # At sigma = 0.1 and 0.03 the regime verifies on some of its 60 nets
        # and refuses the rest (46/14 and 29/31 ok/refused, all refused in
        # the search). At sigma = 0.3 the 8-sigma probe margin exceeds pi/2
        # on most lines, where the whole half-circle lies within the blur,
        # and every net is refused; before such lines were refused, 1 of 60
        # verified, on a line whose noise draws happened to certify.
        outcomes = set()
        for trial in range(60):
            net_seed, sg_seed, cfg_seed = (
                int(s) for s in np.random.SeedSequence([9400, d, h, trial]).generate_state(3, dtype=np.uint64)
            )
            net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
            oracle = Oracle(net, mode="smoothgrad", sg=SmoothGradConfig(sigma=sigma, n_samples=3, seed=sg_seed))
            try:
                report = learn_model(oracle, ExtractionConfig(h, seed=cfg_seed))
            except GradleakError:
                outcomes.add("refused")
                continue
            eq = functional_equivalence(net, report.model, 10_000, 1e-7, seed=trial)
            assert eq.passed, f"trial {trial}: verify error {eq.max_rel_error:.3e}"
            outcomes.add("verified")
        assert outcomes == expected

    @pytest.mark.parametrize("scale", [1e-300, 1e-20, 1e-8, 1e160, 1e300])
    @pytest.mark.parametrize("mode", ["membership", "smoothgrad"])
    def test_extreme_weights_are_verified_or_refused_without_a_warning(self, mode, scale):
        # |g|^2 overflowed in extraction._norm, through the Euler check in
        # membership and the cell test and probe margin in smoothgrad, and
        # its RuntimeWarning left the attack path as an exception that is no
        # GradleakError. Every run now ends verified or refused. Uniformly
        # tiny weights are refused today; a mode that learns to extract them
        # must return models that verify.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(10):
                net = generate_random_net(12, 5, seed=seed)
                oracle = Oracle(TwoLayerNet(net.A, net.w * scale), mode, SmoothGradConfig(sigma=1e-9, seed=seed))
                try:
                    report = learn_model(oracle, ExtractionConfig(5, seed=seed))
                except GradleakError:
                    continue
                unscaled = RecoveredModel(Z=report.model.Z / scale, s=report.model.s)
                assert functional_equivalence(net, unscaled, 1000, 1e-7, seed=seed).passed, f"net {seed}"

    def test_norm_keeps_its_bytes_where_the_square_is_finite(self):
        x = np.random.default_rng(0).standard_normal(12)
        for scale in (1e-160, 1.0, 1e150):
            assert extraction._norm(x * scale) == math.sqrt(float((x * scale) @ (x * scale)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e160, 1e300):
                assert extraction._norm(x * scale) == pytest.approx(scale * extraction._norm(x), rel=1e-15)

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

        search = extraction._search_line

        def duplicated_row(*args):  # a Z whose sign system is really singular
            z, crossings, ends = search(*args)
            return z[[0, 0, 2, 3, 4]], crossings, ends

        net = generate_random_net(12, 5, seed=1)
        oracle = Oracle(net)
        with monkeypatch.context() as patch:
            patch.setattr(extraction, "_search_line", duplicated_row)
            with pytest.raises(GradleakError) as sign_err:
                learn_model(oracle, ExtractionConfig(h=5, seed=0))
        assert sign_err.value.report.phase == "sign"
        assert sign_err.value.report.retries == 0
        assert len(sign_err.value.report.crossings) == 5
        assert oracle.ledger.value_queries == 0

        cfg = ExtractionConfig(h=8, seed=0, max_retries=1)
        with pytest.raises(ExtractionFailure) as search_err:
            learn_model(Oracle(net), cfg)
        assert search_err.value.report.phase == "search"
        assert search_err.value.report.retries == 1
        assert search_err.value.report.crossings == []

    def test_each_refused_line_keeps_its_reason(self, monkeypatch):
        # epsilon = 0.5 refuses some lines of this net (see
        # test_retry_counter_reflects_failed_attempts); the first seed whose
        # model comes after a refused line lists one reason per retry.
        net = TwoLayerNet(A=np.eye(2), w=np.ones(2))
        reasons = []
        search = extraction._search_line

        def noted(*args):
            try:
                return search(*args)
            except ExtractionFailure as err:
                reasons.append(str(err))
                raise

        monkeypatch.setattr(extraction, "_search_line", noted)
        for seed in range(40):
            reasons.clear()
            try:
                report = learn_model(Oracle(net), ExtractionConfig(h=2, epsilon=0.5, seed=seed, max_retries=5))
            except ExtractionFailure:
                continue
            if report.retries:
                break
        assert report.retries > 0
        assert report.report_dict()["refusals"] == report.refusals == reasons
        assert len(report.refusals) == report.retries

        # A search failure refuses every line: the last reason is the one
        # its message names, which stays as it was.
        reasons.clear()
        with pytest.raises(ExtractionFailure) as search_err:
            learn_model(Oracle(generate_random_net(12, 5, seed=1)), ExtractionConfig(h=8, seed=0, max_retries=2))
        err = search_err.value
        assert err.report.refusals == reasons and len(err.report.refusals) == err.report.retries + 1 == 3
        assert str(err) == f"all 3 search attempts failed; last: {reasons[-1]}"

        # A sign failure after a refused line keeps that line's reason.
        calls = []

        def refuse_once_then_duplicate(*args):
            calls.append(None)
            if len(calls) == 1:
                raise ExtractionFailure("more than h crossings lie on the line")
            z, crossings, ends = search(*args)
            return z[[0, 0, 2, 3, 4]], crossings, ends

        monkeypatch.setattr(extraction, "_search_line", refuse_once_then_duplicate)
        with pytest.raises(SignRecoveryError) as sign_err:
            learn_model(Oracle(generate_random_net(12, 5, seed=1)), ExtractionConfig(h=5, seed=0))
        err = sign_err.value
        assert (err.report.phase, err.report.retries, err.report.refusals) == (
            "sign", 1, ["more than h crossings lie on the line"],
        )

    def test_wrong_width_signals_failure(self):
        from gradleak.errors import SignRecoveryError

        net = generate_random_net(12, 4, seed=16)
        oracle = Oracle(net)
        cfg = ExtractionConfig(h=5, delta=0.1, c=0.01, seed=17, max_retries=2)
        with pytest.raises((ExtractionFailure, SignRecoveryError)):
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
            "rounds",
            "crossings",
            "refusals",
        }
        assert payload["success"] is True
        assert len(payload["crossings"]) == 1
        assert payload["refusals"] == []
