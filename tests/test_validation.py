"""Equivalence checks, row matching, and the Monte Carlo bound suite."""

import math

import numpy as np
import pytest

from gradleak import (
    ConfigError,
    FiniteDiffConfig,
    MatchAmbiguityError,
    RecoveredModel,
    TwoLayerNet,
    check_fd_exactness,
    functional_equivalence,
    generate_random_net,
    match_rows,
    mc_cauchy_tail,
    mc_chi2_diff,
    mc_crossing_gap,
    mc_gaussian_product,
    recovered_from_net,
    select_parameters,
    membership_step_bound,
)
from gradleak.validation import _ks_distance

MC_SAMPLES = 200_000


class TestFunctionalEquivalence:
    def test_reference_recovery_is_equivalent(self):
        net = generate_random_net(10, 5, seed=0)
        model = recovered_from_net(net)
        report = functional_equivalence(net, model, 10_000, 1e-12, seed=1)
        assert report.max_rel_error <= 1e-12
        assert report.passed and not report.vacuous

    def test_flipped_sign_detected(self):
        net = generate_random_net(10, 5, seed=2)
        ref = recovered_from_net(net)
        s = ref.s.copy()
        idx = int(np.flatnonzero(s)[0])
        s[idx] = -s[idx]
        broken = RecoveredModel(Z=ref.Z, s=s)
        report = functional_equivalence(net, broken, 10_000, 1e-7, seed=3)
        assert report.max_rel_error > 0.01
        assert not report.passed

    def test_zero_points_vacuous(self):
        net = generate_random_net(4, 2, seed=4)
        report = functional_equivalence(net, recovered_from_net(net), 0, 1e-7, seed=5)
        assert report.max_rel_error == 0.0
        assert report.vacuous and report.passed

    def test_dimension_mismatch(self):
        net = generate_random_net(4, 2, seed=6)
        other = recovered_from_net(generate_random_net(5, 2, seed=7))
        with pytest.raises(ValueError):
            functional_equivalence(net, other, 10, 1e-7, seed=8)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        # A NaN tolerance would fail `worst <= tol` on a matching model.
        net = generate_random_net(4, 2, seed=9)
        with pytest.raises(ValueError, match="tol"):
            functional_equivalence(net, recovered_from_net(net), 10, tol, seed=10)
        with pytest.raises(ValueError, match="tol"):
            functional_equivalence(net, recovered_from_net(net), 0, tol, seed=10)


class TestMatchRows:
    def test_permuted_copy(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, -1.0]))
        targets = net.w[:, None] * net.A
        z = targets[[1, 0]]
        result = match_rows(net, z)
        assert result.permutation.tolist() == [1, 0]
        assert result.signs.tolist() == [1, 1]
        assert result.max_row_error == 0.0

    def test_sign_flip(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, -1.0]))
        targets = net.w[:, None] * net.A
        z = targets.copy()
        z[0] = -z[0]
        result = match_rows(net, z)
        assert result.permutation.tolist() == [0, 1]
        assert result.signs.tolist() == [-1, 1]
        assert result.max_row_error == 0.0

    def test_hand_example(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, -1.0]))
        z = np.array([[0.0, -1.0], [1.0, 0.0]])
        result = match_rows(net, z)
        assert result.permutation.tolist() == [1, 0]
        assert result.signs.tolist() == [1, 1]
        assert result.max_row_error == 0.0

    def test_duplicate_rows_ambiguous(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 1.0]))
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(MatchAmbiguityError):
            match_rows(net, z)

    def test_randomized_permutations_recovered(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            net = generate_random_net(8, 4, seed=trial + 50)
            perm = rng.permutation(4)
            signs = rng.choice([-1.0, 1.0], size=4)
            z = np.empty((4, 8))
            for i in range(4):
                z[perm[i]] = signs[i] * net.w[i] * net.A[i]
            result = match_rows(net, z)
            assert result.permutation.tolist() == perm.tolist()
            assert result.signs.tolist() == [int(s) for s in signs]
            assert result.max_row_error <= 1e-15


class TestCrossingGapBound:
    def test_moderate_resolution(self):
        report = mc_crossing_gap(0.5, 1e-3, MC_SAMPLES, seed=0)
        assert report.bound == pytest.approx(0.0687, abs=2e-4)
        assert report.empirical_prob <= report.bound
        assert report.passed and not report.vacuous

    def test_zero_resolution(self):
        report = mc_crossing_gap(0.5, 0.0, 50_000, seed=1)
        assert report.empirical_prob == 0.0
        assert report.bound == 0.0
        assert report.passed

    def test_vacuous_bound_flagged(self):
        report = mc_crossing_gap(0.5, 0.2, 50_000, seed=2)
        assert report.bound > 1.0
        assert report.vacuous and report.passed


class TestCauchyTailBound:
    def test_l_ten(self):
        report = mc_cauchy_tail(10.0, MC_SAMPLES, seed=1)
        assert report.bound == pytest.approx(2.0 / (10.0 * math.pi))
        assert report.exact == pytest.approx(0.063451, abs=1e-6)
        assert report.passed

    def test_l_one_exact_half(self):
        report = mc_cauchy_tail(1.0, MC_SAMPLES, seed=3)
        assert report.exact == pytest.approx(0.5)
        assert report.bound == pytest.approx(2.0 / math.pi)
        assert report.empirical_prob == pytest.approx(0.5, abs=0.01)
        assert report.passed

    def test_large_l_vanishing_tail(self):
        report = mc_cauchy_tail(1e4, MC_SAMPLES, seed=4)
        assert report.empirical_prob <= 1e-3
        assert report.passed


class TestChiSquaredDifferenceBound:
    def test_small_epsilon(self):
        report = mc_chi2_diff(0.1, MC_SAMPLES, seed=5)
        assert report.exact == pytest.approx(0.048771, abs=1e-6)
        assert report.empirical_prob <= 0.1
        assert report.passed

    def test_zero_epsilon(self):
        report = mc_chi2_diff(0.0, 50_000, seed=6)
        assert report.empirical_prob == 0.0
        assert report.exact == 0.0

    def test_vacuous_large_epsilon(self):
        report = mc_chi2_diff(2.0, MC_SAMPLES, seed=7)
        assert report.exact == pytest.approx(1.0 - math.exp(-1.0))
        assert report.vacuous and report.passed


class TestGaussianProductIdentity:
    def test_moments_and_distance(self):
        report = mc_gaussian_product(MC_SAMPLES, seed=8)
        assert report.empirical_prob <= 0.01
        assert report.passed

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            mc_gaussian_product(100, seed=9)


def _ks_brute(xs, ys):
    grid = np.union1d(xs, ys)
    return max(abs(np.sum(xs <= g) / xs.size - np.sum(ys <= g) / ys.size) for g in grid)


class TestKsDistance:
    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n, m = (int(k) for k in rng.integers(1, 40, size=2))
            xs = np.round(rng.standard_normal(n), 1)
            ys = np.round(rng.standard_normal(m) + 0.3, 1)
            assert _ks_distance(xs, ys) == _ks_brute(xs, ys)

    def test_one_element_side(self):
        xs = np.array([0.5])
        ys = np.array([-1.0, 0.5, 0.5, 2.0])
        assert _ks_distance(xs, ys) == _ks_brute(xs, ys) == 0.25
        assert _ks_distance(ys, xs) == 0.25
        assert _ks_distance(xs, np.array([0.5])) == 0.0


class TestNonFiniteParameters:
    @pytest.mark.parametrize("c, epsilon", [(math.nan, 1e-3), (0.5, math.nan), (0.5, math.inf)])
    def test_crossing_gap(self, c, epsilon):
        with pytest.raises(ValueError):
            mc_crossing_gap(c, epsilon, 10_000, seed=0)

    @pytest.mark.parametrize("l", [math.nan, math.inf])
    def test_cauchy_tail(self, l):
        with pytest.raises(ValueError):
            mc_cauchy_tail(l, 10_000, seed=0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_chi2_diff(self, epsilon):
        with pytest.raises(ValueError):
            mc_chi2_diff(epsilon, 10_000, seed=0)


class TestSeededStreams:
    def test_fixed_seed_reproduces(self):
        a = mc_cauchy_tail(10.0, 50_000, seed=10)
        b = mc_cauchy_tail(10.0, 50_000, seed=10)
        assert a.empirical_prob == b.empirical_prob

    def test_stream_is_pinned(self):
        # Draws come from the first child of SeedSequence(seed), so a lemma
        # report is a fixed function of its seed.
        assert mc_chi2_diff(0.5, 100_000, seed=11).empirical_prob == 0.21986

    def test_every_lemma_stream_is_pinned(self):
        assert mc_crossing_gap(0.5, 1e-3, 100_000, seed=12).empirical_prob == 0.00046
        assert mc_cauchy_tail(10.0, 100_000, seed=13).empirical_prob == 0.06251
        product = mc_gaussian_product(100_000, seed=14)
        assert product.empirical_prob == 0.0037000000000000366
        assert product.passed

    def test_multi_chunk_streams_are_pinned(self):
        # More than one _MC_CHUNK of draws: the second chunk continues the
        # same generator.
        samples = (1 << 20) + 1000
        assert mc_chi2_diff(0.1, samples, seed=15).empirical_prob == 0.0486377356189547
        assert mc_crossing_gap(0.5, 1e-3, samples, seed=16).empirical_prob == 0.00042683902833144053


class TestFdExactness:
    def test_clear_points_are_exact(self):
        net = generate_random_net(12, 6, seed=12)
        report = check_fd_exactness(net, FiniteDiffConfig(eta=1e-2), 300, seed=13)
        assert report.passed
        assert report.max_rel_error <= 1e-9
        assert report.counterexample is None

    def test_oversized_step_raises(self):
        net = generate_random_net(6, 4, seed=14)
        with pytest.raises(ConfigError):
            check_fd_exactness(net, FiniteDiffConfig(eta=50.0), 100, seed=15)

    @pytest.mark.parametrize("grid_trials", [0, -3])
    def test_bad_grid_trials_refused(self, grid_trials):
        net = generate_random_net(6, 2, seed=16)
        with pytest.raises(ValueError, match="grid_trials must be at least 1"):
            check_fd_exactness(
                net, FiniteDiffConfig(eta=1e-3), 5, seed=17,
                grid_l=10.0, grid_epsilon=1e-3, grid_trials=grid_trials,
            )

    def test_grid_event_rate_bounded(self):
        eps, l = select_parameters(0.1, 0.5, 2)
        eta = membership_step_bound(0.1, eps, l, 2)
        net = generate_random_net(6, 2, seed=16)
        report = check_fd_exactness(
            net,
            FiniteDiffConfig(eta=eta),
            50,
            seed=17,
            grid_l=l,
            grid_epsilon=eps,
            grid_trials=2000,
        )
        assert report.grid is not None
        assert report.grid.bound == pytest.approx(0.05263, abs=1e-4)
        assert report.grid.passed
