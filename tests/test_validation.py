"""Equivalence checks, row matching, and the Monte Carlo bound suite."""

import math
import tracemalloc
import zlib
from statistics import NormalDist

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
)
from gradleak import validation
from gradleak.model import eval_recovered_batch, eval_target_batch
from gradleak.validation import (
    PRODUCT_FALSE_ALARM,
    _BLOCK,
    _KS_BOUND,
    _MC_CHUNK,
    _PRODUCT_MOMENT_VARS,
    _PRODUCT_MOMENTS,
    _PRODUCT_Z,
    _ks_distance,
    _product_checks,
    _stream,
)

MC_SAMPLES = 200_000


def _block_grid():
    """(d, h, net seed, n_points) just below, at and above one block, and not a multiple of one."""
    for d, h in ((1, 1), (16, 16), (128, 8), (512, 16), (4096, 4)):
        rows = max(512, (1 << 16) // d)
        for n in (rows - 1, rows, rows + 1, 2 * rows + 300, 2 * rows + 700):
            yield d, h, d, n


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

    @pytest.mark.parametrize("n_points", [-1, 2.5, True, np.float64(3.0)])
    def test_point_count_that_is_not_a_non_negative_integer_refused(self, n_points):
        # 2.5 and True leaked numpy's TypeError; a bool is refused though Python counts it an int.
        net = generate_random_net(4, 2, seed=9)
        with pytest.raises(ValueError, match="n_points must be a non-negative integer"):
            functional_equivalence(net, recovered_from_net(net), n_points, 1e-7, seed=10)

    def test_numpy_integer_point_count_accepted(self):
        net = generate_random_net(4, 2, seed=9)
        report = functional_equivalence(net, recovered_from_net(net), np.int64(10), 1e-7, seed=10)
        assert report.n_points == 10 and report.passed

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        # A NaN tolerance would fail `worst <= tol` on a matching model.
        net = generate_random_net(4, 2, seed=9)
        with pytest.raises(ValueError, match="tol"):
            functional_equivalence(net, recovered_from_net(net), 10, tol, seed=10)
        with pytest.raises(ValueError, match="tol"):
            functional_equivalence(net, recovered_from_net(net), 0, tol, seed=10)

    def test_blocks_are_bounded_by_rows(self):
        # At d = 512 a block is 512 rows (2 MiB) and the remainder of 392 rows
        # joins the last one: the 5000 points (19.5 MiB) are never held at
        # once, and the report is the one-draw report.
        d, n = 512, 5000
        net = generate_random_net(d, 4, seed=11)
        exact = recovered_from_net(net)
        perturbed = RecoveredModel(Z=exact.Z * (1.0 + 1e-9), s=exact.s)
        for model in (exact, perturbed):
            expected = _one_draw_error(net, model, n, 12)
            tracemalloc.start()
            try:
                report = functional_equivalence(net, model, n, 1e-7, seed=12)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.max_rel_error == expected
            assert peak < 4 << 20  # the 904-row buffer is 3.5 MiB

    @pytest.mark.parametrize("d, n, sizes", [
        (128, 511, [511]),
        (128, 1023, [1023]),
        (128, 1024, [512, 512]),
        (128, 1600, [512, 512, 576]),
        (512, 5000, [512] * 8 + [904]),
        (16, 4097, [4097]),
        (16, 4608, [4096, 512]),
        (16, 9000, [4096, 4096, 808]),
        (1, 66_047, [66_047]),
        (1, 70_000, [65_536, 4464]),
    ])
    def test_no_block_is_under_512_rows(self, monkeypatch, d, n, sizes):
        # Blocks of max(512, 2**16 // d) rows; a remainder under 512 rows joins the last one.
        net = generate_random_net(d, 1, seed=1)
        seen = []
        evaluate = validation.eval_target_batch
        monkeypatch.setattr(validation, "eval_target_batch", lambda net, pts: (seen.append(len(pts)), evaluate(net, pts))[1])
        functional_equivalence(net, recovered_from_net(net), n, 1e-7, seed=2)
        assert seen == sizes

    @pytest.mark.parametrize("d, h, net_seed, n", [
        *_block_grid(),
        # Chunks of 2**20 numbers, 174 rows at this d, gave 4.47e-15 here
        # against one draw's 7.17e-15.
        (6000, 8, 13, 700),
    ])
    def test_report_is_the_one_draw_report(self, d, h, net_seed, n):
        net = generate_random_net(d, h, seed=net_seed)
        exact = recovered_from_net(net)
        near = RecoveredModel(Z=exact.Z * (1.0 + 1e-12), s=exact.s)
        for model in (exact, near):
            assert functional_equivalence(net, model, n, 1e-7, seed=12).max_rel_error == _one_draw_error(net, model, n, 12)

    @pytest.mark.parametrize("n", [4096, 40960])
    def test_traced_peak_is_one_block(self, n):
        # 512 rows of 128 numbers (512 KiB) at a time, whatever n is.
        net = generate_random_net(128, 8, seed=3)
        tracemalloc.start()
        try:
            functional_equivalence(net, recovered_from_net(net), n, 1e-7, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * (1 << 20)


def _one_draw_error(net, model, n, seed):
    """functional_equivalence's report from one (n, d) draw of every point."""
    pts = np.random.default_rng(seed).standard_normal((n, net.d))
    f = eval_target_batch(net, pts)
    return float(np.max(np.abs(f - eval_recovered_batch(model, pts)) / (1.0 + np.abs(f))))


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

    @pytest.mark.parametrize("shape", [(3, 4), (2, 5), (8,), (2, 4, 1)])
    def test_z_of_the_wrong_shape_refused(self, shape):
        net = generate_random_net(4, 2, seed=5)
        with pytest.raises(ValueError, match=r"Z must have shape \(2, 4\)"):
            match_rows(net, np.ones(shape))

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

    @pytest.mark.parametrize("bench_seed, instance", [(2001, 6), (2004, 14)])
    def test_family_wise_rate_passes_chance_outliers(self, bench_seed, instance):
        # The product check of these lemma-workload instances (perfbench
        # run.py seeding) has a worst moment z-score of 3.40 and 3.16: a
        # correct sampler, failed by the former per-check 3-sigma rule.
        child = np.random.SeedSequence([bench_seed, zlib.crc32(b"lemmas")]).spawn(40)[instance]
        op_seed = int(child.generate_state(3, dtype=np.uint64)[1])
        seed = int(np.random.SeedSequence(op_seed).generate_state(4, dtype=np.uint64)[3])
        assert mc_gaussian_product(1_000_000, seed=seed).passed

    def test_family_wise_rate_is_bonferroni(self):
        assert PRODUCT_FALSE_ALARM == 0.0027
        assert _PRODUCT_Z == pytest.approx(NormalDist().inv_cdf(1.0 - PRODUCT_FALSE_ALARM / 10.0), rel=1e-15)

    def test_scaled_sampler_fails(self):
        # XY scaled by 1.01 moves the second moment by 0.0201, about 7
        # standard errors at 1e6 samples.
        rng = np.random.default_rng(17)
        n = 1_000_000
        prod = rng.standard_normal(n) * rng.standard_normal(n)
        ref = 0.5 * (rng.standard_normal(100_000) ** 2 - rng.standard_normal(100_000) ** 2)
        assert _product_checks(prod.copy(), ref)[1]
        assert not _product_checks(1.01 * prod, ref)[1]


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


class TestSampleCount:
    # A sample count that is not an integer, or is a boolean, is refused
    # before any draw, as a plain ValueError rather than numpy's TypeError.
    CHECKS = {
        "gap": lambda samples: mc_crossing_gap(0.5, 1e-3, samples, seed=0),
        "tail": lambda samples: mc_cauchy_tail(10.0, samples, seed=0),
        "chi2diff": lambda samples: mc_chi2_diff(0.1, samples, seed=0),
        "product": lambda samples: mc_gaussian_product(samples, seed=0),
    }

    @pytest.mark.parametrize("samples", [0.1, 1e5, True, "100000", None])
    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_non_integer_refused(self, check, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            self.CHECKS[check](samples)

    def test_numpy_integer_and_too_few(self):
        assert mc_cauchy_tail(10.0, np.int64(1000), seed=0).samples == 1000
        with pytest.raises(ValueError, match="at least 1"):
            mc_chi2_diff(0.1, 0, seed=0)
        with pytest.raises(ValueError, match="at least 10000"):
            mc_gaussian_product(9_999, seed=0)


class TestSeededStreams:
    def test_fixed_seed_reproduces(self):
        a = mc_cauchy_tail(10.0, 50_000, seed=10)
        b = mc_cauchy_tail(10.0, 50_000, seed=10)
        assert a.empirical_prob == b.empirical_prob

    def test_stream_is_pinned(self):
        # Draws come from the first child of SeedSequence(seed), so a lemma
        # report is a fixed function of its seed.
        assert mc_chi2_diff(0.5, 100_000, seed=11).empirical_prob == 0.22171

    def test_every_lemma_stream_is_pinned(self):
        assert mc_crossing_gap(0.5, 1e-3, 100_000, seed=12).empirical_prob == 0.00046
        assert mc_cauchy_tail(10.0, 100_000, seed=13).empirical_prob == 0.06251
        product = mc_gaussian_product(100_000, seed=14)
        assert product.empirical_prob == 0.0037000000000000366
        assert product.passed

    def test_product_stream_above_the_distance_cap_is_pinned(self):
        # Above _KS_SAMPLE_CAP the reference draws only its distance sample.
        product = mc_gaussian_product(200_000, seed=14)
        assert product.empirical_prob == 0.0040400000000000436
        assert product.passed

    def test_chi2_stream_is_numpys_chi_squared_sampler(self):
        # Q and R are the draws of rng.chisquare(2.0, (2, n)) on the first
        # child stream, read at half scale.
        n, epsilon = 100_000, 0.5
        rng = np.random.default_rng(np.random.SeedSequence(11).spawn(1)[0])
        q, r = rng.chisquare(2.0, (2, n))
        assert mc_chi2_diff(epsilon, n, seed=11).empirical_prob == np.count_nonzero(np.abs(q - r) <= epsilon) / n

    def test_multi_chunk_streams_are_pinned(self):
        # More than one _MC_CHUNK of draws: the second chunk continues the
        # same generator.
        samples = (1 << 20) + 1000
        assert mc_chi2_diff(0.1, samples, seed=15).empirical_prob == 0.049171284404369
        assert mc_crossing_gap(0.5, 1e-3, samples, seed=16).empirical_prob == 0.00042683902833144053


def _full_draw_rate(samples, seed, event):
    """The hit rate of event over _MC_CHUNK-sized chunks of the first child stream of seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    hits, done = 0, 0
    while done < samples:
        n = min(samples - done, _MC_CHUNK)
        hits += int(event(rng, n))
        done += n
    return hits / samples


def _gap_full_draw(c, epsilon, samples, seed):
    b2 = math.sqrt(1.0 - (1.0 - c) ** 2)

    def event(rng, n):
        au, bu = rng.standard_normal((2, n))
        av, bv = rng.standard_normal((2, n))
        bu = b2 * bu + (1.0 - c) * au
        bv = b2 * bv + (1.0 - c) * av
        return np.count_nonzero(np.abs(au / av - bu / bv) <= epsilon)

    return _full_draw_rate(samples, seed, event)


def _tail_full_draw(l, samples, seed):
    def event(rng, n):
        num, den = rng.standard_normal((2, n))
        return np.count_nonzero(np.abs(num / den) >= l)

    return _full_draw_rate(samples, seed, event)


def _chi2_full_draw(epsilon, samples, seed):
    def event(rng, n):
        q, r = rng.standard_exponential((2, n))
        return np.count_nonzero(np.abs(q - r) <= 0.5 * epsilon)

    return _full_draw_rate(samples, seed, event)


def _product_full_draw(samples, seed):
    rng_a, rng_b = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    n_ks = min(samples, 100_000)
    prod = rng_a.standard_normal(samples) * rng_a.standard_normal(samples)
    ref = 0.5 * (rng_b.standard_normal(n_ks) ** 2 - rng_b.standard_normal(n_ks) ** 2)
    p2 = prod * prod
    moments_ok = all(
        abs(float(np.mean(power)) - _PRODUCT_MOMENTS[k])
        <= _PRODUCT_Z * math.sqrt(_PRODUCT_MOMENT_VARS[k] / samples)
        for k, power in enumerate((prod, p2, p2 * prod, p2 * p2))
    )
    distance = _ks_distance(prod[:n_ks], ref)
    slack = _PRODUCT_Z * math.sqrt(_KS_BOUND * (1.0 - _KS_BOUND) / n_ks)
    return distance, moments_ok and distance <= _KS_BOUND + slack


class TestStreamedDraws:
    # Each check holds its first draws and streams the last one block by
    # block; these are the numbers, and the reports, of the (2, n) draws.
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("method", ["standard_normal", "standard_exponential"])
    def test_held_row_then_blocks_is_the_two_row_draw(self, n, method):
        rng = np.random.default_rng(n)
        held = getattr(rng, method)(n)
        streamed = np.empty(n)
        covered = 0
        for part, block in _stream(getattr(rng, method), n):
            assert part.start == covered and block.size == part.stop - part.start <= _BLOCK
            streamed[part] = block
            covered = part.stop
        assert covered == n
        full = getattr(np.random.default_rng(n), method)((2, n))
        np.testing.assert_array_equal(held, full[0])
        np.testing.assert_array_equal(streamed, full[1])

    @pytest.mark.parametrize("n", [1, 7, _BLOCK + 1, _MC_CHUNK + 1000])
    def test_rates_are_the_full_draw_rates(self, n):
        assert mc_crossing_gap(0.5, 1e-3, n, seed=21).empirical_prob == _gap_full_draw(0.5, 1e-3, n, 21)
        assert mc_crossing_gap(0.9, 0.3, n, seed=22).empirical_prob == _gap_full_draw(0.9, 0.3, n, 22)
        assert mc_cauchy_tail(1.0, n, seed=23).empirical_prob == _tail_full_draw(1.0, n, 23)
        assert mc_chi2_diff(0.5, n, seed=24).empirical_prob == _chi2_full_draw(0.5, n, 24)

    @pytest.mark.parametrize("samples", [10_000, _BLOCK + 1, _MC_CHUNK + 1000])
    def test_product_is_the_full_draw_product(self, samples):
        report = mc_gaussian_product(samples, seed=25)
        assert (report.empirical_prob, report.passed) == _product_full_draw(samples, 25)


class TestTracedPeaks:
    # At 1e6 samples a check holds only the draws its arithmetic needs at
    # once: 3, 1, 1 and 2 arrays of n float64 (7.6 MiB each), plus blocks.
    @pytest.mark.parametrize(
        "check, bound_mib",
        [
            (lambda: mc_crossing_gap(0.5, 1e-3, 1_000_000, seed=1), 24),
            (lambda: mc_cauchy_tail(10.0, 1_000_000, seed=1), 9),
            (lambda: mc_chi2_diff(0.1, 1_000_000, seed=1), 9),
            (lambda: mc_gaussian_product(1_000_000, seed=1), 19),
        ],
        ids=["gap", "tail", "chi2diff", "product"],
    )
    def test_peak(self, check, bound_mib):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib << 20


class TestFdExactness:
    def test_clear_points_are_exact(self):
        net = generate_random_net(12, 6, seed=12)
        report = check_fd_exactness(net, FiniteDiffConfig(eta=1e-2), 300, seed=13)
        assert report.passed
        assert report.max_rel_error <= 1e-9
        assert report.counterexample is None

    def test_rounding_is_a_counterexample_at_zero_tolerance(self):
        # Acceptance criterion 6's first net: at rel_tol=0 the rounding of a
        # finite difference fails a point, which is reported and lies clear
        # of every hyperplane by more than the step.
        net = generate_random_net(20, 8, c_min=0.1, w_min=0.1, seed=60)
        report = check_fd_exactness(net, FiniteDiffConfig(eta=1e-2), 500, seed=60, rel_tol=0.0)
        assert report.passed is False
        assert 0.0 < report.max_rel_error <= 1e-9
        assert np.min(np.abs(net.A @ report.counterexample)) > 1e-2

    @pytest.mark.parametrize("trials", [0, -3, 2.5, True, np.float64(3.0)])
    def test_trial_count_that_is_not_a_positive_integer_refused(self, trials):
        # 2.5 leaked numpy's TypeError, and True ran one trial and reported trials=True.
        net = generate_random_net(6, 2, seed=16)
        with pytest.raises(ValueError, match="trials must be an integer of at least 1"):
            check_fd_exactness(net, FiniteDiffConfig(eta=1e-3), trials, seed=17)

    def test_numpy_integer_trial_count_accepted(self):
        net = generate_random_net(6, 2, seed=16)
        report = check_fd_exactness(net, FiniteDiffConfig(eta=1e-3), np.int64(3), seed=17)
        assert report.trials == 3 and report.passed

    def test_oversized_step_raises(self):
        net = generate_random_net(6, 4, seed=14)
        with pytest.raises(ConfigError):
            check_fd_exactness(net, FiniteDiffConfig(eta=50.0), 100, seed=15)

    @pytest.mark.parametrize("name, value", [("rel_tol", math.nan), ("rel_tol", math.inf), ("rel_tol", -1e-9)])
    def test_non_finite_tolerances_refused(self, name, value):
        # rel_tol=nan passed every point unchecked.
        net = generate_random_net(6, 2, seed=16)
        with pytest.raises(ValueError, match=f"{name} must be non-negative and finite"):
            check_fd_exactness(net, FiniteDiffConfig(eta=1e-3), 5, seed=17, **{name: value})
