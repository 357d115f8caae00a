"""Equivalence checks, row matching, and the Monte Carlo bound suite."""

import json
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
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
    _KS_BOUND,
    _PRODUCT_MOMENT_VARS,
    _PRODUCT_MOMENTS,
    _PRODUCT_Z,
    _ks_distance,
    _product_checks,
    _run_blocks,
)

MC_SAMPLES = 200_000
# Samples per lemma-check block, written out so that a changed block size
# shows as a failure of the reference tests below.
BLOCK = 1 << 16


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
        assert report.passed

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

    def test_nan_error_fails(self):
        # The two equal rows overflow and s adds them with opposite signs:
        # inf - inf = NaN, which max() used to drop, passing the model.
        net = generate_random_net(4, 2, seed=0)
        model = RecoveredModel(Z=np.full((2, 4), 1e308), s=[1, -1, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = functional_equivalence(net, model, 1000, 1e-7, seed=1)
        assert math.isnan(report.max_rel_error)
        assert not report.passed

    def test_nan_in_a_later_block_is_kept(self, monkeypatch):
        # Finite errors in the first block do not hide a NaN in the last one.
        net = generate_random_net(1, 1, seed=0)
        model = recovered_from_net(net)
        evaluate = validation.eval_recovered_batch
        calls = []

        def nan_in_second_block(model, pts):
            calls.append(len(pts))
            out = evaluate(model, pts)
            return out if len(calls) == 1 else np.full_like(out, np.nan)

        monkeypatch.setattr(validation, "eval_recovered_batch", nan_in_second_block)
        report = functional_equivalence(net, model, 70_000, 1e-7, seed=2)
        assert calls == [65_536, 4464]
        assert math.isnan(report.max_rel_error) and not report.passed

    def test_zero_points_refused(self):
        # Zero points passed, vacuously: a pass that checked nothing.
        net = generate_random_net(4, 2, seed=4)
        with pytest.raises(ValueError, match="^n_points must be an integer of at least 1, got 0$"):
            functional_equivalence(net, recovered_from_net(net), 0, 1e-7, seed=5)

    def test_dimension_mismatch(self):
        net = generate_random_net(4, 2, seed=6)
        other = recovered_from_net(generate_random_net(5, 2, seed=7))
        with pytest.raises(ValueError):
            functional_equivalence(net, other, 10, 1e-7, seed=8)

    @pytest.mark.parametrize("n_points", [-1, 2.5, True, np.float64(3.0)])
    def test_point_count_that_is_not_a_non_negative_integer_refused(self, n_points):
        # 2.5 and True leaked numpy's TypeError; a bool is refused though Python counts it an int.
        net = generate_random_net(4, 2, seed=9)
        with pytest.raises(ValueError, match="n_points must be an integer of at least 1"):
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
            functional_equivalence(net, recovered_from_net(net), 1, tol, seed=10)

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


def _match_rows_reference(net, z):
    """match_rows with a masked copy of the cosines per greedy step and signs set row by row.

    The earlier form of match_rows, kept as the reference its in-place form must equal bit for bit.
    """
    zm = np.asarray(z, dtype=float)
    h = net.h
    targets = net.w[:, None] * net.A
    tu, zu = validation._peak_scaled(targets), validation._peak_scaled(zm)
    tn = np.sqrt(np.sum(tu * tu, axis=1))
    zn = np.sqrt(np.sum(zu * zu, axis=1))
    cos = np.abs(tu @ zu.T) / np.outer(np.where(tn == 0.0, 1.0, tn), np.where(zn == 0.0, 1.0, zn))
    perm = np.full(h, -1, dtype=int)
    avail_t = np.ones(h, dtype=bool)
    avail_z = np.ones(h, dtype=bool)
    for _ in range(h):
        masked = np.where(np.outer(avail_t, avail_z), cos, -np.inf)
        i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
        best = masked[i, j]
        masked[i, j] = -np.inf
        runner = np.max(np.concatenate([masked[i, :], masked[:, j]]))
        if np.isfinite(runner) and best - runner <= validation.MATCH_AMBIGUITY_TOL:
            raise MatchAmbiguityError(
                f"rows {i}/{j}: best |cosine| {best:.12f} within "
                f"{validation.MATCH_AMBIGUITY_TOL} of runner-up {runner:.12f}"
            )
        perm[i] = j
        avail_t[i] = False
        avail_z[j] = False
    signs = np.empty(h, dtype=int)
    worst = 0.0
    for i in range(h):
        residual_pos = float(np.max(np.abs(zm[perm[i]] - targets[i])))
        residual_neg = float(np.max(np.abs(zm[perm[i]] + targets[i])))
        signs[i] = 1 if residual_pos <= residual_neg else -1
        worst = max(worst, min(residual_pos, residual_neg))
    return validation.MatchResult(permutation=perm, signs=signs, max_row_error=worst)


def _match_outcome(match, net, z):
    """A match's bytes and dtypes and its error's hex, or the ambiguity error's text."""
    try:
        r = match(net, z)
    except MatchAmbiguityError as err:
        return str(err)
    return (r.permutation.dtype, r.permutation.tobytes(), r.signs.dtype, r.signs.tobytes(), r.max_row_error.hex())


def _match_cases():
    """(net, Z) pairs: random, perturbed, permuted and sign-flipped, duplicated, zero rows, h = 1 and exact ties."""
    rng = np.random.default_rng(36)
    for trial in range(40):
        h = int(rng.integers(1, 9))
        d = h + int(rng.integers(0, 5))
        net = generate_random_net(d, h, seed=trial)
        targets = net.w[:, None] * net.A
        yield net, rng.standard_normal((h, d))
        moved = targets[rng.permutation(h)] * rng.choice([-1.0, 1.0], size=(h, 1))
        yield net, moved
        yield net, moved + rng.normal(scale=10.0 ** -rng.integers(1, 12), size=(h, d))
        if h > 1:
            dup = moved.copy()
            dup[rng.integers(h)] = dup[rng.integers(h)]
            yield net, dup
            zero = moved.copy()
            zero[rng.integers(h)] = 0.0
            yield net, zero
    for h in (2, 3, 5):
        eye = TwoLayerNet(A=np.eye(h), w=np.ones(h))
        # Every cosine is 1 or 0: h equal maxima, taken in row-major order.
        yield eye, np.eye(h)[rng.permutation(h)] * rng.choice([-2.0, 3.0], size=(h, 1))
        yield eye, np.ones((h, h))


class TestMatchRows:
    def test_equals_the_masked_copy_reference(self):
        outcomes = []
        for k, (net, z) in enumerate(_match_cases()):
            outcomes.append(_match_outcome(match_rows, net, z))
            assert outcomes[-1] == _match_outcome(_match_rows_reference, net, z), f"case {k}"
        # Both outcomes occur: matches and ambiguity refusals.
        assert sum(isinstance(o, str) for o in outcomes) >= 10
        assert sum(not isinstance(o, str) for o in outcomes) >= 100

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

    def test_zero_output_weight_has_cosine_zero(self):
        # Its target row is zero, so no Z row is nearer to it than another;
        # the other row takes its own match first.
        net = TwoLayerNet(A=np.eye(2), w=np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = match_rows(net, np.eye(2))
        assert result.permutation.tolist() == [0, 1]
        assert result.max_row_error == 1.0

    def test_all_output_weights_zero_ambiguous(self):
        net = TwoLayerNet(A=np.eye(2), w=np.array([0.0, 0.0]))
        with pytest.raises(MatchAmbiguityError):
            match_rows(net, np.eye(2))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 5), (8,), (2, 4, 1)])
    def test_z_of_the_wrong_shape_refused(self, shape):
        net = generate_random_net(4, 2, seed=5)
        with pytest.raises(ValueError, match=r"Z must have shape \(2, 4\)"):
            match_rows(net, np.ones(shape))

    def test_rows_near_the_largest_double_are_matched(self):
        # Squared norms of these rows overflow; cosines taken on rows scaled
        # to a peak |entry| of 1 do not.
        net = generate_random_net(4, 2, seed=0)
        targets = (net.w[:, None] * net.A)[[1, 0]]
        z = targets * (1e308 / np.max(np.abs(targets), axis=1, keepdims=True))
        result = match_rows(net, z)
        assert result.permutation.tolist() == [1, 0]
        assert result.signs.tolist() == [1, 1]

    def test_equal_rows_near_the_largest_double_report_their_cosines(self):
        # Still ambiguous, as the two rows are equal, but with the true
        # cosines rather than 0 or NaN.
        net = generate_random_net(4, 2, seed=0)
        targets = net.w[:, None] * net.A
        best = np.max(np.abs(targets.sum(axis=1)) / (2.0 * np.linalg.norm(targets, axis=1)))
        with pytest.raises(MatchAmbiguityError, match=f"best \\|cosine\\| {best:.12f} .* runner-up {best:.12f}"):
            match_rows(net, np.full((2, 4), 1e308))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_z_refused(self, bad):
        net = generate_random_net(4, 2, seed=0)
        z = net.w[:, None] * net.A
        z[1, 2] = bad
        with pytest.raises(ValueError, match="Z entries must be finite"):
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

    @pytest.mark.parametrize("bench_seed, instance", [(2001, 6), (2004, 14)])
    def test_family_wise_rate_passes_chance_outliers(self, bench_seed, instance):
        # Two lemma-workload instances (perfbench run.py seeding) whose product
        # check, on one stream per check, had a worst moment z-score of 3.40
        # and 3.16. The per-block streams draw other numbers; the verdict at
        # z = 3.40 itself is test_moment_z_of_3_40_passes.
        child = np.random.SeedSequence([bench_seed, zlib.crc32(b"lemmas")]).spawn(40)[instance]
        op_seed = int(child.generate_state(3, dtype=np.uint64)[1])
        seed = int(np.random.SeedSequence(op_seed).generate_state(4, dtype=np.uint64)[3])
        assert mc_gaussian_product(1_000_000, seed=seed).passed

    @pytest.mark.parametrize("k", range(4))
    def test_moment_z_of_3_40_passes(self, k):
        # A correct sampler's chance outlier, which the former per-check
        # 3-sigma rule failed; past _PRODUCT_Z it fails.
        n = 1_000_000
        head = np.linspace(-3.0, 3.0, 100_000)
        for z, verdict in ((3.40, True), (-3.40, True), (3.47, False)):
            sums = [n * m for m in _PRODUCT_MOMENTS]
            sums[k] += z * math.sqrt(_PRODUCT_MOMENT_VARS[k] * n)
            assert _product_checks(sums, n, head, head) == (0.0, verdict)

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
        for scale, verdict in ((1.0, True), (1.01, False)):
            scaled = scale * prod
            sums = [np.sum(scaled**k) for k in range(1, 5)]
            assert _product_checks(sums, n, scaled[:100_000], ref)[1] is verdict


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


def _ks_merged(xs, ys):
    """The CDF distance read where each run of ties ends in a stable merge of the two sorted samples."""
    merged = np.concatenate([np.sort(xs), np.sort(ys)])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    run_end = np.append(merged[1:] != merged[:-1], True)
    below_x = np.cumsum(order < xs.size)[run_end]
    below_y = np.flatnonzero(run_end) + 1 - below_x
    return float(np.max(np.abs(below_x / xs.size - below_y / ys.size)))


class TestKsDistanceIsTheMergedReading:
    # _ks_distance reads each side at its own tie-run ends; the merge above
    # reads the union of those values, so the two agree bit for bit.
    @staticmethod
    def assert_same(xs, ys):
        expected = _ks_merged(xs, ys)
        assert _ks_distance(xs.copy(), ys.copy()) == expected
        assert _ks_distance(ys.copy(), xs.copy()) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_normal_samples_of_1e5(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_same(rng.standard_normal(100_000), rng.standard_normal(100_000))

    @pytest.mark.parametrize("decimals", [1, 2])
    def test_heavy_ties(self, decimals):
        rng = np.random.default_rng(decimals)
        for n, m in ((100_000, 100_000), (5000, 300), (17, 4)):
            xs = np.round(rng.standard_normal(n), decimals)
            ys = np.round(rng.standard_normal(m) + 0.05, decimals)
            self.assert_same(xs, ys)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (1, 1000), (2, 3), (999, 1), (12_345, 54_321)])
    def test_unequal_sizes(self, n, m):
        rng = np.random.default_rng(n + m)
        self.assert_same(rng.standard_normal(n), rng.standard_normal(m))
        self.assert_same(np.round(rng.standard_normal(n)), np.round(rng.standard_normal(m)))

    def test_one_side_part_of_the_other(self):
        rng = np.random.default_rng(40)
        xs = rng.standard_normal(10_000)
        for part in (xs[:1], xs[2000:2500], xs[::3], np.round(xs, 1)[5:7000]):
            self.assert_same(xs, part.copy())
            self.assert_same(np.round(xs, 1), part.copy())

    def test_samples_are_sorted_in_place(self):
        rng = np.random.default_rng(41)
        xs, ys = rng.standard_normal(50), rng.standard_normal(70)
        expected = np.sort(xs), np.sort(ys)
        _ks_distance(xs, ys)
        assert np.array_equal(xs, expected[0]) and np.array_equal(ys, expected[1])


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
        # Block j draws from child j of SeedSequence(seed).spawn(blocks), so a
        # lemma report is a fixed function of its seed.
        assert mc_chi2_diff(0.5, 100_000, seed=11).empirical_prob == 0.22259

    def test_every_lemma_stream_is_pinned(self):
        assert mc_crossing_gap(0.5, 1e-3, 100_000, seed=12).empirical_prob == 0.00042
        assert mc_cauchy_tail(10.0, 100_000, seed=13).empirical_prob == 0.06279
        product = mc_gaussian_product(100_000, seed=14)
        assert product.empirical_prob == 0.0030600000000000627
        assert product.passed

    def test_product_stream_above_the_distance_cap_is_pinned(self):
        # Above _KS_SAMPLE_CAP the reference draws only its distance sample.
        product = mc_gaussian_product(200_000, seed=14)
        assert product.empirical_prob == 0.003570000000000073
        assert product.passed

    @pytest.mark.parametrize("n", [1000, 100_000, 3 * BLOCK + 5])
    def test_chi2_blocks_are_numpys_chi_squared_sampler(self, n):
        # Each block's Q and R are the draws of rng.chisquare(2.0, (2, m)) on
        # the block's own stream, read at half scale.
        epsilon, hits = 0.5, 0
        for rng, m in _block_rngs(n, 11):
            q, r = rng.chisquare(2.0, (2, m))
            hits += np.count_nonzero(np.abs(q - r) <= epsilon)
        assert mc_chi2_diff(epsilon, n, seed=11).empirical_prob == hits / n

    def test_multi_block_streams_are_pinned(self):
        # Seventeen blocks, the last of 1000 samples.
        samples = (1 << 20) + 1000
        assert mc_chi2_diff(0.1, samples, seed=15).empirical_prob == 0.049117929525827574
        assert mc_crossing_gap(0.5, 1e-3, samples, seed=16).empirical_prob == 0.0004392249822785582


def _block_rngs(samples, seed):
    """(generator, samples) of each block, in block order."""
    children = np.random.SeedSequence(seed).spawn(-(-samples // BLOCK))
    return [(np.random.default_rng(child), min(BLOCK, samples - j * BLOCK)) for j, child in enumerate(children)]


def _gap_reference(c, epsilon, samples, seed):
    b2 = math.sqrt(1.0 - (1.0 - c) ** 2)
    hits = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for rng, m in _block_rngs(samples, seed):
            au, bu, av, bv = rng.standard_normal((4, m))
            bu = b2 * bu + (1.0 - c) * au
            bv = b2 * bv + (1.0 - c) * av
            hits += np.count_nonzero(np.abs(au / av - bu / bv) <= epsilon)
    return hits / samples


def _tail_reference(l, samples, seed):
    hits = 0
    for rng, m in _block_rngs(samples, seed):
        num, den = rng.standard_normal((2, m))
        hits += np.count_nonzero(np.abs(num / den) >= l)
    return hits / samples


def _chi2_reference(epsilon, samples, seed):
    hits = 0
    for rng, m in _block_rngs(samples, seed):
        q, r = rng.standard_exponential((2, m))
        hits += np.count_nonzero(np.abs(q - r) <= 0.5 * epsilon)
    return hits / samples


def _product_reference(samples, seed):
    blocks = _block_rngs(samples, seed)
    # The distance reference comes from the child after the blocks'.
    ref_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(len(blocks) + 1)[-1])
    totals = [0.0] * 4
    products = []
    for rng, m in blocks:
        x, y = rng.standard_normal((2, m))
        p = x * y
        products.append(p)
        for k, power in enumerate((p, p * p, (p * p) * p, (p * p) * (p * p))):
            totals[k] += np.sum(power)
    n_ks = min(samples, 100_000)
    q, r = ref_rng.standard_normal((2, n_ks))
    distance = _ks_merged(np.concatenate(products)[:n_ks], 0.5 * (q**2 - r**2))
    moments_ok = all(
        abs(float(total) / samples - _PRODUCT_MOMENTS[k]) <= _PRODUCT_Z * math.sqrt(_PRODUCT_MOMENT_VARS[k] / samples)
        for k, total in enumerate(totals)
    )
    slack = _PRODUCT_Z * math.sqrt(_KS_BOUND * (1.0 - _KS_BOUND) / n_ks)
    return distance, moments_ok and distance <= _KS_BOUND + slack


class TestBlockStreams:
    # Every check equals a plain-numpy evaluation of its blocks, bit for bit:
    # one size= draw per block from its own child stream.
    @pytest.mark.parametrize("n", [1, 7, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_rates_are_the_block_reference_rates(self, n):
        assert mc_crossing_gap(0.5, 1e-3, n, seed=21).empirical_prob == _gap_reference(0.5, 1e-3, n, 21)
        assert mc_crossing_gap(0.9, 0.3, n, seed=22).empirical_prob == _gap_reference(0.9, 0.3, n, 22)
        assert mc_cauchy_tail(1.0, n, seed=23).empirical_prob == _tail_reference(1.0, n, 23)
        assert mc_chi2_diff(0.5, n, seed=24).empirical_prob == _chi2_reference(0.5, n, 24)

    # The product check needs at least 10000 samples.
    @pytest.mark.parametrize("samples", [10_000, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_product_is_the_block_reference_product(self, samples):
        report = mc_gaussian_product(samples, seed=25)
        assert (report.empirical_prob, report.passed) == _product_reference(samples, 25)


def _set_workers(monkeypatch, cpus):
    monkeypatch.setattr(validation, "_cpu_count", lambda: cpus)


LEMMA_CHECKS = {
    "gap": lambda samples, seed: mc_crossing_gap(0.5, 1e-3, samples, seed=seed),
    "tail": lambda samples, seed: mc_cauchy_tail(10.0, samples, seed=seed),
    "chi2diff": lambda samples, seed: mc_chi2_diff(0.1, samples, seed=seed),
    "product": lambda samples, seed: mc_gaussian_product(samples, seed=seed),
}


class TestWorkers:
    @pytest.mark.parametrize("check", sorted(LEMMA_CHECKS))
    def test_reports_do_not_depend_on_the_worker_count(self, monkeypatch, check):
        # Four blocks: one, two or three workers, the last with uneven shares.
        # Every worker thread has ended when the check returns.
        reports = []
        before = threading.active_count()
        for cpus in (1, 2, 3):
            _set_workers(monkeypatch, cpus)
            assert validation._layout(3 * BLOCK + 5) == (4, cpus)
            reports.append(LEMMA_CHECKS[check](3 * BLOCK + 5, 31).to_dict())
            assert threading.active_count() == before
        assert reports[0] == reports[1] == reports[2]

    def test_workers_are_capped_at_the_blocks(self, monkeypatch):
        _set_workers(monkeypatch, 8)
        assert validation._layout(1) == (1, 1)
        assert validation._layout(BLOCK + 1) == (2, 2)
        assert validation._layout(1_000_000) == (16, 8)

    def test_cpu_count_is_this_process_affinity(self):
        assert validation._cpu_count() == len(os.sched_getaffinity(0))

    def test_a_slowed_worker_claims_fewer_blocks(self, monkeypatch):
        # Two workers claim six blocks from one list; a block off the calling
        # thread sleeps 0.2 s, in which the calling thread claims and runs
        # every other block. Split by stride, the pool thread would run three.
        _set_workers(monkeypatch, 2)
        caller = threading.get_ident()
        ran = []

        def block(rng, draws, j):
            ran.append((j, threading.get_ident()))
            if threading.get_ident() != caller:
                time.sleep(0.2)
            rng.standard_normal(out=draws)
            return j, float(np.sum(draws))

        results = _run_blocks(6 * BLOCK, np.random.SeedSequence(3), 1, block)
        assert sorted(j for j, _ in ran) == list(range(6))
        assert sum(ident != caller for _, ident in ran) <= 1
        _set_workers(monkeypatch, 1)
        assert results == _run_blocks(6 * BLOCK, np.random.SeedSequence(3), 1, block)

    def test_head_task_runs_first_on_the_child_after_the_blocks(self, monkeypatch):
        _set_workers(monkeypatch, 1)
        ran = []

        def block(rng, draws, j):
            ran.append(j)
            return j

        def first(rng):
            ran.append("first")
            ran.append(rng.random())

        assert _run_blocks(3 * BLOCK, np.random.SeedSequence(4), 1, block, first) == [0, 1, 2]
        root = np.random.SeedSequence(4)
        root.spawn(3)
        assert ran == ["first", np.random.default_rng(root.spawn(1)[0]).random(), 0, 1, 2]

    @pytest.mark.parametrize("failing", [1, 2, 3, 4, 5])
    def test_a_worker_exception_reaches_the_caller(self, monkeypatch, failing):
        # Six blocks claimed by three workers, the calling thread one of them:
        # the worker that runs the failing block claims no more, and the other
        # two claim the rest of the list.
        _set_workers(monkeypatch, 3)
        before = threading.active_count()
        ran = []

        def block(rng, draws, j):
            ran.append(j)
            if j == failing:
                raise ArithmeticError(f"block {j}")
            return j

        with pytest.raises(ArithmeticError, match=f"block {failing}"):
            _run_blocks(6 * BLOCK, np.random.SeedSequence(0), 1, block)
        assert threading.active_count() == before
        # The other workers ran the rest of the list, and had stopped by the time it was raised.
        assert {j for j in range(6) if j % 3 != failing % 3} <= set(ran)

    def test_a_worker_exception_in_a_check_reaches_the_caller(self, monkeypatch):
        _set_workers(monkeypatch, 2)
        before = threading.active_count()
        default_rng = np.random.default_rng

        def rng_off_the_calling_thread(seed):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker draw")
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", rng_off_the_calling_thread)
        with pytest.raises(MemoryError, match="worker draw"):
            mc_cauchy_tail(10.0, 2 * BLOCK, seed=0)
        assert threading.active_count() == before

    def test_more_workers_than_cores_with_frequent_switches(self, monkeypatch):
        # Eight workers switching every microsecond: a lost or misplaced block
        # result, or a torn write to the product's distance sample, would
        # change a report.
        samples = 8 * BLOCK + 3
        _set_workers(monkeypatch, 1)
        expected = [check(samples, 35).to_dict() for check in LEMMA_CHECKS.values()]
        _set_workers(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert [check(samples, 35).to_dict() for check in LEMMA_CHECKS.values()] == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("samples", [20_000, np.int64(3 * BLOCK + 5)])
    @pytest.mark.parametrize("check", sorted(LEMMA_CHECKS))
    def test_reports_are_python_types_json_writes(self, check, samples):
        report = LEMMA_CHECKS[check](samples, 33)
        assert type(report.samples) is int
        assert type(report.empirical_prob) is float
        assert type(report.passed) is bool and type(report.vacuous) is bool
        json.dumps(report.to_dict())

    def test_numpy_parameters_give_python_types(self):
        for report in (
            mc_crossing_gap(np.float64(0.5), np.float64(0.2), 20_000, seed=34),
            mc_cauchy_tail(np.float64(10.0), 20_000, seed=34),
            mc_chi2_diff(np.float64(0.1), 20_000, seed=34),
        ):
            assert type(report.bound) is float
            assert type(report.passed) is bool and type(report.vacuous) is bool
            json.dumps(report.to_dict())


class TestTracedPeaks:
    # At 1e6 samples a check holds one buffer of rows x 2**16 float64 per
    # worker (rows 5, 2, 2 and 2: 2.5, 1, 1 and 1 MiB), plus what its
    # arithmetic needs once the blocks are done: the product check's
    # reference draw and distance on 1e5 samples a side take up to 7 MiB.
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "check, rows, rest_mib",
        [
            (lambda: mc_crossing_gap(0.5, 1e-3, 1_000_000, seed=1), 5, 1),
            (lambda: mc_cauchy_tail(10.0, 1_000_000, seed=1), 2, 1),
            (lambda: mc_chi2_diff(0.1, 1_000_000, seed=1), 2, 1),
            (lambda: mc_gaussian_product(1_000_000, seed=1), 2, 7),
        ],
        ids=["gap", "tail", "chi2diff", "product"],
    )
    def test_peak(self, monkeypatch, check, rows, rest_mib, cpus):
        _set_workers(monkeypatch, cpus)
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (rest_mib << 20) + cpus * rows * BLOCK * 8


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

    def test_nan_error_is_a_counterexample(self):
        # Weights of 1e308 overflow f, and the finite difference is inf - inf
        # = NaN at some points, which `rel > worst` used to drop.
        net = generate_random_net(4, 2, seed=0)
        big = TwoLayerNet(A=net.A, w=np.array([1e308, 1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_fd_exactness(big, FiniteDiffConfig(eta=1e-3), 20, seed=1)
        assert math.isnan(report.max_rel_error)
        assert not report.passed and report.counterexample is not None

    def test_oversized_step_raises(self):
        net = generate_random_net(6, 4, seed=14)
        with pytest.raises(ConfigError):
            check_fd_exactness(net, FiniteDiffConfig(eta=50.0), 100, seed=15)

    @pytest.mark.parametrize("name, value", [("rel_tol", math.nan), ("rel_tol", math.inf), ("rel_tol", -1e-9)])
    def test_non_finite_tolerances_refused(self, name, value):
        # rel_tol=nan passed every point unchecked.
        net = generate_random_net(6, 2, seed=16)
        with pytest.raises(ValueError) as info:
            check_fd_exactness(net, FiniteDiffConfig(eta=1e-3), 5, seed=17, **{name: value})
        assert str(info.value) == f"{name} must lie in [0, inf), got {value!r}"
