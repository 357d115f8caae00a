"""Fuzz the sign-recovery failure contract over corrupted weighted normals Z.

Whatever Z reaches recover_s, the outcome is either a sign vector with one
nonzero per row pair or a GeometryError / SignRecoveryError: no ValueError or
LinAlgError escapes. The attack's own sign step, the solve from the search
line's end gradients on rows oriented as the search orients them, is fuzzed
the same way, with the end gradients corrupted as well: it raises
SignRecoveryError only, and no RuntimeWarning. Whenever it returns s, the
2d x 2h block system its h x h Gram solve replaces returns the same s. Both
corruptions include NaN and +-inf entries.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gradleak import GeometryError, Oracle, SignRecoveryError, generate_random_net, geometry, recover_s
from gradleak.extraction import _end_signs
from gradleak.geometry import SINGULAR_PIVOT_TOL

ROW = st.integers(0, 15)  # reduced modulo the current row count
COLUMN = st.integers(0, 7)  # reduced modulo d
NONFINITE = st.sampled_from((math.nan, math.inf, -math.inf))

MUTATIONS = st.one_of(
    st.tuples(st.just("duplicate"), ROW, ROW),
    st.tuples(st.just("zero"), ROW),
    st.tuples(st.just("scale"), ROW, st.integers(-300, 300)),
    st.tuples(st.just("collinear"), ROW, ROW, st.integers(1, 16)),
    st.tuples(st.just("flip"), ROW),
    st.tuples(st.just("extra"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("nonfinite"), ROW, COLUMN, NONFINITE),
)


def mutate(z, ops, rng_seed):
    z = z.copy()
    noise = np.random.default_rng(rng_seed)
    with np.errstate(all="ignore"):  # arithmetic on a NaN or inf entry is part of the corruption
        for op in ops:
            kind, rows = op[0], z.shape[0]
            if kind == "duplicate":
                z[op[2] % rows] = z[op[1] % rows]
            elif kind == "zero":
                z[op[1] % rows] = 0.0
            elif kind == "scale":  # set the row's largest entry to 10^k; a finite Z stays finite
                i = op[1] % rows
                peak = np.max(np.abs(z[i]))
                if peak > 0.0:
                    z[i] = z[i] / peak * 10.0 ** op[2]
            elif kind == "collinear":
                i, j = op[1] % rows, op[2] % rows
                z[j] = z[i] + 10.0 ** -op[3] * np.max(np.abs(z[i])) * noise.standard_normal(z.shape[1])
            elif kind == "flip":
                z[op[1] % rows] *= -1.0
            elif kind == "nonfinite":
                z[op[1] % rows, op[2] % z.shape[1]] = op[3]
            else:
                extra = np.random.default_rng(op[1]).standard_normal(z.shape[1])
                z = np.vstack([z, extra])
    return z


# Rows near 1e-300 that differ by ~1e-9 of their size: Z passes the rank test,
# but X = Z^+ T overflows to inf.
@example(d=2, h_frac=1.0, net_seed=3, ops=[("scale", 0, -300), ("collinear", 0, 1, 9)], sign_seed=3)
@example(d=2, h_frac=1.0, net_seed=3, ops=[("nonfinite", 0, 1, -math.inf)], sign_seed=3)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    d=st.integers(1, 8),
    h_frac=st.floats(0.0, 1.0),
    net_seed=st.integers(0, 2**16),
    ops=st.lists(MUTATIONS, max_size=4),
    sign_seed=st.integers(0, 2**16),
)
def test_recover_s_returns_valid_signs_or_raises_its_errors(d, h_frac, net_seed, ops, sign_seed):
    h = 1 + int(h_frac * (d - 1))
    net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
    z = mutate(net.w[:, None] * net.A, ops, sign_seed)
    try:
        s = recover_s(Oracle(net, mode="grad"), z, rng=np.random.default_rng(sign_seed))
    except (GeometryError, SignRecoveryError):
        return
    assert_valid_signs(s, z.shape[0])


def assert_valid_signs(s, rows):
    assert s.shape == (2 * rows,)
    assert set(s.tolist()) <= {-1, 0, 1}
    nz = s != 0
    assert np.all(nz[:rows] != nz[rows:])


END = st.integers(0, 1)  # 0: g(-v), 1: g(+v)

PERTURBATIONS = st.one_of(
    st.tuples(st.just("noise"), END, st.integers(1, 16)),
    st.tuples(st.just("scale"), END, st.integers(-300, 300)),
    st.tuples(st.just("zero"), END),
    st.tuples(st.just("negate"), END),
    st.tuples(st.just("swap")),
    st.tuples(st.just("nonfinite"), END, COLUMN, NONFINITE),
)


def perturb(ends, ops, rng_seed):
    ends = [g.copy() for g in ends]
    noise = np.random.default_rng(rng_seed)
    with np.errstate(all="ignore"):  # arithmetic on a NaN or inf entry is part of the corruption
        for op in ops:
            kind = op[0]
            if kind == "noise":  # relative noise of size 10^-k
                g = ends[op[1]]
                g += 10.0 ** -op[2] * (1.0 + np.max(np.abs(g))) * noise.standard_normal(g.shape)
            elif kind == "scale":  # set the end's largest entry to 10^k; a finite end stays finite
                g = ends[op[1]]
                peak = np.max(np.abs(g))
                if peak > 0.0:
                    g /= peak
                    g *= 10.0 ** op[2]
            elif kind == "zero":
                ends[op[1]][:] = 0.0
            elif kind == "negate":
                ends[op[1]] *= -1.0
            elif kind == "nonfinite":
                g = ends[op[1]]
                g[op[2] % len(g)] = op[3]
            else:
                ends.reverse()
    return tuple(ends)


END_CASES = dict(
    d=st.integers(1, 8),
    h_frac=st.floats(0.0, 1.0),
    net_seed=st.integers(0, 2**16),
    ops=st.lists(MUTATIONS, max_size=4),
    end_ops=st.lists(PERTURBATIONS, max_size=3),
    line_seed=st.integers(0, 2**16),
)


def end_case(d, h_frac, net_seed, ops, end_ops, line_seed):
    """A mutated Z, a line direction v and its perturbed end gradients (g(-v), g(+v)).

    Before it is mutated, row i is sign(<A_i, v>) w_i A_i, as the search orients it.
    """
    h = 1 + int(h_frac * (d - 1))
    net = generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
    v = np.random.default_rng(line_seed).standard_normal(d)
    oracle = Oracle(net, mode="grad")
    ends = perturb(oracle.gradients([-v, v]), end_ops, line_seed)
    return mutate((np.sign(net.A @ v) * net.w)[:, None] * net.A, ops, line_seed), v, ends


# A NaN in Z raised ValueError from the matrix check, and an inf in an end
# gradient a RuntimeWarning from the product with Z.
@example(d=3, h_frac=1.0, net_seed=0, ops=[("nonfinite", 1, 2, math.nan)], end_ops=[], line_seed=0)
@example(d=3, h_frac=1.0, net_seed=0, ops=[], end_ops=[("nonfinite", 1, 0, math.inf)], line_seed=0)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**END_CASES)
def test_end_signs_return_valid_signs_or_raise_sign_recovery_error(**case):
    z, v, ends = end_case(**case)
    try:
        s = _end_signs(z, v, ends)
    except SignRecoveryError:
        return
    assert_valid_signs(s, z.shape[0])


def block_end_signs(z, v, ends):
    """The end solve as one 2d x 2h system [[Z^T up, -Z^T ~up], [Z^T ~up, -Z^T up]] s = [g(+v); g(-v)].

    Z and both ends are first scaled by 2^-e, e the binary exponent of max |Z|,
    as _end_signs scales them, so that both certificates judge a residual in
    the same units.
    """
    zm, (g_lo, g_hi) = np.asarray(z, dtype=float), ends
    e = math.frexp(np.max(np.abs(zm)))[1]
    zm, g_lo, g_hi = np.ldexp(zm, -e), np.ldexp(g_lo, -e), np.ldexp(g_hi, -e)
    zt, up = zm.T, zm @ v > 0
    m = np.block([[zt * up, -zt * ~up], [zt * ~up, -zt * up]])
    b = np.concatenate([g_hi, g_lo])
    return geometry._signs(geometry._solve(m, b), m, b, 1.0)  # the points +-v / |v| are unit


# The cases Hypothesis found at seeds 13, 24, 25, 30 and 40, where the block
# system, judged at scale 1, refused an s that _end_signs accepts at 2^-e.
# Seed 13's: Z = [[-1.891]] and a residual of 3.46e-8 at g(-v). The others'
# residuals: 3.60e-8, 3.12e-8, 2.80e-8 and 2.96e-8.
@example(d=1, h_frac=0.0, net_seed=503, ops=[], end_ops=[("noise", 0, 7)], line_seed=1)
@example(d=7, h_frac=1.0, net_seed=0, ops=[], end_ops=[("noise", 0, 8)], line_seed=0)
@example(d=8, h_frac=0.25, net_seed=10082, ops=[("collinear", 0, 0, 8)], end_ops=[], line_seed=2)
@example(d=1, h_frac=0.0, net_seed=33076, ops=[("collinear", 0, 0, 7)], end_ops=[], line_seed=6025)
@example(d=1, h_frac=0.0, net_seed=8, ops=[("collinear", 0, 0, 7)], end_ops=[], line_seed=637)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**END_CASES)
def test_end_signs_agree_with_the_block_system(**case):
    # Whatever the corruption, an s the Gram solve returns is the s of the
    # 2d x 2h block system, which needs no orientation. The converse does not
    # hold: the block system also solves a negated row, which breaks the
    # orientation the Gram solve relies on, and refuses a singular-value ratio
    # below SINGULAR_PIVOT_TOL where Cholesky refuses below roughly 1e-8.
    z, v, ends = end_case(**case)
    try:
        s = _end_signs(z, v, ends)
    except SignRecoveryError:
        return
    assert block_end_signs(z, v, ends).tolist() == s.tolist()


# Refusal thresholds on the singular-value ratio of Z: the block system's SVD
# refuses below SINGULAR_PIVOT_TOL (1e-10), Cholesky of Z Z^T below roughly
# 1e-8, where the ratio squared reaches the rounding error of the Gram matrix.
# Rounding can move a ratio within 10x of either across it, so the band from
# SINGULAR_PIVOT_TOL / 10 to 10 * 1e-8 is skipped.
REFUSAL_BAND = (SINGULAR_PIVOT_TOL / 10, 1e-7)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    d=st.integers(1, 8),
    h_frac=st.floats(0.0, 1.0),
    net_seed=st.integers(0, 2**16),
    line_seed=st.integers(0, 2**16),
)
def test_end_signs_and_the_block_system_both_solve_true_rows(**case):
    z, v, ends = end_case(**case, ops=[], end_ops=[])
    sv = np.linalg.svd(z, compute_uv=False)
    if REFUSAL_BAND[0] * sv[0] <= sv[-1] <= REFUSAL_BAND[1] * sv[0]:
        return
    assert _end_signs(z, v, ends).tolist() == block_end_signs(z, v, ends).tolist()
