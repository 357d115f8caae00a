"""Ground-truth verification and Monte Carlo validation of the tail bounds.

functional_equivalence and match_rows compare an extraction result against the
hidden net it came from. The mc_* functions check, by simulation, the
probability inequalities the attack's parameter selection relies on: the
anti-concentration of crossing gaps, the Cauchy tail of a single crossing, the
chi-squared difference bound behind it, and the product-of-Gaussians identity.

An mc_* check of n samples runs B = ceil(n / _BLOCK) blocks. Block j draws its
(rows, m) numbers, m = min(_BLOCK, n - j _BLOCK), row by row from its own
generator, default_rng(SeedSequence(seed).spawn(B)[j]), and returns a count or
sums that are added in block order. Every report is therefore a fixed function
of the check's arguments and seed, and no array of n numbers is held.

The blocks run on W = min(CPUs this process may use, B) workers, which claim
them one at a time, in block order, from one shared list (a deque, whose pops
are documented thread-safe); a worker the host slows down runs fewer blocks.
Each worker draws into one buffer the calling thread allocated for it, of
rows x _BLOCK numbers: 4 rows for the gap check, which draws three normals a
sample into rows 0-2 and uses row 3 as scratch, and 2 for the others. The
results are kept by block index. The calling thread is worker 0 and the others
are plain threads; numpy releases the interpreter lock while it draws and
while its ufuncs loop, which is where the time goes. A buffer allocated in a
worker thread comes from that thread's malloc arena: such buffers raised
perfbench lemmas' peak RSS from 44.5 to 47.9-49.4 MB (two 10 s runs, 2-vCPU
Xeon VM). A ThreadPoolExecutor in place of the plain threads imports
concurrent.futures and logging, 640 KiB of peak RSS in an interpreter that
has imported numpy. Every task is a block: mc_gaussian_product's blocks that
hold the CDF distance's products also draw its reference sample, Q and R
after X and Y, into their buffer. At 1e6 samples and W = 2, tracemalloc peaks
at 4.08 MiB for the gap check and 4.67 MiB for the product check. An
exception in a block stops its worker's claims and reaches the caller once
every worker has stopped.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, MatchAmbiguityError
from .model import TwoLayerNet, RecoveredModel, _count, _number, _seed, as_matrix, eval_recovered_batch, eval_target_batch, grad_target
from .extraction import finite_differences
from .oracle import Oracle

# The relative error within which a recovered model counts as exact.
VERIFY_TOL = 1e-7
# Two row-match candidates closer than this in |cosine| are reported, not guessed.
MATCH_AMBIGUITY_TOL = 1e-9

# Samples per lemma-check block. It decides which generator draws each sample,
# so changing it changes every report.
_BLOCK = 1 << 16
# Numbers per functional_equivalence block (512 KiB of float64); the points
# and the report do not depend on it.
_EQ_BLOCK = 1 << 16
# Fewest rows functional_equivalence evaluates at once (bar n_points itself).
# BLAS rounds a product of few rows differently from the same rows inside a
# larger one: on near-exact models blocks of 128 rows moved the ~1e-15 report
# in its last bits at (d, h) = (128, 8), (512, 16) and (2048, 4), while blocks
# of 256 rows or more matched one draw of every point at every shape tried.
_MIN_ROWS = 512


@dataclass
class EquivalenceReport:
    """Max relative disagreement over n_points >= 1 sampled points, and whether it is within tol."""

    max_rel_error: float
    tol: float
    n_points: int
    passed: bool


@dataclass
class MatchResult:
    """Bijection truth-row -> Z-row with per-row signs and worst residual."""

    permutation: np.ndarray
    signs: np.ndarray
    max_row_error: float


@dataclass
class McReport:
    """One Monte Carlo bound check.

    passed requires empirical_prob <= bound + 3 sigma (binomial slack at the
    bound) and, when a closed form is available, agreement with it within
    3 sigma. vacuous marks bounds that exceed 1.
    """

    samples: int
    empirical_prob: float
    bound: float
    exact: float | None
    vacuous: bool
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FiniteDiffConfig:
    """Step size for one-sided finite differences along coordinate axes."""

    eta: float = 1e-6

    def __post_init__(self):
        _number(self.eta, "eta", "(0, inf)")  # a NaN step makes every error NaN, which no check flags


@dataclass
class FdExactnessReport:
    """Finite-difference vs exact gradients on points clear of all hyperplanes."""

    trials: int
    max_rel_error: float
    counterexample: np.ndarray | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def functional_equivalence(
    net: TwoLayerNet, model: RecoveredModel, n_points: int, tol: float, seed=None
) -> EquivalenceReport:
    """Max of |f(x) - fhat(x)| / (1 + |f(x)|) over standard Gaussian samples.

    The points are drawn and evaluated in blocks of max(_MIN_ROWS, _EQ_BLOCK // d)
    rows, each drawn into one reused buffer; a remainder under _MIN_ROWS rows
    joins the last block. The draw is row-major, so the points are those of one
    (n_points, d) draw, and as no block has fewer than _MIN_ROWS = 512 rows
    (unless n_points does) the report equals that draw's, bit for bit. The
    buffer holds max(512 d, 2**16) numbers, or up to twice that with a merged
    remainder: 512 KiB up to d = 128, then 4 KiB per unit of d (16 MiB at d =
    4096).
    """
    if net.d != model.d:
        raise ValueError(f"dimension mismatch: net d={net.d}, model d={model.d}")
    _count(n_points, "n_points", 1)  # no points would check nothing
    _number(tol, "tol", "[0, inf)")
    rng = np.random.default_rng(_seed(seed))
    rows = max(_MIN_ROWS, _EQ_BLOCK // net.d)
    blocks = max(1, (n_points - _MIN_ROWS) // rows + 1)
    last = n_points - (blocks - 1) * rows  # under rows + _MIN_ROWS
    buf = np.empty((min(n_points, max(rows, last)), net.d))
    worst = 0.0
    for k in range(blocks):
        pts = buf[: last if k == blocks - 1 else rows]
        rng.standard_normal(out=pts)
        # An overflowing model gives inf or NaN errors, which the report carries.
        with np.errstate(over="ignore", invalid="ignore"):
            f = eval_target_batch(net, pts)
            fhat = eval_recovered_batch(model, pts)
            # np.maximum keeps a NaN that max() would drop.
            worst = float(np.maximum(worst, np.max(np.abs(f - fhat) / (1.0 + np.abs(f)))))
    return EquivalenceReport(worst, tol, n_points, passed=worst <= tol)


def match_rows(net: TwoLayerNet, z) -> MatchResult:
    """Match recovered rows to the true weighted normals w_i A_i.

    Greedy assignment on |cosine|, largest first; the sign of each match
    minimizes the infinity-norm residual. Two candidates within
    MATCH_AMBIGUITY_TOL of each other raise MatchAmbiguityError.
    Costs h argmax passes over one h x h matrix, whose matched row and
    column are masked in place; of equal maxima the first in row-major
    order is taken.
    """
    h = net.h
    if np.shape(z) != (h, net.d):
        raise ValueError(f"Z must have shape ({h}, {net.d}), got {np.shape(z)}")
    zm = as_matrix(z, "Z")

    targets = net.w[:, None] * net.A
    # A cosine does not change when a row is scaled, and rows scaled to a
    # peak |entry| of 1 cannot overflow their squared norms, as rows near
    # 1e308 do. A zero row (of Z, or of a net with an output weight 0) has
    # |cosine| 0 with every row.
    tu, zu = _peak_scaled(targets), _peak_scaled(zm)
    tn = np.sqrt(np.sum(tu * tu, axis=1))
    zn = np.sqrt(np.sum(zu * zu, axis=1))
    cos = np.abs(tu @ zu.T) / np.outer(np.where(tn == 0.0, 1.0, tn), np.where(zn == 0.0, 1.0, zn))

    perm = np.full(h, -1, dtype=int)
    for _ in range(h):
        i, j = np.unravel_index(int(np.argmax(cos)), cos.shape)
        best = cos[i, j]
        cos[i, j] = -np.inf
        runner = np.max(np.concatenate([cos[i, :], cos[:, j]]))
        if np.isfinite(runner) and best - runner <= MATCH_AMBIGUITY_TOL:
            raise MatchAmbiguityError(
                f"rows {i}/{j}: best |cosine| {best:.12f} within "
                f"{MATCH_AMBIGUITY_TOL} of runner-up {runner:.12f}"
            )
        perm[i] = j
        cos[i, :] = cos[:, j] = -np.inf

    matched = zm[perm]
    residual_pos = np.max(np.abs(matched - targets), axis=1)
    residual_neg = np.max(np.abs(matched + targets), axis=1)
    signs = np.where(residual_pos <= residual_neg, 1, -1)
    worst = float(np.max(np.minimum(residual_pos, residual_neg)))
    return MatchResult(permutation=perm, signs=signs, max_row_error=worst)


def _peak_scaled(rows: np.ndarray) -> np.ndarray:
    """Each row divided by its largest |entry|; a zero row stays zero."""
    peak = np.max(np.abs(rows), axis=1, keepdims=True)
    return rows / np.where(peak == 0.0, 1.0, peak)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return os.cpu_count() or 1


def _layout(samples: int) -> tuple[int, int]:
    """(blocks, workers) of an mc_* check of `samples` samples."""
    blocks = -(-samples // _BLOCK)
    return blocks, min(_cpu_count(), blocks)


def _run_blocks(samples: int, seed, rows: int, block) -> list:
    """[block(rng, draws, j) for each block j], run on the workers of _layout(samples).

    rng is block j's generator, on child j of SeedSequence(seed).spawn(B), B
    the number of blocks, and draws a C-contiguous (rows, m) view of the
    claiming worker's buffer, m the block's samples. The blocks are claimed
    from one list in order, each by the next worker that is free; the calling
    thread is worker 0 and workers 1 to W - 1 are plain threads. An exception
    raised in a block ends its worker's claims, while the others go on until
    no block is left; once every worker has stopped, worker 0's exception is
    raised here, or else the first other worker's in worker order.
    """
    blocks, workers = _layout(samples)
    children = np.random.SeedSequence(_seed(seed)).spawn(blocks)
    # The blocks, then one None per worker, which stops it. deque pops are
    # documented thread-safe.
    tasks = deque([*range(blocks), *[None] * workers])
    results = [None] * blocks
    errors = [None] * workers
    buffers = [np.empty(rows * min(samples, _BLOCK)) for _ in range(workers)]

    def work(i):
        buf = buffers[i]
        for j in iter(tasks.popleft, None):
            m = min(_BLOCK, samples - j * _BLOCK)
            results[j] = block(np.random.default_rng(children[j]), buf[: rows * m].reshape(rows, m), j)

    def guarded(i):
        try:
            work(i)
        except BaseException as err:  # raised on the calling thread once all have stopped
            errors[i] = err

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    for err in errors:
        if err is not None:
            raise err
    return results


def _make_report(samples, hits, bound, exact=None) -> McReport:
    # Python numbers throughout, so that the verdicts are bools json can write
    # even when numpy counted the hits or the caller passed numpy floats.
    empirical = int(hits) / samples
    bound = float(bound)
    vacuous = bound > 1.0
    capped = min(max(bound, 0.0), 1.0)
    slack = 3.0 * math.sqrt(capped * (1.0 - capped) / samples)
    passed = empirical <= capped + slack
    if exact is not None:
        ex_sd = math.sqrt(max(exact * (1.0 - exact), 0.0) / samples)
        passed = passed and abs(empirical - exact) <= 3.0 * ex_sd
    return McReport(samples=samples, empirical_prob=empirical, bound=bound, exact=exact, vacuous=vacuous, passed=passed)


def mc_crossing_gap(c: float, epsilon: float, samples: int, seed=None) -> McReport:
    """Check P(|t1 - t2| <= eps) <= 3^(4/3) (eps/c)^(2/3) for two hyperplanes
    at collinearity gap c crossed by a random line."""
    _number(c, "c", "(0, 1]")
    _number(epsilon, "epsilon", "[0, inf)")
    samples = _count(samples, "samples", 1)
    b2 = math.sqrt(1.0 - (1.0 - c) ** 2)

    def block(rng, draws, j):
        # Only the projections onto span(a, b) matter; work in the plane with
        # a = e1, b = (1-c, b2), b2 = sqrt(1-(1-c)^2). The line u + t v meets
        # the hyperplane of normal n at t = -<n, u>/<n, v>; for n = a and b,
        # t1 - t2 = b2 (v1 u2 - u1 v2) / (v1 <b, v>), and given v the term
        # v1 u2 - u1 v2 is |v| g, g standard normal. So a sample is v1, v2, g,
        # and it hits when g^2 ((b2 v1)^2 + (b2 v2)^2) <= (eps v1 <b, v>)^2,
        # tested with no division; row 3 is scratch. eps v1 <b, v> may
        # overflow to inf, which is a hit.
        v1, v2, g, rhs = draws
        rng.standard_normal(out=draws[:3])
        with np.errstate(over="ignore"):
            v2 *= b2
            np.multiply(v1, 1.0 - c, out=rhs)
            rhs += v2
            rhs *= v1
            rhs *= epsilon
            rhs *= rhs
        v2 *= v2
        v1 *= b2
        v1 *= v1
        v1 += v2
        g *= g
        v1 *= g
        return np.count_nonzero(v1 <= rhs)

    hits = sum(_run_blocks(samples, seed, 4, block))
    bound = 3.0 ** (4.0 / 3.0) * (epsilon / c) ** (2.0 / 3.0)
    return _make_report(samples, hits, bound)


def mc_cauchy_tail(l: float, samples: int, seed=None) -> McReport:
    """Check P(|t| >= l) <= 2/(pi l) for the (standard Cauchy) crossing
    parameter of one hyperplane, and agreement with the exact tail."""
    _number(l, "l", "(0, inf)")
    samples = _count(samples, "samples", 1)

    def block(rng, draws, j):
        num, den = rng.standard_normal(out=draws)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(num, den, out=num)
        return np.count_nonzero(np.abs(num, out=num) >= l)

    hits = sum(_run_blocks(samples, seed, 2, block))
    bound = 2.0 / (math.pi * l)
    exact = 1.0 - (2.0 / math.pi) * math.atan(l)
    return _make_report(samples, hits, bound, exact=exact)


def mc_chi2_diff(epsilon: float, samples: int, seed=None) -> McReport:
    """Check P(|Q - R| <= eps) <= eps for independent chi-squared(2) Q, R,
    and agreement with the exact law 1 - exp(-eps/2).

    Chi-squared(2) is 2 Exp(1), so Q/2 and R/2 are drawn as standard
    exponentials, the very draws rng.chisquare(2.0, (2, m)) doubles, and
    |Q/2 - R/2| is compared with eps/2 (halving is exact, so the count is the
    same): two draws per sample, not four squared normals.
    """
    _number(epsilon, "epsilon", "[0, inf)")
    samples = _count(samples, "samples", 1)

    def block(rng, draws, j):
        q, r = rng.standard_exponential(out=draws)
        np.subtract(q, r, out=q)
        return np.count_nonzero(np.abs(q, out=q) <= 0.5 * epsilon)

    hits = sum(_run_blocks(samples, seed, 2, block))
    exact = 1.0 - math.exp(-epsilon / 2.0) if epsilon > 0 else 0.0
    return _make_report(samples, hits, float(epsilon), exact=exact)


def _ks_distance(xs: np.ndarray, ys: np.ndarray) -> float:
    """Two-sample max CDF distance; sorts xs and ys in place.

    The distance is read where each run of equal values ends on each side:
    where one ends at index k of sorted a, a's count of values <= a[k] is
    k + 1, and the other side's is np.searchsorted's right insertion point.
    Every distinct value of either sample is read there, and for samples
    without NaN the counts at it are those of a stable merge of the two, so
    the max is the merged reading's, bit for bit.

    Its time goes to the two np.searchsorted calls, about 3.5-5 ms each on
    1e5 + 1e5 samples, where a sort of 1e5 takes 0.5-0.8 ms, sorted input or
    not (2-vCPU Xeon VM). mc_gaussian_product runs it alone on the calling
    thread once the blocks are done. On a worker thread its temporaries come
    from that thread's malloc arena: perfbench lemmas' peak RSS rose from
    44.6 to 47.6 MB (three 10 s runs, same VM).
    """
    xs.sort()
    ys.sort()
    dist = np.empty(max(xs.size, ys.size))
    worst = 0.0
    for a, b in ((xs, ys), (ys, xs)):
        ends = np.flatnonzero(np.append(a[1:] != a[:-1], True))
        d = dist[: ends.size]
        below = np.searchsorted(b, np.take(a, ends, out=d), side="right")
        ends += 1
        np.divide(ends, a.size, out=d)
        d -= below / b.size
        worst = max(worst, float(np.max(np.abs(d, out=d))))
    return worst


# Exact moments of a product of two independent standard Gaussians.
_PRODUCT_MOMENTS = (0.0, 1.0, 0.0, 9.0)
# Variances of the corresponding powers, for the moment tolerances.
_PRODUCT_MOMENT_VARS = (1.0, 8.0, 225.0, 10944.0)
_KS_SAMPLE_CAP = 100_000
_KS_BOUND = 0.01
# Family-wise false-alarm rate of mc_gaussian_product's five checks (four
# moments, one CDF distance) on a correct sampler. By Bonferroni each check
# runs at the two-sided z of PRODUCT_FALSE_ALARM / 5:
# statistics.NormalDist().inv_cdf(1 - PRODUCT_FALSE_ALARM / 10), written out
# so that importing the package does not import statistics. The rate holds,
# within the noise of 4000 runs, from about 8e4 samples: over seeds 0-3999 a
# correct sampler failed 0.30% at 8e4 and 0.23% at 1e5, every failure a
# moment's. Below that the distance's bound is tighter than the spread of two
# correct samples: 0.53% at 5e4, and over seeds 0-199, 11.5% at 2e4 and 36%
# at 1e4.
PRODUCT_FALSE_ALARM = 0.0027
_PRODUCT_Z = 3.460087443038579


def mc_gaussian_product(samples: int, seed=None) -> McReport:
    """Check XY =d (Q - R)/2 for X, Y standard Gaussian and Q, R chi-squared(1).

    Compares the first four moments of XY against (0, 1, 0, 9) and the
    two-sample CDF max distance between XY and (Q-R)/2 draws against 0.01
    (distance computed on at most 1e5 draws per side), each at z = _PRODUCT_Z,
    so that from about 8e4 samples a correct sampler fails with probability
    at most PRODUCT_FALSE_ALARM; below that it fails more often (see
    PRODUCT_FALSE_ALARM). empirical_prob reports the CDF distance.

    The moments come from each block's sums of XY and its powers, added in
    block order. The distance sample is the first products in block order.
    Each block holding k > 0 of them then draws 2k more normals, after its X
    and Y and into the same buffer, whose squares are its k values of Q and
    of R: the reference is as long as the distance sample and independent of
    every product.
    """
    samples = _count(samples, "samples", 10_000)
    n_ks = min(samples, _KS_SAMPLE_CAP)
    head, ref = np.empty(n_ks), np.empty(n_ks)

    def block(rng, draws, j):
        p, y = rng.standard_normal(out=draws)
        np.multiply(p, y, out=p)  # p = XY
        start = j * _BLOCK
        k = min(max(n_ks - start, 0), p.size)
        head[start : start + k] = p[:k]
        p2 = np.multiply(p, p, out=y)  # p ** 3 and p ** 4 would each call libm pow
        s1, s2 = np.sum(p), np.sum(p2)
        sums = s1, s2, np.sum(np.multiply(p2, p, out=p)), np.sum(np.multiply(p2, p2, out=p2))
        if k:
            q, r = rng.standard_normal(out=draws.reshape(-1)[: 2 * k].reshape(2, k))
            np.multiply(q, q, out=q)
            np.multiply(r, r, out=r)
            np.subtract(q, r, out=q)
            np.multiply(q, 0.5, out=ref[start : start + k])  # (Q - R)/2
        return sums

    sums = [sum(column) for column in zip(*_run_blocks(samples, seed, 2, block))]
    distance, passed = _product_checks(sums, samples, head, ref)
    return McReport(samples=samples, empirical_prob=distance, bound=_KS_BOUND, exact=None, vacuous=False, passed=passed)


def _product_checks(sums, samples: int, head: np.ndarray, ref: np.ndarray) -> tuple[float, bool]:
    """CDF distance of head to ref, and whether all five checks pass.

    sums holds the totals of XY, (XY)^2, (XY)^3 and (XY)^4 over `samples`
    products, and head the products the distance is taken on. head and ref
    are sorted in place.
    """
    distance = _ks_distance(head, ref)
    moments_ok = all(
        abs(float(total) / samples - _PRODUCT_MOMENTS[k]) <= _PRODUCT_Z * math.sqrt(_PRODUCT_MOMENT_VARS[k] / samples)
        for k, total in enumerate(sums)
    )
    slack = _PRODUCT_Z * math.sqrt(_KS_BOUND * (1.0 - _KS_BOUND) / ref.size)
    return distance, moments_ok and distance <= _KS_BOUND + slack


def check_fd_exactness(
    net: TwoLayerNet,
    cfg: FiniteDiffConfig,
    trials: int,
    seed=None,
    rel_tol: float = 1e-9,
) -> FdExactnessReport:
    """Finite differences are exact (to rounding) away from all hyperplanes.

    Samples Gaussian points with min_i |<A_i, x>| > eta by rejection and
    compares finite_differences on a membership Oracle, one request per
    point, against the exact gradient at rel_tol; the first point that misses
    it is the counterexample.
    """
    _count(trials, "trials", 1)
    _number(rel_tol, "rel_tol", "[0, inf)")
    rng = np.random.default_rng(_seed(seed))
    eta = cfg.eta
    budget = 200 * trials
    collected = 0
    worst = 0.0
    counterexample = None
    oracle = Oracle(net, "membership")
    for _ in range(budget):
        if collected == trials:
            break
        x = rng.standard_normal(net.d)
        if float(np.min(np.abs(net.A @ x))) <= eta:
            continue
        collected += 1
        with np.errstate(over="ignore", invalid="ignore"):
            approx = finite_differences(oracle, x[None], eta)[0][0]
            exact = grad_target(net, x)
            rel = float(np.max(np.abs(approx - exact))) / (1.0 + float(np.max(np.abs(exact))))
            worst = float(np.maximum(worst, rel))  # keeps a NaN, as in functional_equivalence
        if not rel <= rel_tol and counterexample is None:  # a NaN error is a counterexample
            counterexample = x
    if collected < trials:
        raise ConfigError(
            f"rejection sampling yielded only {collected}/{trials} points; eta={eta} too large"
        )
    return FdExactnessReport(trials=trials, max_rel_error=worst, counterexample=counterexample)
