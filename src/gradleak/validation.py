"""Ground-truth verification and Monte Carlo validation of the tail bounds.

functional_equivalence and match_rows compare an extraction result against the
hidden net it came from. The mc_* functions check, by simulation, the
probability inequalities the attack's parameter selection relies on: the
anti-concentration of crossing gaps, the Cauchy tail of a single crossing, the
chi-squared difference bound behind it, and the product-of-Gaussians identity.

Each mc_* check holds in full only the draws its arithmetic needs at once and
streams the last one through a reused block of _BLOCK numbers. numpy's
Generator fills a (2, n) request one number after another, so the second row
of such a draw is exactly the next n numbers of the stream, in order; the
blocks read the same numbers and do the same per-element arithmetic, so every
report is the one the full draw gives, in a fraction of the memory.

No array holds more than n numbers (bar the CDF-distance merge, at most 2e5):
a larger one, once freed, raises glibc's dynamic mmap threshold past n, and
the n-arrays of later checks then stay in the heap instead of going back to
the system when they are freed.

_MC_CHUNK, unlike _BLOCK, decides which numbers pair up into one sample, so
changing it would change every stream and every pinned report. It belongs to
the lemma checks alone: functional_equivalence draws its points in blocks of
rows (see _MIN_ROWS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MatchAmbiguityError
from .model import TwoLayerNet, RecoveredModel, _integer, eval_recovered_batch, eval_target_batch, grad_target
from .extraction import finite_differences
from .oracle import Oracle

# Two row-match candidates closer than this in |cosine| are reported, not guessed.
MATCH_AMBIGUITY_TOL = 1e-9

_MC_CHUNK = 1 << 20
# Numbers per streamed block (512 KiB of float64).
_BLOCK = 1 << 16
# Fewest rows functional_equivalence evaluates at once (bar n_points itself).
# BLAS rounds a product of few rows differently from the same rows inside a
# larger one: on near-exact models blocks of 128 rows moved the ~1e-15 report
# in its last bits at (d, h) = (128, 8), (512, 16) and (2048, 4), while blocks
# of 256 rows or more matched one draw of every point at every shape tried.
_MIN_ROWS = 512


@dataclass
class EquivalenceReport:
    """Max relative disagreement over sampled points; vacuous when n_points=0."""

    max_rel_error: float
    tol: float
    n_points: int
    passed: bool
    vacuous: bool = False


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
    passed: bool
    exact: float | None = None
    vacuous: bool = False

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "empirical_prob": self.empirical_prob,
            "bound": self.bound,
            "exact": self.exact,
            "vacuous": self.vacuous,
            "passed": self.passed,
        }


@dataclass
class FiniteDiffConfig:
    """Step size for one-sided finite differences along coordinate axes."""

    eta: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.eta < np.inf:  # a NaN step makes every error NaN, which no check flags
            raise ValueError(f"eta must be positive and finite, got {self.eta}")


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

    The points are drawn and evaluated in blocks of max(_MIN_ROWS, _BLOCK // d)
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
    if not _integer(n_points) or n_points < 0:
        raise ValueError(f"n_points must be a non-negative integer, got {n_points!r}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if n_points == 0:
        return EquivalenceReport(0.0, tol, 0, passed=True, vacuous=True)
    rng = np.random.default_rng(seed)
    rows = max(_MIN_ROWS, _BLOCK // net.d)
    blocks = max(1, (n_points - _MIN_ROWS) // rows + 1)
    last = n_points - (blocks - 1) * rows  # under rows + _MIN_ROWS
    buf = np.empty((min(n_points, max(rows, last)), net.d))
    worst = 0.0
    for k in range(blocks):
        pts = buf[: last if k == blocks - 1 else rows]
        rng.standard_normal(out=pts)
        f = eval_target_batch(net, pts)
        fhat = eval_recovered_batch(model, pts)
        worst = max(worst, float(np.max(np.abs(f - fhat) / (1.0 + np.abs(f)))))
    return EquivalenceReport(worst, tol, n_points, passed=worst <= tol)


def match_rows(net: TwoLayerNet, z) -> MatchResult:
    """Match recovered rows to the true weighted normals w_i A_i.

    Greedy assignment on |cosine|, largest first; the sign of each match
    minimizes the infinity-norm residual. Two candidates within
    MATCH_AMBIGUITY_TOL of each other raise MatchAmbiguityError.
    """
    zm = np.asarray(z, dtype=float)
    h = net.h
    if zm.shape != (h, net.d):
        raise ValueError(f"Z must have shape ({h}, {net.d}), got {zm.shape}")

    targets = net.w[:, None] * net.A
    tn = np.sqrt(np.sum(targets * targets, axis=1))
    zn = np.sqrt(np.sum(zm * zm, axis=1))
    denom = np.outer(tn, np.where(zn == 0.0, 1.0, zn))
    cos = np.abs(targets @ zm.T) / denom
    cos[:, zn == 0.0] = 0.0

    perm = np.full(h, -1, dtype=int)
    avail_t = np.ones(h, dtype=bool)
    avail_z = np.ones(h, dtype=bool)
    for _ in range(h):
        masked = np.where(np.outer(avail_t, avail_z), cos, -np.inf)
        i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
        best = masked[i, j]
        masked[i, j] = -np.inf
        runner = np.max(np.concatenate([masked[i, :], masked[:, j]]))
        if np.isfinite(runner) and best - runner <= MATCH_AMBIGUITY_TOL:
            raise MatchAmbiguityError(
                f"rows {i}/{j}: best |cosine| {best:.12f} within "
                f"{MATCH_AMBIGUITY_TOL} of runner-up {runner:.12f}"
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
    return MatchResult(permutation=perm, signs=signs, max_row_error=worst)


def _check_samples(samples, least: int) -> None:
    """Refuse a sample count that is not an integer of at least `least`, before any draw."""
    if not _integer(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < least:
        raise ValueError(f"samples must be at least {least}, got {samples}")


def _mc_rate(samples: int, seed, event_fn) -> float:
    """Mean of event_fn over `samples` draws from the first child stream of seed."""
    _check_samples(samples, 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    hits = 0
    remaining = samples
    while remaining > 0:
        n = min(remaining, _MC_CHUNK)
        hits += int(event_fn(rng, n))
        remaining -= n
    return hits / samples


def _stream(draw, n: int):
    """Yield (slice, block) pairs holding the next n numbers of draw, in stream order.

    draw is a Generator method taking out=; each block overwrites the last.
    """
    block = np.empty(min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        part = block[: min(_BLOCK, n - start)]
        draw(out=part)
        yield slice(start, start + part.size), part


def _make_report(samples, empirical, bound, exact=None) -> McReport:
    vacuous = bound > 1.0
    capped = min(max(bound, 0.0), 1.0)
    slack = 3.0 * math.sqrt(capped * (1.0 - capped) / samples)
    passed = empirical <= capped + slack
    if exact is not None:
        ex_sd = math.sqrt(max(exact * (1.0 - exact), 0.0) / samples)
        passed = passed and abs(empirical - exact) <= 3.0 * ex_sd
    return McReport(
        samples=samples,
        empirical_prob=empirical,
        bound=bound,
        passed=passed,
        exact=exact,
        vacuous=vacuous,
    )


def mc_crossing_gap(c: float, epsilon: float, samples: int, seed=None) -> McReport:
    """Check P(|t1 - t2| <= eps) <= 3^(4/3) (eps/c)^(2/3) for two hyperplanes
    at collinearity gap c crossed by a random line."""
    if not 0.0 < c <= 1.0:
        raise ValueError("c must lie in (0, 1]")
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and non-negative")
    b2 = math.sqrt(1.0 - (1.0 - c) ** 2)

    def event(rng, n):
        # Only the projections onto span(a, b) matter; work in the plane with
        # a = e1, b = (1-c, sqrt(1-(1-c)^2)); |t1 - t2| = |au/av - bu/bv| for t = -u/v.
        # The stream is au, bu, av, bv; av and bv are streamed, and au and bu
        # are two draws of n, not one of 2n (see the module docstring).
        au = rng.standard_normal(n)
        bu = rng.standard_normal(n)
        scratch = np.multiply(au, 1.0 - c)
        bu *= b2
        bu += scratch
        hits = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for part, av in _stream(rng.standard_normal, n):
                np.divide(au[part], av, out=au[part])
                np.multiply(av, 1.0 - c, out=scratch[part])
            del av  # the first stream's block, before the second allocates its own
            for part, bv in _stream(rng.standard_normal, n):
                bv *= b2
                bv += scratch[part]
                np.divide(bu[part], bv, out=bv)
                np.subtract(au[part], bv, out=bv)
                hits += np.count_nonzero(np.abs(bv, out=bv) <= epsilon)
        return hits

    empirical = _mc_rate(samples, seed, event)
    bound = 3.0 ** (4.0 / 3.0) * (epsilon / c) ** (2.0 / 3.0)
    return _make_report(samples, empirical, bound)


def mc_cauchy_tail(l: float, samples: int, seed=None) -> McReport:
    """Check P(|t| >= l) <= 2/(pi l) for the (standard Cauchy) crossing
    parameter of one hyperplane, and agreement with the exact tail."""
    if not 0.0 < l < math.inf:
        raise ValueError("l must be positive and finite")

    def event(rng, n):
        num = rng.standard_normal(n)
        hits = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for part, den in _stream(rng.standard_normal, n):
                np.divide(num[part], den, out=den)
                hits += np.count_nonzero(np.abs(den, out=den) >= l)
        return hits

    empirical = _mc_rate(samples, seed, event)
    bound = 2.0 / (math.pi * l)
    exact = 1.0 - (2.0 / math.pi) * math.atan(l)
    return _make_report(samples, empirical, bound, exact=exact)


def mc_chi2_diff(epsilon: float, samples: int, seed=None) -> McReport:
    """Check P(|Q - R| <= eps) <= eps for independent chi-squared(2) Q, R,
    and agreement with the exact law 1 - exp(-eps/2).

    Chi-squared(2) is 2 Exp(1), so Q/2 and R/2 are drawn as standard
    exponentials, the very draws rng.chisquare(2.0, (2, n)) doubles, and
    |Q/2 - R/2| is compared with eps/2 (halving is exact, so the count is the
    same): two draws per sample, not four squared normals.
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and non-negative")

    def event(rng, n):
        q = rng.standard_exponential(n)
        hits = 0
        for part, r in _stream(rng.standard_exponential, n):
            np.subtract(q[part], r, out=r)
            hits += np.count_nonzero(np.abs(r, out=r) <= 0.5 * epsilon)
        return hits

    empirical = _mc_rate(samples, seed, event)
    exact = 1.0 - math.exp(-epsilon / 2.0) if epsilon > 0 else 0.0
    return _make_report(samples, empirical, float(epsilon), exact=exact)


def _ks_distance(xs: np.ndarray, ys: np.ndarray) -> float:
    """Two-sample max CDF distance, read where each run of ties ends in a stable merge."""
    merged = np.concatenate([np.sort(xs), np.sort(ys)])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    run_end = np.append(merged[1:] != merged[:-1], True)
    below_x = np.cumsum(order < xs.size)[run_end]
    below_y = np.flatnonzero(run_end) + 1 - below_x
    return float(np.max(np.abs(below_x / xs.size - below_y / ys.size)))


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
# so that importing the package does not import statistics.
PRODUCT_FALSE_ALARM = 0.0027
_PRODUCT_Z = 3.460087443038579


def mc_gaussian_product(samples: int, seed=None) -> McReport:
    """Check XY =d (Q - R)/2 for X, Y standard Gaussian and Q, R chi-squared(1).

    Compares the first four moments of XY against (0, 1, 0, 9) and the
    two-sample CDF max distance between XY and (Q-R)/2 draws against 0.01
    (distance computed on at most 1e5 draws per side), each at z = _PRODUCT_Z,
    so that a correct sampler fails with probability at most
    PRODUCT_FALSE_ALARM. empirical_prob reports the CDF distance. Q and R are
    drawn only for the distance sample.
    """
    _check_samples(samples, 10_000)
    streams = np.random.SeedSequence(seed).spawn(2)
    rng_a = np.random.default_rng(streams[0])
    rng_b = np.random.default_rng(streams[1])

    n_ks = min(samples, _KS_SAMPLE_CAP)
    prod = rng_a.standard_normal(samples)
    for part, y in _stream(rng_a.standard_normal, samples):
        prod[part] *= y
    ref = 0.5 * (rng_b.standard_normal(n_ks) ** 2 - rng_b.standard_normal(n_ks) ** 2)
    distance, passed = _product_checks(prod, ref)
    return McReport(
        samples=samples,
        empirical_prob=distance,
        bound=_KS_BOUND,
        passed=passed,
    )


def _product_checks(prod: np.ndarray, ref: np.ndarray) -> tuple[float, bool]:
    """CDF distance of prod[:len(ref)] to ref, and whether all five checks pass.

    Consumes prod: its buffer ends up holding prod ** 3, so that the four
    moments take one more array of prod's size, not three.
    """
    distance = _ks_distance(prod[: ref.size], ref)
    p2 = prod * prod  # prod ** 3 and prod ** 4 would each call libm pow
    # Evaluated left to right: prod's mean is taken before its buffer gets prod ** 3.
    means = (
        np.mean(prod),
        np.mean(p2),
        np.mean(np.multiply(p2, prod, out=prod)),
        np.mean(np.multiply(p2, p2, out=p2)),
    )
    moments_ok = all(
        abs(float(mean) - _PRODUCT_MOMENTS[k]) <= _PRODUCT_Z * math.sqrt(_PRODUCT_MOMENT_VARS[k] / prod.size)
        for k, mean in enumerate(means)
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
    if not _integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
    # Written so that NaN fails: a NaN rel_tol would pass every comparison.
    if not 0.0 <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be non-negative and finite, got {rel_tol}")
    rng = np.random.default_rng(seed)
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
        approx = finite_differences(oracle, x[None], eta)[0][0]
        exact = grad_target(net, x)
        rel = float(np.max(np.abs(approx - exact))) / (1.0 + float(np.max(np.abs(exact))))
        if rel > worst:
            worst = rel
        if rel > rel_tol and counterexample is None:
            counterexample = x
    if collected < trials:
        raise ConfigError(
            f"rejection sampling yielded only {collected}/{trials} points; eta={eta} too large"
        )
    return FdExactnessReport(trials=trials, max_rel_error=worst, counterexample=counterexample)
