"""Ground-truth verification and Monte Carlo validation of the tail bounds.

functional_equivalence and match_rows compare an extraction result against the
hidden net it came from. The mc_* functions check, by simulation, the
probability inequalities the attack's parameter selection relies on: the
anti-concentration of crossing gaps, the Cauchy tail of a single crossing, the
chi-squared difference bound behind it, and the product-of-Gaussians identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MatchAmbiguityError
from .model import TwoLayerNet, RecoveredModel, eval_recovered_batch, eval_target_batch, grad_target
from .oracle import FiniteDiffConfig, Oracle

# Two row-match candidates closer than this in |cosine| are reported, not guessed.
MATCH_AMBIGUITY_TOL = 1e-9

_MC_CHUNK = 1 << 20


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
class FdExactnessReport:
    """Finite-difference vs exact gradients on points clear of all hyperplanes."""

    trials: int
    max_rel_error: float
    passed: bool
    counterexample: np.ndarray | None = None
    grid: McReport | None = None


def functional_equivalence(
    net: TwoLayerNet, model: RecoveredModel, n_points: int, tol: float, seed=None
) -> EquivalenceReport:
    """Max of |f(x) - fhat(x)| / (1 + |f(x)|) over standard Gaussian samples."""
    if net.d != model.d:
        raise ValueError(f"dimension mismatch: net d={net.d}, model d={model.d}")
    if n_points < 0:
        raise ValueError("n_points must be non-negative")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if n_points == 0:
        return EquivalenceReport(0.0, tol, 0, passed=True, vacuous=True)
    rng = np.random.default_rng(seed)
    worst = 0.0
    remaining = n_points
    while remaining > 0:
        n = min(remaining, _MC_CHUNK)
        pts = rng.standard_normal((n, net.d))
        f = eval_target_batch(net, pts)
        fhat = eval_recovered_batch(model, pts)
        worst = max(worst, float(np.max(np.abs(f - fhat) / (1.0 + np.abs(f)))))
        remaining -= n
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


def _mc_rate(samples: int, seed, event_fn) -> float:
    """Mean of event_fn over `samples` draws from the first child stream of seed."""
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    hits = 0
    remaining = samples
    while remaining > 0:
        n = min(remaining, _MC_CHUNK)
        hits += int(event_fn(rng, n))
        remaining -= n
    return hits / samples


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
        au, bu = rng.standard_normal((2, n))
        av, bv = rng.standard_normal((2, n))
        scratch = np.multiply(au, 1.0 - c)
        bu *= b2
        bu += scratch
        bv *= b2
        bv += np.multiply(av, 1.0 - c, out=scratch)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(au, av, out=au)
            au -= np.divide(bu, bv, out=bu)
        return np.count_nonzero(np.abs(au, out=au) <= epsilon)

    empirical = _mc_rate(samples, seed, event)
    bound = 3.0 ** (4.0 / 3.0) * (epsilon / c) ** (2.0 / 3.0)
    return _make_report(samples, empirical, bound)


def mc_cauchy_tail(l: float, samples: int, seed=None) -> McReport:
    """Check P(|t| >= l) <= 2/(pi l) for the (standard Cauchy) crossing
    parameter of one hyperplane, and agreement with the exact tail."""
    if not 0.0 < l < math.inf:
        raise ValueError("l must be positive and finite")

    def event(rng, n):
        num, den = rng.standard_normal((2, n))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(num, den, out=num)
        return np.count_nonzero(np.abs(num, out=num) >= l)

    empirical = _mc_rate(samples, seed, event)
    bound = 2.0 / (math.pi * l)
    exact = 1.0 - (2.0 / math.pi) * math.atan(l)
    return _make_report(samples, empirical, bound, exact=exact)


def mc_chi2_diff(epsilon: float, samples: int, seed=None) -> McReport:
    """Check P(|Q - R| <= eps) <= eps for independent chi-squared(2) Q, R,
    and agreement with the exact law 1 - exp(-eps/2)."""
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and non-negative")

    def event(rng, n):
        g = rng.standard_normal((4, n))
        q, q1, r, r1 = np.square(g, out=g)
        q += q1
        q -= np.add(r, r1, out=r)
        return np.count_nonzero(np.abs(q, out=q) <= epsilon)

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
# Variances of the corresponding powers, for 3-sigma tolerances.
_PRODUCT_MOMENT_VARS = (1.0, 8.0, 225.0, 10944.0)
_KS_SAMPLE_CAP = 100_000
_KS_BOUND = 0.01


def mc_gaussian_product(samples: int, seed=None) -> McReport:
    """Check XY =d (Q - R)/2 for X, Y standard Gaussian and Q, R chi-squared(1).

    Compares the first four moments of XY against (0, 1, 0, 9) at 3 sigma and
    the two-sample CDF max distance between XY and (Q-R)/2 draws against 0.01
    (distance computed on at most 1e5 draws per side). empirical_prob reports
    the CDF distance. Q is drawn in full to keep R's place in the stream, R only
    for the distance sample.
    """
    if samples < 10_000:
        raise ValueError("samples must be at least 10^4")
    streams = np.random.SeedSequence(seed).spawn(2)
    rng_a = np.random.default_rng(streams[0])
    rng_b = np.random.default_rng(streams[1])

    n_ks = min(samples, _KS_SAMPLE_CAP)
    prod = rng_a.standard_normal(samples) * rng_a.standard_normal(samples)
    ref = 0.5 * (rng_b.standard_normal(samples)[:n_ks] ** 2 - rng_b.standard_normal(n_ks) ** 2)

    p2 = prod * prod  # prod ** 3 and prod ** 4 would each call libm pow
    moments_ok = True
    for k, power in enumerate((prod, p2, p2 * prod, p2 * p2)):
        tol = 3.0 * math.sqrt(_PRODUCT_MOMENT_VARS[k] / samples)
        moments_ok = moments_ok and abs(float(np.mean(power)) - _PRODUCT_MOMENTS[k]) <= tol

    distance = _ks_distance(prod[:n_ks], ref)
    slack = 3.0 * math.sqrt(_KS_BOUND * (1.0 - _KS_BOUND) / n_ks)
    passed = moments_ok and distance <= _KS_BOUND + slack
    return McReport(
        samples=samples,
        empirical_prob=distance,
        bound=_KS_BOUND,
        passed=passed,
    )


def check_fd_exactness(
    net: TwoLayerNet,
    cfg: FiniteDiffConfig,
    trials: int,
    seed=None,
    rel_tol: float = 1e-9,
    grid_l: float | None = None,
    grid_epsilon: float | None = None,
    grid_trials: int = 1000,
) -> FdExactnessReport:
    """Finite differences are exact (to rounding) away from all hyperplanes.

    Samples Gaussian points with min_i |<A_i, x>| > eta by rejection and
    compares membership-mode Oracle gradients against the exact gradient at
    rel_tol. When grid_l and grid_epsilon are given, also estimates how often
    a search grid {u + i eps v} contains a point within eta of a hyperplane
    and checks the rate against 2 l h eta / eps.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if grid_trials < 1:
        raise ValueError(f"grid_trials must be at least 1, got {grid_trials}")
    rng = np.random.default_rng(seed)
    eta = cfg.eta
    budget = 200 * trials
    collected = 0
    worst = 0.0
    counterexample = None
    passed = True
    oracle = Oracle(net, "membership")
    for _ in range(budget):
        if collected == trials:
            break
        x = rng.standard_normal(net.d)
        if float(np.min(np.abs(net.A @ x))) <= eta:
            continue
        collected += 1
        approx = oracle.gradient(x, eta=eta)
        exact = grad_target(net, x)
        rel = float(np.max(np.abs(approx - exact))) / (1.0 + float(np.max(np.abs(exact))))
        if rel > worst:
            worst = rel
        if rel > rel_tol and counterexample is None:
            counterexample = x
            passed = False
    if collected < trials:
        raise ConfigError(
            f"rejection sampling yielded only {collected}/{trials} points; eta={eta} too large"
        )

    grid_report = None
    if grid_l is not None and grid_epsilon is not None:
        if grid_l <= 0 or grid_epsilon <= 0:
            raise ValueError("grid_l and grid_epsilon must be positive")
        n_steps = int(math.floor(grid_l / grid_epsilon))
        hits = 0
        for _ in range(grid_trials):
            a = net.A @ rng.standard_normal(net.d)
            b = grid_epsilon * (net.A @ rng.standard_normal(net.d))
            # Nearest grid index to each hyperplane, clipped to the grid.
            with np.errstate(divide="ignore", invalid="ignore"):
                idx = np.rint(-a / b)
            idx = np.clip(np.nan_to_num(idx), -n_steps, n_steps)
            event = False
            for shift in (-1.0, 0.0, 1.0):
                cand = np.clip(idx + shift, -n_steps, n_steps)
                if np.any(np.abs(a + cand * b) <= eta):
                    event = True
                    break
            hits += int(event)
        grid_report = _make_report(grid_trials, hits / grid_trials, 2.0 * grid_l * net.h * eta / grid_epsilon)

    return FdExactnessReport(
        trials=trials,
        max_rel_error=worst,
        passed=passed,
        counterexample=counterexample,
        grid=grid_report,
    )
