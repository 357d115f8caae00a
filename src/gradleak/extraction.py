"""The extraction attack.

Step one recovers the weighted hyperplane normals up to sign. A random line
u + t v meets each of the h hyperplanes once, and the oracle's gradient is
constant between crossings, so across a bracket (a, b) that holds exactly one
crossing the gradient difference D = g_b - g_a is that crossing's row
+-w_i A_i, and it predicts where the crossing lies: t* = -<D, u> / <D, v>.
Step two finds the sign vector s, with no query, from the gradients g(-v)
and g(+v) the search holds at the line's ends. Taken across increasing
theta, the row of unit i is sigma_i w_i A_i, with sigma_i = sign <A_i, v> =
+1 when the unit is active at +v. So the rows telescope, g(+v) - g(-v) = Z^T
1, and g(+v) + g(-v) = Z^T sigma: one h x h Gram system (Z Z^T) sigma = Z
(g(+v) + g(-v)), a Cholesky factorization and one solve. s follows from
sigma and sign(Zv), and the residual against both end gradients certifies it. The
paper's step from 2h value queries, its reference, is geometry.recover_s.

Every oracle mode runs one certified-isolation loop on the whole line, in
angles: f is positively homogeneous, so the ray through x(theta) = cos theta
u + sin theta v lies in the cell of u + tan theta v, and the line is the
half-circle theta in [-pi/2, pi/2], where D vanishes at theta* = atan2(-<D,
u>, <D, v>) with <D, v> >= 0. Its ends -+pi/2 lie in the tail cells of -v
and +v (cos(pi/2) = 6e-17 > 0), and those two queries, the first round,
bound the search. The loop runs in rounds: each round sends one request for
every open kinked bracket (ends in different cells), all in one batch. A
bracket whose theta* lies outside it, which proves two crossings at no
query's cost, requests its midpoint: each crossing angle of a Gaussian line
is uniform, so that halves the chance that the bracket holds one. Any other
requests theta* - tau, checked against a's cell, and after that passes
theta* + tau, checked against b's (tau = epsilon, wider in smoothgrad): both
pass and it is certified, or the failed probe is its split point (the
midpoint, requested next round, if that probe lies outside it). A bracket's
fate depends only on its own ends, so on a line that succeeds neither the
requests nor the rows depend on the order of a round. A line is refused, and
retried on a fresh one, when certified plus open brackets (those of the
next round and those of this round still to be served) exceed h, when none
is open with fewer than h certified, or when a bracket narrower than epsilon
(or with no split point inside it) would have to be split. Each row is g_b -
g_a and each crossing its t*.

The modes differ only in their one request and the one cell test, _same.
Exact gradients (grad, and smoothgrad at sigma = 0) are one read-only array
per cell, returned by every query in it, so the cell test is identity alone:
the same object means the same cell, and any two cells differ, however small
their row. Otherwise the difference norm must not exceed GRAD_CHANGE_TOL. At
sigma > 0, tau = max(eps, 8 sigma |D| / hypot(<D, u>, <D, v>)), the hypot
being |d/dtheta <D, x(theta)>| at theta*. As <D, x(theta)> = hypot sin(theta
- theta*), both probes sit at least 8 sigma sin tau / tau from the
hyperplane, beyond the blur. A line is refused when tau reaches pi/2, where
the whole half-circle lies within the blur and a probe near theta* + pi
would lie on the hyperplane again; below it that clearance is at least 16
sigma / pi ~ 5.09 sigma. A membership oracle serves values only, so the attacker
estimates each gradient by finite_differences (d+1 value queries) at the
unit-rescaled point p = x / |x| (gradients are scale-invariant), a round's k
points in one values request. By homogeneity a gradient g is
valid at p when Euler's identity f(p) = <g, p> holds; a step that straddles
a hyperplane breaks it, and a point whose gradient is invalid is in the cell
of a valid g that fits it. Each split point's cell is decided once, against
both bracket ends: in exactly one end's cell it takes that end's gradient,
so the part it shares with the other end keeps its parent's row and theta*
bit for bit. An invalid one in neither cell, or both, grazes a hyperplane
and the line is refused, as is a line whose request at an end is invalid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtractionFailure, SignRecoveryError
from .model import RecoveredModel, _count, _number, _seed
from .oracle import Oracle, QueryLedger

# Gradient-change threshold for the "same cell" test of membership and blurred
# smoothgrad: far below the smallest real change (w_min times a unit row), far
# above rounding. Exact gradients are compared by identity, with no threshold.
GRAD_CHANGE_TOL = 1e-7
# Finite-difference step of the membership requests at unit-norm points.
REFINE_ETA = 1e-5
# Relative tolerance of the Euler identity f(p) = <g, p> (rounding leaves
# ~1e-11 at REFINE_ETA; a straddled step ~1e-3).
EULER_TOL = 1e-8
# Smoothgrad probes sit BLUR_SIGMAS sigma sin tau / tau from the predicted
# hyperplane, at least 16 sigma / pi ~ 5.09 sigma (tau < pi/2).
BLUR_SIGMAS = 8.0
# Rounded sign entries must be within this of the solved values.
SIGN_ROUND_TOL = 0.1
# A rounded sign vector s is rejected unless ||Ms - b||_inf <= SOLVE_RESIDUAL_TOL
# * max(1, max_j ||x_j||) * (1 + ||b||_inf) for the points x_j of its system
# (the unit +-v / |v| for the end gradients: a gradient does not grow with its point).
SOLVE_RESIDUAL_TOL = 1e-8


def select_parameters(delta: float, c: float, h: int) -> tuple[float, int]:
    """Choose the search resolution epsilon, and the tail bound l, for a failure budget.

    The paper splits the budget evenly between two failure events: crossings
    closer than epsilon (anti-concentration term 3^(4/3) (eps/c)^(2/3) h^2
    <= delta/2) and crossings outside [-l, l] (Cauchy tail term 2h/(pi l)
    <= delta/2, with l at least h^2). The search splits the crossing angles
    atan t, with no tail, and reads epsilon in radians: two angles lie that
    close with probability at most 2 eps / sqrt(pi c), and h^2 eps /
    sqrt(pi c) <= delta/2 here. l is returned because acceptance criterion 2
    bounds a run's queries by 3h log2(2l/eps) + 2h.
    """
    if not 0.0 < _number(delta, "delta") < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < _number(c, "c") <= 1.0:
        raise ValueError("c must lie in (0, 1]")
    _count(h, "h", 1)
    l = max(h * h, math.ceil(4.0 * h / (math.pi * delta)))
    epsilon = (c / 9.0) * (delta / 2.0) ** 1.5 / h**3
    return epsilon, l


@dataclass
class ExtractionConfig:
    """Attacker-side parameters. epsilon, the search resolution in radians, defaults to select_parameters."""

    h: int
    delta: float = 0.1
    c: float = 0.01
    epsilon: float | None = None
    seed: int | None = None
    max_retries: int = 5

    def __post_init__(self):
        eps, _ = select_parameters(self.delta, self.c, self.h)
        _count(self.max_retries, "max_retries")
        _seed(self.seed)
        if self.epsilon is None:
            self.epsilon = eps
        if not 0.0 < _number(self.epsilon, "epsilon") < math.inf:
            raise ValueError("epsilon must be positive and finite")


@dataclass
class ZRecovery:
    """Recovered normals Z, the search line u + t v they came from, its crossings and end gradients."""

    Z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    crossings: list[float]
    refusals: list[str]  # why each line searched before this one was refused, in order
    ends: tuple[np.ndarray, np.ndarray]  # the gradients g(-v) and g(+v) of the line's tail cells


@dataclass
class ExtractionReport:
    """One extraction's record, whether it returned a model or failed.

    On failure model is None, phase names the failing phase ("search" or
    "sign", or None for an error raised outside learn_model), and the trace
    is what was spent and found before it. After a search failure the last
    line was refused too, so refusals holds retries + 1 reasons.
    """

    model: RecoveredModel | None
    gradient_queries: int
    value_queries: int
    rounds: int  # oracle requests, over every line searched
    refusals: list[str]  # why each refused line was refused, in order
    crossings: list[float]  # those of the line that passed the search; none after a search failure
    phase: str | None = None

    @classmethod
    def from_ledger(cls, ledger: QueryLedger, model=None, phase=None, refusals=(), crossings=()) -> ExtractionReport:
        """The record of a run whose queries the ledger counted."""
        return cls(
            model, ledger.gradient_queries, ledger.value_queries, ledger.rounds, list(refusals), list(crossings), phase
        )

    @property
    def retries(self) -> int:
        return len(self.refusals) - (self.phase == "search")

    def report_dict(self) -> dict:
        """The extract report, or on failure (model None) the failure report, which adds "phase"."""
        failed = self.model is None
        return {
            "success": not failed,
            **({"phase": self.phase} if failed else {}),
            "retries": self.retries,
            "refusals": list(self.refusals),
            "gradient_queries": self.gradient_queries,
            "value_queries": self.value_queries,
            "rounds": self.rounds,
            "crossings": list(self.crossings),
        }


def _norm(x: np.ndarray) -> float:
    return math.sqrt(float(x @ x))


def _fits(g, p, f) -> bool:
    """Euler's identity f(p) = <g, p>: p lies in the cell whose gradient is g."""
    return abs(float(g @ p) - f) <= EULER_TOL * (1.0 + abs(f) + _norm(g))


def _same(p, q, exact: bool) -> bool:
    """The one cell test. Exact gradients are one cell when they are one
    object. An invalid membership point (t, None, p, f(p)) is in the other's
    cell when that gradient fits it; else one object, or two within
    GRAD_CHANGE_TOL, is one cell."""
    if p[1] is None:
        p, q = q, p
    if q[1] is None:
        return _fits(p[1], q[2], q[3])
    return p[1] is q[1] or (not exact and _norm(p[1] - q[1]) <= GRAD_CHANGE_TOL)


def finite_differences(oracle: Oracle, X, eta: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Forward-difference gradients and the values f at the k rows of X, from one values request.

    The request is the k(d+1) rows [x; x + eta I] of each point x: component j
    is (f(x + eta e_j) - f(x)) / eta, and f(x) is shared by all d components,
    so the cost is exactly k(d+1) value queries in one round.
    """
    pts, d = np.asarray(X, dtype=float), oracle.d
    offsets = np.vstack([np.zeros(d), eta * np.eye(d)])
    f = oracle.values((pts[:, None, :] + offsets).reshape(-1, d)).reshape(len(pts), -1)
    return list((f[:, 1:] - f[:, :1]) / eta), f[:, 0]


def _search_line(oracle: Oracle, u, v, cfg: ExtractionConfig):
    """Certified-isolation search for h crossings on the line u + t v, in rounds.

    Brackets carry angles theta of the half-circle cos theta u + sin theta v.
    Each round sends one request for every open bracket. Each split point's
    cell is decided once; in one end's cell it takes that end's gradient.
    Returns the rows g_b - g_a of the h certified brackets and their
    crossings t*, in crossing order, and the gradients (g(-v), g(+v)) of the
    line's tail cells; raises ExtractionFailure when the line is refused.
    """
    uv = np.array([u, v], dtype=float)
    sigma = oracle.sg.sigma if oracle.mode == "smoothgrad" else 0.0
    membership = oracle.mode == "membership"
    exact = not (membership or sigma)  # one read-only gradient array per cell

    def request(thetas):
        # One round at the points x(theta), returned as (theta, g) in grad and
        # smoothgrad; in membership a finite-difference gradient at p = x /
        # |x| each, as (theta, g or None, p, f(p)), all from one values request.
        xs = np.array([(math.cos(t), math.sin(t)) for t in thetas]) @ uv
        if not membership:
            # Not zip: the round loop's zip is a round's one pairing, which
            # test_order_within_a_round_changes_nothing shuffles.
            grads = oracle.gradients(xs)
            return [(t, grads[i]) for i, t in enumerate(thetas)]
        ps = xs / np.linalg.norm(xs, axis=1, keepdims=True)
        grads, values = finite_differences(oracle, ps, REFINE_ETA)
        return [(t, g if _fits(g, p, f) else None, p, f) for t, g, p, f in zip(thetas, grads, ps, values.tolist())]

    # Each open bracket is (the angle it requests next, what that request is, a, b,
    # its row D = g_b - g_a with <D, u>, <D, v>, theta* and tau).
    SPLIT, LOW, HIGH = range(3)

    def bracket(a, b, out):
        """Append the kinked bracket (a, b) with its first request: a probe at theta* - tau, or its split."""
        row = b[1] - a[1]
        across, along = (uv @ row).tolist()  # <D, u>, <D, v>; theta* has cos >= 0
        theta = math.atan2(-across, along) if along >= 0 else math.atan2(across, -along)
        if not a[0] <= theta <= b[0]:
            # theta* outside proves two crossings: split before any probe.
            divide(a, b, None, out)
            return
        tau = cfg.epsilon
        if sigma:
            blur = BLUR_SIGMAS * sigma * _norm(row) / math.hypot(across, along)
            if blur >= math.pi / 2:
                raise ExtractionFailure("the blur around a crossing covers the half-circle (tau >= pi/2)")
            tau = max(tau, blur)
        out.append((theta - tau, LOW, a, b, (row, across, along, theta, tau)))

    def divide(a, b, m, out):
        """Split (a, b) at the failed probe m if it lies inside, else at the midpoint, next round."""
        split = m[0] if m is not None and a[0] < m[0] < b[0] else 0.5 * (a[0] + b[0])
        if b[0] - a[0] < cfg.epsilon or not a[0] < split < b[0]:
            raise ExtractionFailure("fewer than h crossings are separated at resolution epsilon")
        if m is None or m[0] != split:
            out.append((split, SPLIT, a, b, None))
            return
        in_a, in_b = _same(a, m, exact), _same(m, b, exact)
        if in_a != in_b:
            # In one end's cell it takes that end's gradient, valid or not.
            m = (m[0], (a if in_a else b)[1], *m[2:])
        elif m[1] is None:
            # An invalid point that fits neither end, or both, grazes a hyperplane.
            raise ExtractionFailure("no Euler-valid split point in a bracket")
        if not in_a:
            bracket(a, m, out)
        if not in_b:
            bracket(m, b, out)

    # cos(+-pi/2) = 6e-17 > 0: the ends lie in the tail cells of -v and +v.
    lo, hi = request((-math.pi / 2, math.pi / 2))
    if lo[1] is None or hi[1] is None:
        raise ExtractionFailure("no Euler-valid gradient at an end of the line")
    certified, brackets = [], []
    if not _same(lo, hi, exact):
        bracket(lo, hi, brackets)
    while brackets:
        opened, points = [], request([entry[0] for entry in brackets])  # opened: those open after this round
        for i, ((_, kind, a, b, probe), m) in enumerate(zip(brackets, points)):
            if kind == LOW and _same(a, m, exact):
                theta, tau = probe[3:]
                opened.append((theta + tau, HIGH, a, b, probe))
            elif kind == HIGH and _same(m, b, exact):
                row, across, along, theta, _ = probe
                # A row parallel to v crosses at an end: report tan(+-pi/2).
                certified.append((a[0], row, -across / along if along else math.tan(theta)))
            else:
                # A split request or a failed probe: split there, or at the midpoint next round if it lies outside.
                divide(a, b, m, opened)
            if len(certified) + len(opened) + len(brackets) - 1 - i > cfg.h:
                raise ExtractionFailure("more than h crossings lie on the line")
        brackets = opened
    if len(certified) < cfg.h:
        raise ExtractionFailure("fewer than h crossings lie on the line")
    certified.sort(key=lambda c: c[0])
    return np.array([c[1] for c in certified]), [c[2] for c in certified], (lo[1], hi[1])


def recover_z(oracle: Oracle, cfg: ExtractionConfig, rng: np.random.Generator) -> ZRecovery:
    """Recover the weighted normals up to sign and permutation.

    Draws fresh (u, v) from rng on each retry; raises ExtractionFailure once
    the retry budget is exhausted, carrying the search's record as err.report.
    """
    refusals: list[str] = []
    for _ in range(cfg.max_retries + 1):
        u, v = rng.standard_normal((2, oracle.d))
        try:
            z, crossings, ends = _search_line(oracle, u, v, cfg)
            return ZRecovery(Z=z, u=u, v=v, crossings=crossings, refusals=refusals, ends=ends)
        except ExtractionFailure as err:
            last = err
            refusals.append(str(err))
    failure = ExtractionFailure(f"all {cfg.max_retries + 1} search attempts failed; last: {last}")
    failure.report = ExtractionReport.from_ledger(oracle.ledger, phase="search", refusals=refusals)
    raise failure from last


def _end_signs(z, v, ends) -> np.ndarray:
    """Solve for s from the end gradients (g(-v), g(+v)) of the line with direction v.

    Z's rows must be oriented as _search_line gives them, g_b - g_a across
    increasing theta: row k is sigma_k w_i A_i, sigma_k = sign <A_i, v>. Then
    g+ + g- = Z^T sigma, solved as (Z Z^T) sigma = Z (g+ + g-): Cholesky
    refuses a singular or too ill-conditioned Z, one solve finds sigma, and
    sigma must round to +-1. The certificate is the residual against both
    ends, Z^T 1[sigma > 0] = g+ and Z^T 1[sigma < 0] = -g-, the recovered
    model's gradients at +v and -v. With up = Zv > 0, the sign of w_i, s_top
    = up [sigma = up] and s_bottom = up [sigma != up].
    """
    zm, g = np.asarray(z, dtype=float), np.array(ends, dtype=float)
    if not (np.isfinite(zm).all() and np.isfinite(g).all()):
        raise SignRecoveryError("sign system has a non-finite entry")
    g_lo, g_hi = g
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check below
        gram = zm @ zm.T
        try:
            np.linalg.cholesky(gram)
            sigma = np.linalg.solve(gram, zm @ (g_hi + g_lo))
        except np.linalg.LinAlgError as err:
            raise SignRecoveryError(f"sign system is singular: {err}") from err
        near = np.abs(np.abs(sigma) - 1.0) <= SIGN_ROUND_TOL
        if not near.all():
            i = int(np.argmin(near))
            raise SignRecoveryError(f"sign solution entry {i} = {sigma[i]:.6g} is not near +-1")
        pos, up = sigma > 0, zm @ v > 0
        residual = np.max(np.abs(np.array([pos, ~pos], dtype=float) @ zm - [g_hi, -g_lo]))
    if not residual <= SOLVE_RESIDUAL_TOL * (1.0 + np.max(np.abs(g))):
        raise SignRecoveryError(f"rounded sign vector leaves residual {residual:.3e}")
    unit, top = np.where(up, 1, -1), pos == up
    return np.concatenate([unit * top, unit * ~top])


def learn_model(oracle: Oracle, cfg: ExtractionConfig) -> ExtractionReport:
    """Full extraction in one query phase: recover Z, then s from the line's end gradients.

    Failures are raised, never silently mis-recovered: ExtractionFailure from
    the search, SignRecoveryError from an inconsistent sign solve. The raised
    error carries the run's ExtractionReport as err.report, with no model and
    the failing phase ("search" or "sign").
    """
    zres = recover_z(oracle, cfg, rng=np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,))))
    try:
        s = _end_signs(zres.Z, zres.v, zres.ends)
    except SignRecoveryError as err:
        err.report = ExtractionReport.from_ledger(oracle.ledger, None, "sign", zres.refusals, zres.crossings)
        raise
    model = RecoveredModel(Z=zres.Z, s=s)
    return ExtractionReport.from_ledger(oracle.ledger, model, refusals=zres.refusals, crossings=zres.crossings)
