"""The extraction attack.

Step one recovers the weighted hyperplane normals up to sign: draw a random
line u + t v, binary-search for the points where the oracle's gradient
changes, and record the gradient difference across each change as a row of Z.
Step two recovers the sign vector s by solving 2h linear equations built from
value queries at h points of one cell and their negations; geometry places
them in closed form so that ZX = diag(sigma)(I + J) is well conditioned.

Every oracle mode runs the same search on a line; only the test that a
bracket holds a crossing differs. The h searches share their queries: every
upper bracket end a bisection abandons is kept on a stack, and each later
search starts from the nearest kept point the test separates from the floor
instead of from +l. When no kept point is separated, fewer than h crossings
lie in [-l, l]; when +l is still separated from the floor after the h-th
crossing, more than h do. Both refusals cost no query, and the attempt is
retried on a fresh line.

Exact-gradient modes (grad, smoothgrad) test a bracket by its gradient
difference: gradients are piecewise constant, so a nonzero difference
certifies a crossing inside. Because the rows A_i are linearly independent,
an equal difference certifies the opposite, that no crossing lies inside.
Each row is the gradient difference between the two cells on either side of
its crossing, whichever bracket isolates it, so reusing queries changes the
query count but not Z. The oracle returns one shared array per cell for exact
gradients, so two observations that are the same object are not kinked
without any arithmetic: their difference would be exactly zero. Smoothed
gradients at sigma > 0 are fresh arrays and always take the norm test.

Membership mode estimates gradients by finite differences over value queries.
At the resolutions the parameter selection demands, float64 value queries
cannot resolve a finite-difference quotient whose step is small enough to
avoid straddling hyperplanes near the located crossings (the quotient's
rounding noise exceeds the smallest gradient change). The search therefore
keeps the query pattern, one finite-difference gradient request per search
point, but tests a bracket by the scalar line function t -> f(u + t v), which
is piecewise linear: a chord slope that leaves the floor cell's slope beyond
its rounding bound certifies a crossing at every bracket width float64 can
represent. Rows are then recomputed exactly by finite differences at
unit-rescaled cell midpoints, far from every hyperplane (gradients are
scale-invariant because the hyperplanes pass through the origin). Each refined
gradient g at p must satisfy Euler's identity f(p) = <g, p>; a cell too thin
for the refinement step fails it, and the attempt is retried rather than
returning mixed rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtractionFailure, GradleakError, SignRecoveryError, SingularMatrixError
from .geometry import sign_query_points
from .model import RecoveredModel
from .numerics import SOLVE_RESIDUAL_TOL, as_matrix, block_sign_matrix, solve_linear_system
from .oracle import Oracle

# Gradient-change threshold for exact-gradient modes: far below the smallest
# real change (w_min times a unit row), far above rounding.
GRAD_CHANGE_TOL = 1e-7
# Step for the membership-mode row refinement at unit-norm points.
REFINE_ETA = 1e-4
# Relative tolerance of the Euler identity f(p) = <grad f(p), p> checked at
# each refinement point (rounding leaves ~1e-13; a straddled step ~1e-3).
EULER_TOL = 1e-8
# Attacker-model cap on |w_i| used only to scale membership slope thresholds.
WEIGHT_CAP = 10.0
# Rounded sign entries must be within this of the solved values.
SIGN_ROUND_TOL = 0.1
# Below this bracket width the slope reference is no longer re-measured: a
# crossing grazed by a blind fine-width window must not leak into it.
REF_UPGRADE_MIN_WIDTH = 1e-3
# Terminal confirmation windows widen up to this (noise halves per doubling,
# the slope jump does not depend on the window).
TERMINAL_WIDTH_CAP = 1.0

_EPS = float(np.finfo(float).eps)


def select_parameters(delta: float, c: float, h: int) -> tuple[float, int]:
    """Choose the search resolution epsilon and half-range l for a failure budget.

    The budget is split evenly between the two failure events: crossings
    closer than epsilon (anti-concentration term 3^(4/3) (eps/c)^(2/3) h^2
    <= delta/2) and crossings outside [-l, l] (Cauchy tail term 2h/(pi l)
    <= delta/2, with l at least h^2).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < c <= 1.0:
        raise ValueError("c must lie in (0, 1]")
    if h < 1:
        raise ValueError("h must be at least 1")
    l = max(h * h, math.ceil(4.0 * h / (math.pi * delta)))
    epsilon = (c / 9.0) * (delta / 2.0) ** 1.5 / h**3
    return epsilon, l


def membership_step_bound(delta: float, epsilon: float, l: float, h: int) -> float:
    """Finite-difference step small enough that search-grid points avoid
    hyperplanes with probability >= 1 - delta/(2-delta)."""
    return delta * epsilon / (2.0 * (2.0 - delta) * l * h)


@dataclass
class ExtractionConfig:
    """Attacker-side parameters. epsilon and l default to select_parameters."""

    h: int
    delta: float = 0.1
    c: float = 0.01
    epsilon: float | None = None
    l: float | None = None
    seed: int | None = None
    max_retries: int = 5

    def __post_init__(self):
        eps, l = select_parameters(self.delta, self.c, self.h)
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.epsilon is None:
            self.epsilon = eps
        if self.l is None:
            self.l = l
        if not (0.0 < self.epsilon < math.inf and 0.0 < self.l < math.inf):
            raise ValueError("epsilon and l must be positive and finite")
        if not self.epsilon < 2 * self.l:
            raise ValueError("epsilon must be smaller than the search range 2l")


@dataclass
class ZRecovery:
    """Recovered normals Z, the search line u + t v they came from, and its crossings."""

    Z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    crossings: list[float]
    retries: int


@dataclass
class ExtractionReport:
    """Successful extraction: the model, query costs, and search trace."""

    model: RecoveredModel
    gradient_queries: int
    value_queries: int
    retries: int
    crossings: list[float]

    def report_dict(self) -> dict:
        return {
            "success": True,
            "retries": self.retries,
            "gradient_queries": self.gradient_queries,
            "value_queries": self.value_queries,
            "crossings": list(self.crossings),
        }


def _norm(x: np.ndarray) -> float:
    return math.sqrt(float(x @ x))


class _GradientLine:
    """Exact (or smoothed) gradients: a gradient change certifies a crossing."""

    def __init__(self, oracle: Oracle, u, v, cfg: ExtractionConfig):
        self.oracle, self.u, self.v = oracle, u, v
        self.rows = []

    def point(self, t: float):
        return t, self.oracle.gradient(self.u + t * self.v)

    def kinked(self, p, q) -> bool:
        # One object means one cell: the difference would be exactly zero.
        return p[1] is not q[1] and _norm(p[1] - q[1]) > GRAD_CHANGE_TOL

    def step_over(self, a, m, b) -> None:
        # The loop bisects only brackets (a, b) that test kinked; with m in
        # a's cell this test would repeat that one on the same two arrays.
        if m[1] is not a[1] and not self.kinked(m, b):
            raise ExtractionFailure("no gradient change in either half-bracket")

    def resolve(self, a, b) -> float:
        self.rows.append(b[1] - a[1])
        return b[0]

    def z(self, crossings: list[float]) -> np.ndarray:
        return np.vstack(self.rows)


class _MembershipLine:
    """Finite-difference requests at the search points, chord slopes for the test.

    Each chord is tested against a reference slope for the floor's cell; the
    reference starts on a wide window at the left edge and is re-measured on
    every certified kink-free half-bracket, so its own rounding noise (tracked
    and added to the test tolerance) stays far below the slope jumps.
    """

    def __init__(self, oracle: Oracle, u, v, cfg: ExtractionConfig):
        self.oracle, self.u, self.v, self.cfg = oracle, u, v, cfg
        self.eta = membership_step_bound(cfg.delta, cfg.epsilon, cfg.l, cfg.h)
        self.values: dict = {}
        l = float(cfg.l)
        # -l and +l are queried before the reference probe; the search then gets
        # them from point() without a second request.
        start = self.point(-l)
        self.point(l)
        # Reference slope of the cell at the current floor. The initial window is
        # wide (a width-eps window would carry noise ~eps_mach*S/eps, enough to
        # poison every wide-bracket comparison); crossings this close to -l are a
        # parameter-budget event that ends in an honest retry.
        self.sigma_ref, self.ref_noise = self._measure(start, self._value(-l + min(1.0, l / 10.0)))

    def point(self, t: float):
        # Finite-difference gradient request at u + t v; the estimate itself is
        # below float64 noise at this step size, but its base value is exact.
        if t not in self.values:
            _, self.values[t] = self.oracle.gradient_with_value(self.u + t * self.v, eta=self.eta)
        return t, self.values[t]

    def _value(self, t: float):
        if t not in self.values:
            self.values[t] = self.oracle.value(self.u + t * self.v)
        return t, self.values[t]

    def _measure(self, p, q) -> tuple[float, float]:
        # Chord slope of f over (p, q) and its rounding-noise bound: value noise
        # ~ eps_mach * sum_i |w_i <A_i, x>| <= eps_mach * h*cap*(1+|x|), sqrt(2d)
        # for the accumulation across terms, 8x safety.
        width = q[0] - p[0]
        scale = max(_norm(self.u + t * self.v) for t in (p[0], q[0]))
        noise = 8.0 * math.sqrt(2.0 * self.oracle.d) * _EPS * (self.cfg.h * WEIGHT_CAP * (1.0 + scale)) / width
        return (q[1] - p[1]) / width, noise

    def kinked(self, p, q) -> bool:
        # The chord over (p, q) leaves the floor cell's slope beyond noise.
        chord, noise = self._measure(p, q)
        return abs(chord - self.sigma_ref) > noise + self.ref_noise

    def step_over(self, a, m, b) -> None:
        # (a, m) is certified kink-free: re-measure the reference on this wider
        # window before stepping over it.
        if m[0] - a[0] >= REF_UPGRADE_MIN_WIDTH:
            self.sigma_ref, self.ref_noise = self._measure(a, m)

    def resolve(self, a, b) -> float:
        # Confirm a slope change actually sits here by comparing the slope beyond
        # b against the floor cell's. Far-out crossings have slope jumps
        # shrinking like 1/|t| while eps-window noise grows with the point scale,
        # so the window widens (halving the noise each time) until the verdict
        # is clear either way. The slope beyond b is the next floor's reference.
        width = self.cfg.epsilon
        while not self.kinked(b, beyond := self._value(b[0] + width)):
            if width >= TERMINAL_WIDTH_CAP:
                raise ExtractionFailure("no slope change at the located bracket")
            width = min(2.0 * width, TERMINAL_WIDTH_CAP)
        self.sigma_ref, self.ref_noise = self._measure(b, beyond)
        return 0.5 * (a[0] + b[0])

    def z(self, crossings: list[float]) -> np.ndarray:
        # Row refinement: cell gradients at unit-rescaled midpoints between
        # consecutive crossings; consecutive differences are the weighted normals
        # in crossing order. f is positively homogeneous, so inside a cell
        # f(p) = <grad f(p), p>; a finite difference whose step straddles a
        # hyperplane (a thin cell) breaks that identity and the attempt is retried
        # instead of returning mixed rows.
        l = float(self.cfg.l)
        edges = [-l] + crossings + [l]
        cell_grads = []
        for k in range(len(crossings) + 1):
            p = self.u + 0.5 * (edges[k] + edges[k + 1]) * self.v
            p = p / _norm(p)
            g, f_p = self.oracle.gradient_with_value(p, eta=REFINE_ETA)
            if abs(float(g @ p) - f_p) > EULER_TOL * (1.0 + abs(f_p) + _norm(g)):
                raise ExtractionFailure("refinement step straddles a hyperplane; cell is too thin")
            cell_grads.append(g)
        rows = np.diff(np.vstack(cell_grads), axis=0)
        if np.any(np.sqrt(np.sum(rows * rows, axis=1)) <= 1e-6):
            raise ExtractionFailure("refined row is degenerate; crossing was mislocated")
        return rows


def _search_line(oracle: Oracle, u, v, cfg: ExtractionConfig):
    """One pass of h crossing searches on the line u + t v, in any oracle mode.

    Each search pops the kept points the line's test does not separate from
    the floor, bisects up to the first it does and pushes every upper end it
    abandons; its final bracket, of width <= epsilon, resolves into a crossing
    and its upper end becomes the next floor.
    """
    line_type = _MembershipLine if oracle.mode == "membership" else _GradientLine
    line = line_type(oracle, np.asarray(u, dtype=float), np.asarray(v, dtype=float), cfg)
    l = float(cfg.l)
    floor = line.point(-l)
    # Queried points (t, observation) past the floor, nearest on top.
    above = [line.point(l)]
    crossings = []
    for _ in range(cfg.h):
        while above and not line.kinked(floor, above[-1]):
            above.pop()
        if not above:
            raise ExtractionFailure("fewer than h crossings lie in the search range")
        a, b = floor, above.pop()
        while b[0] - a[0] > cfg.epsilon:
            t_m = 0.5 * (a[0] + b[0])
            if t_m <= a[0] or t_m >= b[0]:
                raise ExtractionFailure("bracket cannot be subdivided at float precision")
            m = line.point(t_m)
            if line.kinked(a, m):
                above.append(b)
                b = m
            else:
                line.step_over(a, m, b)
                a = m
        crossings.append(line.resolve(a, b))
        floor = b
    # +l stays at the bottom of the stack until a bracket ends on it.
    if above and line.kinked(floor, above[0]):
        raise ExtractionFailure("more than h crossings lie in the search range")
    return line.z(crossings), crossings


def recover_z(oracle: Oracle, cfg: ExtractionConfig, rng: np.random.Generator) -> ZRecovery:
    """Recover the weighted normals up to sign and permutation.

    Draws fresh (u, v) from rng on each retry; raises ExtractionFailure once
    the retry budget is exhausted.
    """
    last: ExtractionFailure | None = None
    for attempt in range(cfg.max_retries + 1):
        u = rng.standard_normal(oracle.d)
        v = rng.standard_normal(oracle.d)
        try:
            z, crossings = _search_line(oracle, u, v, cfg)
            return ZRecovery(Z=z, u=u, v=v, crossings=crossings, retries=attempt)
        except ExtractionFailure as err:
            last = err
    raise ExtractionFailure(
        f"all {cfg.max_retries + 1} search attempts failed; last: {last}"
    ) from last


def recover_s(oracle: Oracle, z, rng: np.random.Generator) -> np.ndarray:
    """Solve for the sign vector s in {-1,0,1}^(2h) using 2h value queries.

    Places h query points X in one cell with ZX = diag(sigma)(I + J)
    (geometry; GeometryError when Z is rank deficient), assembles the block
    sign matrix of ZX, solves M s = [f(x_1)..f(x_h), f(-x_1)..f(-x_h)], rounds,
    and validates. A solution that does not round to the required pattern
    signals that the recovered normals were wrong.
    """
    zm = as_matrix(z)
    h = zm.shape[0]
    x, _ = sign_query_points(zm, rng)

    zx = zm @ x
    m = block_sign_matrix(zx)
    b = np.empty(2 * h)
    for j in range(h):
        b[j] = oracle.value(x[:, j])
    for j in range(h):
        b[h + j] = oracle.value(-x[:, j])

    try:
        solved = solve_linear_system(m, b)
    except SingularMatrixError as err:
        raise SignRecoveryError(f"sign system is singular: {err}") from err

    rounded = np.rint(solved)
    for i, (value, near) in enumerate(zip(solved.tolist(), rounded.tolist())):
        if not abs(value - near) <= SIGN_ROUND_TOL:  # NaN from non-finite values fails too
            raise SignRecoveryError(f"sign solution entry {i} = {value:.6g} is not near an integer")
        if abs(near) > 1:
            raise SignRecoveryError(f"sign solution entry {i} = {value:.6g} rounds outside {{-1,0,1}}")
    s = rounded.astype(int)
    residual = np.max(np.abs(m @ s - b))
    if residual > SOLVE_RESIDUAL_TOL * (1.0 + np.max(np.abs(b))):
        raise SignRecoveryError(f"rounded sign vector leaves residual {residual:.3e}")

    try:
        RecoveredModel(Z=zm, s=s).validate_signs()
    except ValueError as err:
        raise SignRecoveryError(f"sign pattern is invalid: {err}") from err
    return s


def learn_model(oracle: Oracle, cfg: ExtractionConfig) -> ExtractionReport:
    """Full extraction: recover Z, then s; report the model and query costs.

    Failures are raised, never silently mis-recovered: ExtractionFailure from
    the search, GeometryError from query-point construction, SignRecoveryError
    from an inconsistent sign solve. The raised error carries the failing
    phase ("search" or "sign"), the retries spent and the crossings found.
    """
    seq = np.random.SeedSequence(cfg.seed)
    z_seed, s_seed = seq.spawn(2)
    zres = None
    try:
        zres = recover_z(oracle, cfg, rng=np.random.default_rng(z_seed))
        s = recover_s(oracle, zres.Z, rng=np.random.default_rng(s_seed))
    except GradleakError as err:
        err.phase = "search" if zres is None else "sign"
        err.retries = cfg.max_retries if zres is None else zres.retries
        err.crossings = [] if zres is None else list(zres.crossings)
        raise
    return ExtractionReport(
        model=RecoveredModel(Z=zres.Z, s=s),
        gradient_queries=oracle.ledger.gradient_queries,
        value_queries=oracle.ledger.value_queries,
        retries=zres.retries,
        crossings=list(zres.crossings),
    )
