"""The extraction attack.

Step one recovers the weighted hyperplane normals up to sign: draw a random
line u + t v, binary-search for the points where the oracle's gradient
changes, and record the gradient difference across each change as a row of Z.
Step two recovers the sign vector s by solving 2h linear equations built from
value queries at h points of one cell and their negations; geometry places
them in closed form so that ZX = diag(sigma)(I + J) is well conditioned.

Exact-gradient modes (grad, smoothgrad) follow the textbook search directly:
gradients are piecewise constant, so a nonzero difference across a bracket
certifies a crossing inside it. Because the rows A_i are linearly independent,
an equal difference certifies the opposite, that no crossing lies inside. The
h searches on a line therefore share their queries: every upper bracket end a
bisection abandons is kept on a stack, and each later search starts from the
nearest kept point whose gradient differs from the floor's instead of from +l.
When no kept point differs, fewer than h crossings lie in [-l, l], and the
attempt fails without another query. Each row is the gradient difference
between the two cells on either side of its crossing, whichever bracket
isolates it, so reusing queries changes the query count but not Z.

Membership mode estimates gradients by finite differences over value queries.
At the resolutions the parameter selection demands, float64 value queries
cannot resolve a finite-difference quotient whose step is small enough to
avoid straddling hyperplanes near the located crossings (the quotient's
rounding noise exceeds the smallest gradient change). The search therefore
keeps the same query pattern, one finite-difference gradient request per
bisection point, but takes its branch decisions from the scalar line function
t -> f(u + t v), which is piecewise linear: a slope change over a bracket
certifies a crossing at every bracket width float64 can represent. As in the
gradient modes, later searches on a line start from the nearest abandoned
upper end that this slope test separates from the floor. Rows are then
recomputed exactly by finite differences at unit-rescaled cell midpoints,
far from every hyperplane (gradients are scale-invariant because the
hyperplanes pass through the origin). Each refined gradient g at p must satisfy
Euler's identity f(p) = <g, p>; a cell too thin for the refinement step fails
it, and the attempt is retried rather than returning mixed rows.
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


def _gradient_attempt(oracle: Oracle, u, v, cfg: ExtractionConfig):
    """One full pass of h crossing searches with exact (or smoothed) gradients.

    The searches share one stack of queried points, so each crossing after the
    first starts from the tightest bracket the earlier queries imply. A search
    pops the kept points whose gradient equals the floor's, bisects up to the
    first that differs and pushes every upper end it abandons; its row is the
    gradient difference across the final bracket of width <= epsilon, whose
    upper end becomes the next floor.
    """
    uu = np.asarray(u, dtype=float)
    vv = np.asarray(v, dtype=float)
    l = float(cfg.l)
    t_l, g_l = -l, oracle.gradient(uu - l * vv)
    # Queried points (t, grad) past the floor t_l, nearest on top.
    above = [(l, oracle.gradient(uu + l * vv))]
    rows = []
    crossings = []
    for _ in range(cfg.h):
        while above and _norm(above[-1][1] - g_l) <= GRAD_CHANGE_TOL:
            above.pop()
        if not above:
            raise ExtractionFailure("fewer than h crossings lie in the search range")
        t_r, g_r = above.pop()
        while t_r - t_l > cfg.epsilon:
            t_m = 0.5 * (t_l + t_r)
            if t_m <= t_l or t_m >= t_r:
                raise ExtractionFailure("bracket cannot be subdivided at float precision")
            g_m = oracle.gradient(uu + t_m * vv)
            if _norm(g_l - g_m) > GRAD_CHANGE_TOL:
                above.append((t_r, g_r))
                t_r, g_r = t_m, g_m
            elif _norm(g_m - g_r) > GRAD_CHANGE_TOL:
                t_l, g_l = t_m, g_m
            else:
                raise ExtractionFailure("no gradient change in either half-bracket")
        rows.append(g_r - g_l)
        crossings.append(t_r)
        t_l, g_l = t_r, g_r
    return np.vstack(rows), crossings


def _membership_attempt(oracle: Oracle, u, v, cfg: ExtractionConfig):
    """One full pass with finite-difference gradient requests.

    Branch decisions use chord slopes of the piecewise-linear line values
    (see the module docstring); every bisection point still issues one
    d+1-query finite-difference gradient request, so the query accounting
    matches the membership cost model. Each bracket half is tested against a
    reference slope for the cell containing the search floor; the reference
    starts on a wide window at the left edge and is re-measured on every
    certified kink-free half-bracket, so its own rounding noise (tracked and
    added to the test tolerance) stays far below the slope jumps. A search's
    upper end is the nearest upper end abandoned by an earlier bisection step
    whose chord from the floor fails that test; the lower end is the floor.
    Rows come from a refinement pass at unit-rescaled cell midpoints where finite
    differences are exact to rounding.
    """
    uu = np.asarray(u, dtype=float)
    vv = np.asarray(v, dtype=float)
    h = cfg.h
    l = float(cfg.l)
    eps = float(cfg.epsilon)
    eta_search = membership_step_bound(cfg.delta, cfg.epsilon, cfg.l, cfg.h)
    values: dict = {}

    def request(t: float) -> float:
        # Finite-difference gradient request at u + t v; the estimate itself is
        # below float64 noise at this step size, but its base value is exact.
        if t not in values:
            _, val = oracle.gradient_with_value(uu + t * vv, eta=eta_search)
            values[t] = val
        return values[t]

    def point_scale(*ts: float) -> float:
        return max(_norm(uu + t * vv) for t in ts)

    def slope_tol(width: float, scale: float) -> float:
        # Rounding-noise bound for a chord slope of f over a width-wide window:
        # value noise ~ eps_mach * sum_i |w_i <A_i, x>| <= eps_mach * h*cap*(1+|x|),
        # sqrt(2d) for the accumulation across terms, 8x safety.
        return 8.0 * math.sqrt(2.0 * oracle.d) * _EPS * (h * WEIGHT_CAP * (1.0 + scale)) / width

    def chord(t0: float, t1: float) -> float:
        return (values[t1] - values[t0]) / (t1 - t0)

    request(-l)
    request(l)
    # Reference slope of the cell at the current floor. The initial window is
    # wide (a width-eps window would carry noise ~eps_mach*S/eps, enough to
    # poison every wide-bracket comparison); crossings this close to -l are a
    # parameter-budget event that ends in an honest retry.
    ref_width = min(1.0, l / 10.0)
    probe_t = -l + ref_width
    values[probe_t] = oracle.value(uu + probe_t * vv)
    sigma_ref = chord(-l, probe_t)
    ref_noise = slope_tol(ref_width, point_scale(-l, probe_t))

    def kinked(t0: float, t1: float) -> bool:
        # The chord over (t0, t1) leaves the floor cell's slope beyond noise.
        return abs(chord(t0, t1) - sigma_ref) > slope_tol(t1 - t0, point_scale(t0, t1)) + ref_noise

    floor = -l
    # Upper bracket ends abandoned by earlier bisection steps, nearest on top.
    above = [l]
    crossings = []
    for _ in range(h):
        a = floor
        while above and not kinked(a, above[-1]):
            above.pop()
        if not above:
            raise ExtractionFailure("fewer than h crossings lie in the search range")
        b = above.pop()
        while b - a > eps:
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                raise ExtractionFailure("bracket cannot be subdivided at float precision")
            request(m)
            if kinked(a, m):
                above.append(b)
                b = m
            elif m - a >= REF_UPGRADE_MIN_WIDTH:
                # (a, m) certified kink-free: re-measure the reference on this
                # wider window before stepping over it.
                sigma_ref = chord(a, m)
                ref_noise = slope_tol(m - a, point_scale(a, m))
                a = m
            else:
                a = m
        # The bracket is resolved; confirm a slope change actually sits here by
        # comparing the slope beyond b against the floor cell's. Far-out
        # crossings have slope jumps shrinking like 1/|t| while eps-window
        # noise grows with the point scale, so the window widens (halving the
        # noise each time) until the verdict is clear either way.
        width = eps
        sigma_next = None
        next_noise = None
        confirmed = False
        while True:
            t_next = b + width
            if t_next not in values:
                values[t_next] = oracle.value(uu + t_next * vv)
            sigma_next = chord(b, t_next)
            next_noise = slope_tol(width, point_scale(b, t_next))
            if abs(sigma_next - sigma_ref) > next_noise + ref_noise:
                confirmed = True
                break
            if width >= TERMINAL_WIDTH_CAP:
                break
            width = min(2.0 * width, TERMINAL_WIDTH_CAP)
        if not confirmed:
            raise ExtractionFailure("no slope change at the located bracket")
        crossings.append(0.5 * (a + b))
        floor = b
        sigma_ref = sigma_next
        ref_noise = next_noise

    # Row refinement: cell gradients at unit-rescaled midpoints between
    # consecutive crossings; consecutive differences are the weighted normals
    # in crossing order. f is positively homogeneous, so inside a cell
    # f(p) = <grad f(p), p>; a finite difference whose step straddles a
    # hyperplane (a thin cell) breaks that identity and the attempt is retried
    # instead of returning mixed rows.
    edges = [-l] + crossings + [l]
    cell_grads = []
    for k in range(h + 1):
        t_mid = 0.5 * (edges[k] + edges[k + 1])
        p = uu + t_mid * vv
        p = p / _norm(p)
        g, f_p = oracle.gradient_with_value(p, eta=REFINE_ETA)
        if abs(float(g @ p) - f_p) > EULER_TOL * (1.0 + abs(f_p) + _norm(g)):
            raise ExtractionFailure("refinement step straddles a hyperplane; cell is too thin")
        cell_grads.append(g)
    rows = np.vstack([cell_grads[k + 1] - cell_grads[k] for k in range(h)])
    if np.any(np.sqrt(np.sum(rows * rows, axis=1)) <= 1e-6):
        raise ExtractionFailure("refined row is degenerate; crossing was mislocated")
    return rows, crossings


def recover_z(oracle: Oracle, cfg: ExtractionConfig, rng=None) -> ZRecovery:
    """Recover the weighted normals up to sign and permutation.

    Draws fresh (u, v) on each retry; raises ExtractionFailure once the retry
    budget is exhausted.
    """
    gen = np.random.default_rng(cfg.seed) if rng is None else rng
    attempt_fn = _membership_attempt if oracle.mode == "membership" else _gradient_attempt
    last: ExtractionFailure | None = None
    for attempt in range(cfg.max_retries + 1):
        u = gen.standard_normal(oracle.d)
        v = gen.standard_normal(oracle.d)
        try:
            z, crossings = attempt_fn(oracle, u, v, cfg)
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
