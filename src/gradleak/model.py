"""Target network family, recovered-model representation, and instance generation.

The target is f(x) = sum_i w_i * max(<A_i, x>, 0) with unit-norm, pairwise
non-collinear, linearly independent rows A_i. A recovered model carries signed
weighted normals Z and a sign vector s of length 2h that routes each row into
the correct ReLU branch:

    fhat(x) = sum_i s_i * max(<Z_i, x>, 0) + s_{h+i} * max(-<Z_i, x>, 0)

as_matrix is the check of every matrix argument (2-D, finite entries), and
rank_with_tolerance, one SVD with a cutoff relative to the largest singular
value, decides row independence for TwoLayerNet, the one check of every net,
generated or loaded. Every public entry point checks its scalar arguments
with the three rules here: _count for counts, _seed for seeds and _number for
real numbers. _number takes the interval as its message writes it, "(0, 1)",
"(0, 1]", "(0, inf)" or "[0, inf)"; it refuses a bool with a message of its
own, and anything else that is not a real number inside the interval (None,
"0.1", NaN, +-inf) with one message: "{name} must lie in {interval}, got
{x!r}".
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GenerationError

UNIT_ROW_TOL = 1e-12
# Default relative singular-value cutoff for numerical rank.
RANK_PIVOT_TOL = 1e-9
_GENERATION_BUDGET = 200
_WEIGHT_BUDGET = 1000


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} entries must be finite")
    return a


def rank_with_tolerance(m, tol: float = RANK_PIVOT_TOL) -> int:
    """Numerical rank: singular values above tol times the largest one (one SVD)."""
    _number(tol, "tol", "(0, inf)")
    sv = np.linalg.svd(as_matrix(m), compute_uv=False)
    return int(np.count_nonzero(sv > tol * sv.max(initial=0.0)))


def _count(n, name: str, least: int = 0) -> int:
    """n as an int: an int or numpy integer of at least `least`, and not a bool, which Python counts as an int."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {n!r}")
    return int(n)


def _seed(seed):
    """seed, refused unless it is None or a non-negative integer, as numpy's generators take."""
    if seed is not None and (not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0):
        raise ValueError(f"seed must be None or a non-negative integer, got {seed!r}")
    return seed


def _number(x, name: str, interval: str):
    """x, refused unless it is a real number inside interval, written as "(0, 1]" or "[0, inf)".

    A bool, which Python counts as the number 1, is refused with a message of its own.
    """
    if isinstance(x, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a bool")
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    if not (
        isinstance(x, numbers.Real)
        and (lo <= x if interval[0] == "[" else lo < x)
        and (x <= hi if interval[-1] == "]" else x < hi)
    ):
        raise ValueError(f"{name} must lie in {interval}, got {x!r}")
    return x


def _as_vector(x, d: int, name: str = "x") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {v.shape}")
    return v


def _as_points(xs, d: int) -> np.ndarray:
    pts = np.asarray(xs, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points must have shape (k, {d}), got {pts.shape}")
    return pts


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TwoLayerNet:
    """Ground-truth network: h x d row matrix of unit normals and h output weights.

    Construction checks unit row norms and row independence, for generated
    and loaded nets alike. The pairwise collinearity gap is a property of the
    generator (it depends on the generator's c_min), not of the type.
    """

    A: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        h, d = a.shape
        if not 1 <= h <= d:
            raise ValueError(f"need 1 <= h <= d, got h={h}, d={d}")
        w = _as_vector(self.w, h, "w")
        if not np.all(np.isfinite(w)):
            raise ValueError("w entries must be finite")
        norms = np.sqrt(np.sum(a * a, axis=1))
        if np.any(np.abs(norms - 1.0) > UNIT_ROW_TOL):
            raise ValueError("rows of A must be unit vectors")
        if rank_with_tolerance(a, RANK_PIVOT_TOL) != h:
            raise ValueError("rows of A must be linearly independent")
        object.__setattr__(self, "A", _freeze(a))
        object.__setattr__(self, "w", _freeze(w))

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def h(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class RecoveredModel:
    """Extraction output: Z rows are +-w_i A_i up to permutation, s routes them.

    Construction checks shapes and the {-1,0,1} alphabet. The nonzero pattern
    (exactly one of s_i, s_{h+i} per row) is checked by validate_signs, so a
    corrupted file can still be loaded and reported on.
    """

    Z: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        z = as_matrix(self.Z, "Z")
        s = np.asarray(self.s)
        h = z.shape[0]
        if s.shape != (2 * h,):
            raise ValueError(f"s must have shape ({2 * h},), got {s.shape}")
        if not np.all((s == -1) | (s == 0) | (s == 1)):
            raise ValueError("s entries must lie in {-1, 0, 1}")
        object.__setattr__(self, "Z", _freeze(z))
        object.__setattr__(self, "s", _freeze(np.asarray(s, dtype=int)))

    @property
    def d(self) -> int:
        return self.Z.shape[1]

    @property
    def h(self) -> int:
        return self.Z.shape[0]

    def validate_signs(self) -> None:
        """Check the sign-vector pattern: one nonzero per (s_i, s_{h+i}) pair."""
        if np.any((self.s[: self.h] != 0) == (self.s[self.h :] != 0)):
            raise ValueError("s must have exactly one nonzero per row pair")


def eval_target(net: TwoLayerNet, x) -> float:
    """f(x) = sum_i w_i * max(<A_i, x>, 0)."""
    return float(eval_target_batch(net, _as_vector(x, net.d)[None])[0])


def _cell_gradient(net: TwoLayerNet, pattern) -> np.ndarray:
    """sum_i pattern_i w_i A_i: the gradient of a cell for a 0/1 activation pattern, or of a blur for a mean one."""
    return (net.w * pattern) @ net.A


def grad_target(net: TwoLayerNet, x) -> np.ndarray:
    """Gradient sum_i 1{<A_i,x> >= 0} w_i A_i; the indicator is closed at 0."""
    return _cell_gradient(net, net.A @ _as_vector(x, net.d) >= 0.0)


def cell_mask(net: TwoLayerNet, x) -> np.ndarray:
    """Activation pattern 1{Ax >= 0} as a 0/1 integer vector."""
    v = _as_vector(x, net.d)
    return ((net.A @ v) >= 0.0).astype(int)


def eval_target_batch(net: TwoLayerNet, xs) -> np.ndarray:
    """f at each row of a k x d array."""
    return np.maximum(_as_points(xs, net.d) @ net.A.T, 0.0) @ net.w


def eval_recovered_batch(model: RecoveredModel, xs) -> np.ndarray:
    """fhat at each row of a k x d array (sign pattern not re-validated)."""
    pre = _as_points(xs, model.d) @ model.Z.T
    h = model.h
    return np.maximum(pre, 0.0) @ model.s[:h] + np.maximum(-pre, 0.0) @ model.s[h:]


def generate_random_net(
    d: int, h: int, c_min: float = 0.1, w_min: float = 0.1, seed=None
) -> TwoLayerNet:
    """Draw a random instance satisfying the model assumptions.

    Rows are normalized standard Gaussians, all h redrawn until every pairwise
    |<A_i, A_j>| <= 1 - c_min; weights are standard Gaussians, each redrawn
    until |w_i| >= w_min. Unit norms and row independence are checked once,
    by TwoLayerNet, which refuses a dependent draw with its ValueError rather
    than redraw it. Deterministic given seed.
    """
    if not _count(h, "h", 1) <= _count(d, "d", 1):
        raise ValueError(f"need 1 <= h <= d, got h={h}, d={d}")
    _number(c_min, "c_min", "(0, 1)")
    _number(w_min, "w_min", "(0, inf)")
    rng = np.random.default_rng(_seed(seed))

    for _ in range(_GENERATION_BUDGET):
        a = rng.standard_normal((h, d))
        a /= np.sqrt(np.sum(a * a, axis=1))[:, None]
        if np.max(np.abs(a @ a.T - np.eye(h))) <= 1.0 - c_min:
            break
    else:
        raise GenerationError(
            f"could not draw {h} rows with pairwise gap >= {c_min} in "
            f"{_GENERATION_BUDGET} attempts"
        )

    w = np.empty(h)
    for i in range(h):
        for _ in range(_WEIGHT_BUDGET):
            cand_w = rng.standard_normal()
            if abs(cand_w) >= w_min:
                w[i] = cand_w
                break
        else:
            raise GenerationError(f"could not draw weight {i} with |w| >= {w_min}")

    return TwoLayerNet(A=a, w=w)


def recovered_from_net(net: TwoLayerNet, permutation=None, row_signs=None) -> RecoveredModel:
    """Build the recovered form of a known net: Z rows are sigma_i w_i A_i.

    For a positively-signed row, s routes it through the max(Zx, 0) branch
    with sgn(w_i); for a flipped row, through the max(-Zx, 0) branch. Useful
    as the exact-equivalence reference and in tests.
    """
    h = net.h
    perm = np.arange(h) if permutation is None else np.asarray(permutation, dtype=int)
    signs = np.ones(h) if row_signs is None else np.asarray(row_signs, dtype=float)
    if sorted(perm.tolist()) != list(range(h)):
        raise ValueError("permutation must be a bijection on range(h)")
    if signs.shape != (h,) or not np.all(np.isin(signs, (-1.0, 1.0))):
        raise ValueError(f"row_signs entries must be +-1, {h} of them")

    # A positive multiple of A_i is routed through max(Zx, 0), a negative one
    # through max(-Zx, 0); either way the entry is sgn(w_i).
    scaled = signs * net.w
    z = np.empty_like(net.A)
    z[perm] = scaled[:, None] * net.A
    s = np.zeros(2 * h, dtype=int)
    s[np.where(scaled > 0, perm, h + perm)] = np.sign(net.w)
    return RecoveredModel(Z=z, s=s)


def save_net(net: TwoLayerNet, path) -> None:
    payload = {"d": net.d, "h": net.h, "A": net.A.tolist(), "w": net.w.tolist()}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _read_payload(path, kind: str, keys: tuple[str, ...], matrices: tuple[str, ...]) -> dict:
    """The file's JSON object, with each key in matrices converted to a float array."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} file must hold a JSON object, not {type(payload).__name__}")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{kind} file missing key {key!r}")
    for key in matrices:
        try:
            payload[key] = np.array(payload[key], dtype=float)
        except (TypeError, ValueError) as err:
            raise ValueError(f"{kind} file key {key!r} must hold numbers: {err}") from err
    return payload


def load_net(path) -> TwoLayerNet:
    payload = _read_payload(path, "model", ("d", "h", "A", "w"), ("A", "w"))
    net = TwoLayerNet(A=payload["A"], w=payload["w"])
    if net.d != _count(payload["d"], "model file d") or net.h != _count(payload["h"], "model file h"):
        raise ValueError("model file dimensions disagree with its matrices")
    return net


def save_recovered(model: RecoveredModel, path) -> None:
    payload = {"d": model.d, "h": model.h, "Z": model.Z.tolist(), "s": model.s.tolist()}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_recovered(path) -> RecoveredModel:
    # s is loaded as written: an entry such as -1.9 must fail the alphabet check,
    # not be truncated into it.
    payload = _read_payload(path, "recovered", ("d", "h", "Z", "s"), ("Z",))
    model = RecoveredModel(Z=payload["Z"], s=np.array(payload["s"]))
    if model.d != _count(payload["d"], "recovered file d") or model.h != _count(payload["h"], "recovered file h"):
        raise ValueError("recovered file dimensions disagree with its matrices")
    return model
