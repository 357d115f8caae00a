"""Target network family, recovered-model representation, and instance generation.

The target is f(x) = sum_i w_i * max(<A_i, x>, 0) with unit-norm, pairwise
non-collinear, linearly independent rows A_i. A recovered model carries signed
weighted normals Z and a sign vector s of length 2h that routes each row into
the correct ReLU branch:

    fhat(x) = sum_i s_i * max(<Z_i, x>, 0) + s_{h+i} * max(-<Z_i, x>, 0)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GenerationError
from .numerics import RANK_PIVOT_TOL, rank_with_tolerance

UNIT_ROW_TOL = 1e-12
_GENERATION_BUDGET = 200
_WEIGHT_BUDGET = 1000


def _as_vector(x, d: int, name: str = "x") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {v.shape}")
    return v


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TwoLayerNet:
    """Ground-truth network: h x d row matrix of unit normals and h output weights.

    Construction checks unit row norms and row independence. The pairwise
    collinearity gap is a property of the generator (it depends on the
    generator's c_min), not of the type.
    """

    A: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if a.ndim != 2:
            raise ValueError("A must be an h x d matrix")
        h, d = a.shape
        if not 1 <= h <= d:
            raise ValueError(f"need 1 <= h <= d, got h={h}, d={d}")
        if w.shape != (h,):
            raise ValueError(f"w must have shape ({h},), got {w.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(w))):
            raise ValueError("parameters must be finite")
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
        z = np.asarray(self.Z, dtype=float)
        s = np.asarray(self.s)
        if z.ndim != 2:
            raise ValueError("Z must be an h x d matrix")
        h = z.shape[0]
        if s.shape != (2 * h,):
            raise ValueError(f"s must have shape ({2 * h},), got {s.shape}")
        if not np.all(np.isin(s, (-1, 0, 1))):
            raise ValueError("s entries must lie in {-1, 0, 1}")
        if not np.all(np.isfinite(z)):
            raise ValueError("Z entries must be finite")
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
        h = self.h
        nz = self.s != 0
        if int(np.sum(nz)) != h or np.any(nz[:h] == nz[h:]):
            raise ValueError("s must have exactly one nonzero per row pair")


def eval_target(net: TwoLayerNet, x) -> float:
    """f(x) = sum_i w_i * max(<A_i, x>, 0)."""
    v = _as_vector(x, net.d)
    return float(np.maximum(net.A @ v, 0.0) @ net.w)


def grad_target(net: TwoLayerNet, x) -> np.ndarray:
    """Gradient sum_i 1{<A_i,x> >= 0} w_i A_i; the indicator is closed at 0."""
    v = _as_vector(x, net.d)
    active = (net.A @ v) >= 0.0
    return (net.w * active) @ net.A


def cell_mask(net: TwoLayerNet, x) -> np.ndarray:
    """Activation pattern 1{Ax >= 0} as a 0/1 integer vector."""
    v = _as_vector(x, net.d)
    return ((net.A @ v) >= 0.0).astype(int)


def eval_target_batch(net: TwoLayerNet, xs) -> np.ndarray:
    """f at each row of an n x d array."""
    pts = np.asarray(xs, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != net.d:
        raise ValueError(f"points must have shape (n, {net.d})")
    return np.maximum(pts @ net.A.T, 0.0) @ net.w


def eval_recovered_batch(model: RecoveredModel, xs) -> np.ndarray:
    """fhat at each row of an n x d array (sign pattern not re-validated)."""
    pts = np.asarray(xs, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.d:
        raise ValueError(f"points must have shape (n, {model.d})")
    pre = pts @ model.Z.T
    h = model.h
    return np.maximum(pre, 0.0) @ model.s[:h] + np.maximum(-pre, 0.0) @ model.s[h:]


def generate_random_net(
    d: int, h: int, c_min: float = 0.1, w_min: float = 0.1, seed=None
) -> TwoLayerNet:
    """Draw a random instance satisfying the model assumptions.

    Rows are normalized standard Gaussians, redrawn until every pairwise
    |<A_i, A_j>| <= 1 - c_min and the rows are independent; weights are
    standard Gaussians redrawn until |w_i| >= w_min. Deterministic given seed.
    """
    if not 1 <= h <= d:
        raise ValueError(f"need 1 <= h <= d, got h={h}, d={d}")
    if not 0.0 < c_min < 1.0:
        raise ValueError("c_min must lie in (0, 1)")
    if w_min <= 0.0:
        raise ValueError("w_min must be positive")
    rng = np.random.default_rng(seed)

    a = None
    for _ in range(_GENERATION_BUDGET):
        cand = rng.standard_normal((h, d))
        norms = np.sqrt(np.sum(cand * cand, axis=1))
        if np.any(norms == 0.0):
            continue
        cand /= norms[:, None]
        gram = cand @ cand.T
        off = np.abs(gram - np.eye(h))
        if np.max(off) > 1.0 - c_min:
            continue
        if rank_with_tolerance(cand, RANK_PIVOT_TOL) != h:
            continue
        a = cand
        break
    if a is None:
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
    if not np.all(np.isin(signs, (-1.0, 1.0))):
        raise ValueError("row_signs entries must be +-1")

    z = np.empty_like(net.A)
    s = np.zeros(2 * h, dtype=int)
    for i in range(h):
        row = perm[i]
        z[row] = signs[i] * net.w[i] * net.A[i]
        # A positive multiple of A_i is routed through max(Zx, 0), a negative
        # one through max(-Zx, 0); either way the entry is sgn(w_i).
        if signs[i] * net.w[i] > 0:
            s[row] = int(np.sign(net.w[i]))
        else:
            s[h + row] = int(np.sign(net.w[i]))
    return RecoveredModel(Z=z, s=s)


def save_net(net: TwoLayerNet, path) -> None:
    payload = {"d": net.d, "h": net.h, "A": net.A.tolist(), "w": net.w.tolist()}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_net(path) -> TwoLayerNet:
    payload = json.loads(Path(path).read_text())
    for key in ("d", "h", "A", "w"):
        if key not in payload:
            raise ValueError(f"model file missing key {key!r}")
    net = TwoLayerNet(A=np.array(payload["A"], dtype=float), w=np.array(payload["w"], dtype=float))
    if net.d != payload["d"] or net.h != payload["h"]:
        raise ValueError("model file dimensions disagree with its matrices")
    return net


def save_recovered(model: RecoveredModel, path) -> None:
    payload = {"d": model.d, "h": model.h, "Z": model.Z.tolist(), "s": model.s.tolist()}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_recovered(path) -> RecoveredModel:
    payload = json.loads(Path(path).read_text())
    for key in ("d", "h", "Z", "s"):
        if key not in payload:
            raise ValueError(f"recovered file missing key {key!r}")
    # s is loaded as written: an entry such as -1.9 must fail the alphabet check,
    # not be truncated into it.
    model = RecoveredModel(Z=np.array(payload["Z"], dtype=float), s=np.array(payload["s"]))
    if model.d != payload["d"] or model.h != payload["h"]:
        raise ValueError("recovered file dimensions disagree with its matrices")
    return model
