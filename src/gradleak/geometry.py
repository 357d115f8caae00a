"""The paper's sign step from 2h value queries, which learn_model never calls.

For recovered weighted normals Z (h x d, full row rank) and a sign vector
sigma, X = Z^T (Z Z^T)^-1 diag(sigma)(I + J) gives Z X = diag(sigma)(I + J),
with J the all-ones matrix: every column lies in the cell with sign pattern
sigma, every pre-activation has magnitude at least 1, and cond(ZX) = h + 1.

X is the minimum-norm solution of Z X = diag(sigma)(I + J), computed by
LAPACK's SVD least squares: Z Z^T is never formed, since that would square
cond(Z), which reaches ~3e5 on square instances (d = h = 16).
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError
from .extraction import _signs, _solve
from .numerics import SINGULAR_PIVOT_TOL, as_matrix
from .oracle import Oracle

# Largest tolerated entry of |ZX - diag(sigma)(I + J)|; entries are at least 1.
RESIDUAL_TOL = 0.5


def sign_query_points(z, rng) -> tuple[np.ndarray, np.ndarray]:
    """Return (X, sigma): h points in cell sigma with ZX = diag(sigma)(I + J).

    Raises GeometryError when a singular value of Z falls below
    SINGULAR_PIVOT_TOL times the largest one (a zero, duplicated or nearly
    dependent row) or when ZX misses its target by more than RESIDUAL_TOL or
    is not finite.
    """
    zm = as_matrix(z)
    h = zm.shape[0]
    sigma = rng.choice((-1.0, 1.0), size=h)
    target = sigma[:, None] * (np.eye(h) + 1.0)

    x, _, rank, sv = np.linalg.lstsq(zm, target, rcond=SINGULAR_PIVOT_TOL)
    if rank < h:
        raise GeometryError(
            f"Z is too ill-conditioned for sign recovery: rank {rank} < {h} rows "
            f"(singular values {sv[-1]:.3e} to {sv[0]:.3e})"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed X is refused below
        residual = np.max(np.abs(zm @ x - target))
    if not residual <= RESIDUAL_TOL:  # also rejects an overflowed X (inf or NaN)
        raise GeometryError("query points miss their target pre-activations; Z is ill-conditioned")
    return x, sigma.astype(int)


def block_sign_matrix(zx) -> np.ndarray:
    """Assemble [[max(ZX,0)^T, max(-ZX,0)^T], [max(-ZX,0)^T, max(ZX,0)^T]].

    ZX must be square with no zero entries (each query point must have a
    nonzero pre-activation against every recovered row).
    """
    a = as_matrix(zx)
    h = a.shape[0]
    if a.shape[1] != h:
        raise ValueError(f"ZX must be square, got {a.shape}")
    if np.any(a == 0.0):
        raise ValueError("ZX has a zero entry; query points must avoid all hyperplanes")
    pos = np.maximum(a, 0.0).T
    neg = np.maximum(-a, 0.0).T
    top = np.hstack([pos, neg])
    bot = np.hstack([neg, pos])
    return np.vstack([top, bot])


def recover_s(oracle: Oracle, z, rng: np.random.Generator) -> np.ndarray:
    """s from 2h value queries: the reference learn_model's sign step is checked against.

    f at the points X of sign_query_points (GeometryError when Z is rank deficient) and
    at -X gives the block sign system of ZX; extraction's _solve and _signs certify it.
    """
    zm = as_matrix(z)
    x, _ = sign_query_points(zm, rng)
    b = np.array([oracle.value(p) for p in (*x.T, *-x.T)], dtype=float)
    m = block_sign_matrix(zm @ x)
    solved = _solve(m, b)
    with np.errstate(over="ignore"):  # points too long to square give an infinite scale
        scale = max(1.0, np.max(np.linalg.norm(x, axis=0)))
    return _signs(solved, m.__matmul__, b, scale)
