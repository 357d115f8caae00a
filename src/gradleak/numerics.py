"""Minimal dense linear algebra with explicit tolerances.

Solve, rank, and the sign-block assembly used by sign recovery. Matrices are
plain float64 ndarrays (row-major). Elimination is implemented here rather
than delegated to LAPACK so the pivot tolerances are explicit and the package
stays dependency-light on its core path.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# Residual guarantee of solve_linear_system: ||Mx - b||_inf <= SOLVE_RESIDUAL_TOL * (1 + ||b||_inf).
SOLVE_RESIDUAL_TOL = 1e-8
# A pivot below SINGULAR_PIVOT_TOL * ||M||_inf-entry aborts the solve (and, in
# geometry, rejects the triangular factor of Z).
SINGULAR_PIVOT_TOL = 1e-10
# Default pivot cutoff for numerical rank.
RANK_PIVOT_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def solve_linear_system(m, b) -> np.ndarray:
    """Solve M x = b by Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when a pivot falls below
    SINGULAR_PIVOT_TOL times the largest absolute entry of M.
    """
    a = as_matrix(m)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix must be square, got {a.shape}")
    rhs = np.asarray(b, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"right-hand side must have shape ({n},), got {rhs.shape}")

    aug = np.hstack([a.copy(), rhs[:, None]])
    scale = np.max(np.abs(a)) if n else 0.0
    cutoff = SINGULAR_PIVOT_TOL * max(scale, 1e-300)

    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        if abs(aug[p, k]) < cutoff:
            raise SingularMatrixError(
                f"pivot {abs(aug[p, k]):.3e} below tolerance {cutoff:.3e} at column {k}"
            )
        if p != k:
            aug[[k, p]] = aug[[p, k]]
        factors = aug[k + 1 :, k] / aug[k, k]
        aug[k + 1 :, k:] -= np.outer(factors, aug[k, k:])

    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (aug[k, n] - aug[k, k + 1 : n] @ x[k + 1 :]) / aug[k, k]
    return x


def rank_with_tolerance(m, tol: float = RANK_PIVOT_TOL) -> int:
    """Numerical rank: pivots above tol * ||M||_max under full-pivoted elimination."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = as_matrix(m).copy()
    rows, cols = a.shape
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return 0
    cutoff = tol * scale

    rank = 0
    for k in range(min(rows, cols)):
        sub = np.abs(a[k:, k:])
        idx = np.unravel_index(int(np.argmax(sub)), sub.shape)
        pr, pc = idx[0] + k, idx[1] + k
        if sub[idx] <= cutoff:
            break
        if pr != k:
            a[[k, pr]] = a[[pr, k]]
        if pc != k:
            a[:, [k, pc]] = a[:, [pc, k]]
        rank += 1
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= np.outer(factors, a[k, k:])
    return rank


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
