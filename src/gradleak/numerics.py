"""Dense linear algebra with explicit tolerances.

Solve and rank of plain float64 ndarrays (row-major): one numpy.linalg (SVD)
call each, with tolerances relative to the largest singular value.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# A singular value below SINGULAR_PIVOT_TOL times the largest one aborts the
# solve (and, in geometry, rejects Z as too ill-conditioned).
SINGULAR_PIVOT_TOL = 1e-10
# Default relative singular-value cutoff for numerical rank.
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
    """Solve M x = b, M square or tall (least squares; the caller judges the residual).

    b is (n,) or holds k right-hand sides as columns (n, k). One LAPACK SVD call. Raises
    SingularMatrixError when a singular value of M falls below SINGULAR_PIVOT_TOL times
    the largest one, ValueError when M is wide.
    """
    a = as_matrix(m)
    n, k = a.shape
    if k > n:
        raise ValueError(f"matrix must not have more columns than rows, got {a.shape}")
    rhs = np.asarray(b, dtype=float)
    if not 1 <= rhs.ndim <= 2 or rhs.shape[0] != n:
        raise ValueError(f"right-hand side must have shape ({n},) or ({n}, k), got {rhs.shape}")

    x, _, rank, sv = np.linalg.lstsq(a, rhs, rcond=SINGULAR_PIVOT_TOL)
    if rank < k:
        raise SingularMatrixError(
            f"smallest singular value {sv[-1]:.3e} below {SINGULAR_PIVOT_TOL:.0e} "
            f"times the largest {sv[0]:.3e}"
        )
    return x


def rank_with_tolerance(m, tol: float = RANK_PIVOT_TOL) -> int:
    """Numerical rank: singular values above tol times the largest one."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    sv = np.linalg.svd(as_matrix(m), compute_uv=False)
    return int(np.count_nonzero(sv > tol * sv.max(initial=0.0)))
