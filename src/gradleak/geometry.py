"""Sign-recovery query points in closed form.

For recovered weighted normals Z (h x d, full row rank) and a sign vector
sigma, X = Z^T (Z Z^T)^-1 diag(sigma)(I + J) gives Z X = diag(sigma)(I + J),
with J the all-ones matrix: every column lies in the cell with sign pattern
sigma, every pre-activation has magnitude at least 1, and cond(ZX) = h + 1.

X is computed as Q^T L^-1 diag(sigma)(I + J) from Z = L Q (Gram-Schmidt on
the rows): forming Z Z^T would square cond(Z), which reaches ~3e5 on square
instances (d = h = 16) and would push the solve's pivots below tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError, SingularMatrixError
from .numerics import RANK_PIVOT_TOL, as_matrix, solve_linear_system

# Largest tolerated entry of |ZX - diag(sigma)(I + J)|; entries are at least 1.
RESIDUAL_TOL = 0.5


def sign_query_points(z, rng) -> tuple[np.ndarray, np.ndarray]:
    """Return (X, sigma): h points in cell sigma with ZX = diag(sigma)(I + J)."""
    zm = as_matrix(z)
    h = zm.shape[0]
    sigma = rng.choice((-1.0, 1.0), size=h)
    target = sigma[:, None] * (np.eye(h) + 1.0)

    q = zm.copy()
    lower = np.zeros((h, h))
    for i in range(h):
        for _ in range(2):  # a second pass restores orthogonality lost to rounding
            coef = q[:i] @ q[i]
            q[i] -= coef @ q[:i]
            lower[i, :i] += coef
        lower[i, i] = np.sqrt(q[i] @ q[i])
        if lower[i, i] <= RANK_PIVOT_TOL * np.sqrt(zm[i] @ zm[i]):
            raise GeometryError(f"row {i} of Z is zero or in the span of the rows before it")
        q[i] /= lower[i, i]
    try:
        y = np.column_stack([solve_linear_system(lower, target[:, j]) for j in range(h)])
    except SingularMatrixError as err:
        raise GeometryError(f"Z is too ill-conditioned for sign recovery: {err}") from err

    x = q.T @ y
    if np.max(np.abs(zm @ x - target)) > RESIDUAL_TOL:
        raise GeometryError("query points miss their target pre-activations; Z is ill-conditioned")
    return x, sigma.astype(int)
