"""Sign-recovery query points in closed form.

For recovered weighted normals Z (h x d, full row rank) and a sign vector
sigma, X = Z^T (Z Z^T)^-1 diag(sigma)(I + J) gives Z X = diag(sigma)(I + J),
with J the all-ones matrix: every column lies in the cell with sign pattern
sigma, every pre-activation has magnitude at least 1, and cond(ZX) = h + 1.

X is computed as Q^T Y from Z = L Q (Gram-Schmidt on the rows), with
Y = L^-1 diag(sigma)(I + J) found by one forward substitution on the lower
triangular L over all h right-hand sides at once: forming Z Z^T would square
cond(Z), which reaches ~3e5 on square instances (d = h = 16) and would push
the solve's pivots below tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError
from .numerics import RANK_PIVOT_TOL, SINGULAR_PIVOT_TOL, as_matrix

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
    # The diagonal of a triangular L holds its pivots.
    pivot, cutoff = np.min(np.diag(lower)), SINGULAR_PIVOT_TOL * np.max(np.abs(lower))
    if pivot < cutoff:
        raise GeometryError(
            f"Z is too ill-conditioned for sign recovery: pivot {pivot:.3e} "
            f"below tolerance {cutoff:.3e}"
        )
    y = np.empty((h, h))
    for i in range(h):
        y[i] = (target[i] - lower[i, :i] @ y[:i]) / lower[i, i]

    x = q.T @ y
    if np.max(np.abs(zm @ x - target)) > RESIDUAL_TOL:
        raise GeometryError("query points miss their target pre-activations; Z is ill-conditioned")
    return x, sigma.astype(int)
