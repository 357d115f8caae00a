"""The paper's sign step from 2h value queries, which learn_model never calls.

For recovered weighted normals Z (h x d, full row rank) and a sign vector
sigma, X = Z^T (Z Z^T)^-1 diag(sigma)(I + J) gives Z X = diag(sigma)(I + J),
with J the all-ones matrix: every column lies in the cell with sign pattern
sigma, every pre-activation has magnitude at least 1, and cond(ZX) = h + 1.

X is the minimum-norm solution of Z X = diag(sigma)(I + J), computed by
LAPACK's SVD least squares: Z Z^T is never formed here, since that would
square cond(Z), which reaches ~3e5 on square instances (d = h = 16), and X
must hit its target to RESIDUAL_TOL. solve_linear_system, the same SVD least
squares for one right-hand side, solves the 2h x 2h block sign system of ZX,
or a tall one such as the 2d x 2h system the tests check the attack's signs
against. The attack's sign step (extraction._end_signs) does form Z Z^T: its
solution need only round to +-1, which absorbs the squared condition number,
and its residual certificate against both end gradients refuses whatever
rounding lets through.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError, SignRecoveryError, SingularMatrixError
from .extraction import SIGN_ROUND_TOL, SOLVE_RESIDUAL_TOL
from .model import _as_vector, as_matrix
from .oracle import Oracle

# A singular value below SINGULAR_PIVOT_TOL times the largest one rejects Z as
# too ill-conditioned, and aborts a solve.
SINGULAR_PIVOT_TOL = 1e-10
# Largest tolerated entry of |ZX - diag(sigma)(I + J)|; entries are at least 1.
RESIDUAL_TOL = 0.5


def sign_query_points(z, rng) -> tuple[np.ndarray, np.ndarray]:
    """Return (X, sigma): h points in cell sigma with ZX = diag(sigma)(I + J).

    Raises GeometryError when Z has a non-finite entry, when a singular value
    of Z falls below SINGULAR_PIVOT_TOL times the largest one (a zero,
    duplicated or nearly dependent row) or when ZX misses its target by more
    than RESIDUAL_TOL or is not finite.
    """
    if not np.all(np.isfinite(z)):
        raise GeometryError("Z has a non-finite entry")
    zm = as_matrix(z, "Z")
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
    a = as_matrix(zx, "ZX")
    h = a.shape[0]
    if a.shape[1] != h:
        raise ValueError(f"ZX must be square, got {a.shape}")
    if np.any(a == 0.0):
        raise ValueError("ZX has a zero entry; query points must avoid all hyperplanes")
    pos = np.maximum(a, 0.0).T
    neg = np.maximum(-a, 0.0).T
    # np.block lays small blocks of transposes out in Fortran order; M stays C-ordered.
    return np.ascontiguousarray(np.block([[pos, neg], [neg, pos]]))


def solve_linear_system(m, b) -> np.ndarray:
    """Solve M x = b, M square or tall (least squares; the caller judges the residual).

    b is (n,). One LAPACK SVD call. Raises SingularMatrixError when a singular value
    of M falls below SINGULAR_PIVOT_TOL times the largest one, ValueError when M is
    wide or b has another shape.
    """
    a = as_matrix(m)
    n, k = a.shape
    if k > n:
        raise ValueError(f"matrix must not have more columns than rows, got {a.shape}")
    rhs = _as_vector(b, n, "right-hand side")

    x, _, rank, sv = np.linalg.lstsq(a, rhs, rcond=SINGULAR_PIVOT_TOL)
    if rank < k:
        raise SingularMatrixError(
            f"smallest singular value {sv[-1]:.3e} below {SINGULAR_PIVOT_TOL:.0e} "
            f"times the largest {sv[0]:.3e}"
        )
    return x


def _solve(m, b) -> np.ndarray:
    try:
        return solve_linear_system(m, b)
    except (SingularMatrixError, ValueError) as err:  # ValueError: more unknowns than equations
        raise SignRecoveryError(f"sign system is singular: {err}") from err


def _signs(solved, m, b, scale) -> np.ndarray:
    """Round the solution of M s = b into {-1,0,1}^(2h) and certify it.

    A failed check (rounding, alphabet, residual scaled by scale = max(1,
    max|Z| max_j ||x_j||) over the points x_j of the system, one nonzero per
    row pair) means the recovered normals were wrong.
    """
    rounded = np.rint(solved)
    with np.errstate(invalid="ignore"):  # NaN and inf entries fail the rounding test
        near = np.abs(solved - rounded) <= SIGN_ROUND_TOL
    bad = ~near | (np.abs(rounded) > 1)
    if bad.any():
        i = int(np.argmax(bad))
        if not near[i]:
            raise SignRecoveryError(f"sign solution entry {i} = {solved[i]:.6g} is not near an integer")
        raise SignRecoveryError(f"sign solution entry {i} = {solved[i]:.6g} rounds outside {{-1,0,1}}")
    s = rounded.astype(int)
    # A row error dZ moves b_j by up to h |dZ| |x_j|: relative to |Z|, the bound scales with |Z| |x_j|.
    residual = np.max(np.abs(m @ s - b))
    if residual > SOLVE_RESIDUAL_TOL * scale * (1.0 + np.max(np.abs(b))):
        raise SignRecoveryError(f"rounded sign vector leaves residual {residual:.3e}")
    if np.any((s[: len(s) // 2] != 0) == (s[len(s) // 2 :] != 0)):
        raise SignRecoveryError("sign pattern is invalid: s must have exactly one nonzero per row pair")
    return s


def recover_s(oracle: Oracle, z, rng: np.random.Generator) -> np.ndarray:
    """s from 2h value queries in one request: the reference learn_model's sign step is checked against.

    f at the points X of sign_query_points (GeometryError when Z is rank deficient or
    not finite) and at -X, one values request of 2h rows, gives the block sign system
    of ZX, which _solve and _signs solve and certify. Their residual scale is the
    dimensionless max(1, max|Z| max_j ||x_j||): it neither grows as 1/|w| nor overflows.
    """
    x, _ = sign_query_points(z, rng)
    zm = as_matrix(z, "Z")
    b = oracle.values(np.vstack([x.T, -x.T]))
    m = block_sign_matrix(zm @ x)
    return _signs(_solve(m, b), m, b, max(1.0, np.max(np.linalg.norm(np.abs(zm).max() * x, axis=0))))
