"""Query boundary between attacker and target.

Every interaction with the hidden network goes through here and is metered by
a QueryLedger: scalar value queries, exact gradient queries, noise-averaged
(SmoothGrad-style) gradient queries, and finite-difference gradient estimates
built from value queries. A request may carry many points; the ledger counts
each request as one round. Exact gradients are built once per activation
pattern and shared read-only; every query is still metered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TwoLayerNet, _as_vector, eval_target, eval_target_batch

ORACLE_MODES = ("grad", "smoothgrad", "membership")

# Finite-difference step when a caller gives none; extraction always gives one.
DEFAULT_FD_ETA = 1e-6


@dataclass
class QueryLedger:
    """Monotone counters of oracle calls: the queries, the attack's central
    cost metric, and the rounds, the requests that carried them. Each add_*
    call is one round, however many queries it carries."""

    value_queries: int = 0
    gradient_queries: int = 0
    rounds: int = 0

    def add_values(self, n: int = 1) -> None:
        self.value_queries += n
        self.rounds += 1

    def add_gradients(self, n: int = 1) -> None:
        self.gradient_queries += n
        self.rounds += 1


@dataclass
class FiniteDiffConfig:
    """Step size for one-sided finite differences along coordinate axes."""

    eta: float = DEFAULT_FD_ETA

    def __post_init__(self):
        if not 0.0 < self.eta < np.inf:  # a NaN step makes every error NaN, which no check flags
            raise ValueError(f"eta must be positive and finite, got {self.eta}")


@dataclass
class SmoothGradConfig:
    """Gaussian smoothing: average of n_samples gradients at x + N(0, sigma^2 I)."""

    sigma: float = 0.0
    n_samples: int = 10
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma}")
        if not isinstance(self.n_samples, (int, np.integer)) or self.n_samples < 1:
            raise ValueError(f"n_samples must be an integer of at least 1, got {self.n_samples}")
        if self.seed is not None and not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be None or a non-negative integer, got {self.seed}")


class Oracle:
    """The query boundary: every request evaluates the hidden net and is metered.

    grad        gradient(x) is exact, one gradient query.
    smoothgrad  gradient(x) is the smoothed average of one (n_samples, d)
                block of perturbations, one gradient query.
    membership  gradient(x) is a finite-difference estimate from one
                evaluation of d+1 points, d+1 value queries.

    gradients(X) answers the k rows of X in one request: one round, metered
    as k such queries. gradient(x) is that request at one point.

    An exact gradient (grad, or smoothgrad at sigma=0) depends only on the
    activation pattern of x, so it is built once per pattern and the same
    read-only array is returned for every later query in that cell; each call
    is still metered. Callers may compare two exact gradients by identity: the
    same object means the same cell.
    """

    def __init__(self, net: TwoLayerNet, mode: str = "grad", sg: SmoothGradConfig | None = None):
        if mode not in ORACLE_MODES:
            raise ValueError(f"mode must be one of {ORACLE_MODES}, got {mode!r}")
        self.net = net
        self.mode = mode
        self.ledger = QueryLedger()
        self.sg = sg if sg is not None else SmoothGradConfig()
        self._exact = mode == "grad" or (mode == "smoothgrad" and self.sg.sigma == 0.0)
        self._sg_rng = np.random.default_rng(self.sg.seed) if mode == "smoothgrad" and not self._exact else None
        # Activation-pattern bytes -> that cell's exact gradient; at most one
        # entry per metered gradient query.
        self._cell_grads: dict[bytes, np.ndarray] = {}

    @property
    def d(self) -> int:
        return self.net.d

    def value(self, x) -> float:
        """One value query: f(x)."""
        out = eval_target(self.net, x)
        self.ledger.add_values(1)
        return out

    def gradient(self, x, eta: float = DEFAULT_FD_ETA) -> np.ndarray:
        """One gradient request: gradients at the single point x."""
        return self.gradients(_as_vector(x, self.d)[None], eta)[0]

    def gradient_with_value(self, x, eta: float = DEFAULT_FD_ETA) -> tuple[np.ndarray, float]:
        """Gradient plus the base value f(x): gradients_with_values at the single point x."""
        grads, values = self.gradients_with_values(_as_vector(x, self.d)[None], eta)
        return grads[0], float(values[0])

    def gradients(self, X, eta: float = DEFAULT_FD_ETA) -> list[np.ndarray]:
        """One request for the gradients at the k rows of X, in row order.

        Metered as k gradient queries, or k(d+1) value queries in membership,
        where eta is the finite-difference step. Exact gradients come from
        one product X A^T: row i is the read-only array of its cell, the same
        object gradient(X[i]) returns. A smoothed gradient averages n_samples
        exact gradients at Gaussian perturbations of its point, one (n_samples,
        d) block drawn per row from this oracle's generator, and counts as a
        single gradient query: the threat model meters API calls, not the
        server-side work behind one explanation. Its mean activation pattern,
        times w, makes one product with A; with sigma=0 the oracle is exact.
        """
        if self.mode == "membership":
            return self.gradients_with_values(X, eta)[0]
        pts = self._points(X)
        net = self.net
        if self._exact:
            out = []
            # One product gives every pattern; a miss builds the gradient
            # exactly as grad_target does.
            for active in pts @ net.A.T >= 0.0:
                key = active.tobytes()
                grad = self._cell_grads.get(key)
                if grad is None:
                    grad = (net.w * active) @ net.A
                    grad.setflags(write=False)
                    self._cell_grads[key] = grad
                out.append(grad)
        else:
            k, n = len(pts), self.sg.n_samples
            draws = pts[:, None, :] + self._sg_rng.normal(0.0, self.sg.sigma, size=(k, n, self.d))
            means = np.mean(draws @ net.A.T >= 0.0, axis=1)
            out = [(net.w * mean) @ net.A for mean in means]
        self.ledger.add_gradients(len(pts))
        return out

    def gradients_with_values(self, X, eta: float = DEFAULT_FD_ETA) -> tuple[list[np.ndarray], np.ndarray]:
        """Gradients and base values f at the k rows of X.

        In membership mode both come from one request, one evaluation of f at
        the k(d+1) rows [x; x + eta I] of each point x: component j is (f(x +
        eta e_j) - f(x)) / eta, and the base evaluation is shared across all
        coordinates, so the cost is exactly k(d+1) value queries. In the exact
        modes the values are a separate request of k value queries.
        """
        pts = self._points(X)
        if self.mode != "membership":
            grads = self.gradients(pts)
            values = eval_target_batch(self.net, pts)
            self.ledger.add_values(len(pts))
            return grads, values
        step = FiniteDiffConfig(eta).eta  # refuses a non-positive step
        offsets = np.vstack([np.zeros(self.d), step * np.eye(self.d)])
        f = eval_target_batch(self.net, (pts[:, None, :] + offsets).reshape(-1, self.d)).reshape(len(pts), -1)
        self.ledger.add_values(f.size)
        return list((f[:, 1:] - f[:, :1]) / step), f[:, 0]

    def _points(self, X) -> np.ndarray:
        pts = np.asarray(X, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError(f"points must have shape (k, {self.d}), got {pts.shape}")
        return pts
