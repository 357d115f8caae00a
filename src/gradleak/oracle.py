"""Query boundary between attacker and target.

Every interaction with the hidden network goes through here and is metered by
a QueryLedger: scalar value queries, exact gradient queries, noise-averaged
(SmoothGrad-style) gradient queries, and finite-difference gradient estimates
built from value queries. Exact gradients are built once per activation
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
    """Monotone counters of oracle calls; the attack's central cost metric."""

    value_queries: int = 0
    gradient_queries: int = 0

    def add_values(self, n: int = 1) -> None:
        self.value_queries += n

    def add_gradients(self, n: int = 1) -> None:
        self.gradient_queries += n


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
        """One gradient request; eta is the finite-difference step in membership mode.

        A smoothed gradient averages n_samples exact gradients at Gaussian
        perturbations of x drawn from this oracle's generator, and counts as a
        single gradient query: the threat model meters API calls, not the
        server-side work behind one explanation. The perturbations are one
        (n_samples, d) block; their mean activation pattern, times w, makes one
        product with A. With sigma=0 the perturbations vanish and the exact
        gradient is returned (bitwise, not a rounded mean), shared read-only
        with every other query in its cell.
        """
        if self.mode == "membership":
            return self.gradient_with_value(x, eta)[0]
        v = _as_vector(x, self.d)
        if self._exact:
            # One product A x gives the pattern and, on a miss, the gradient
            # exactly as grad_target builds it.
            active = self.net.A @ v >= 0.0
            key = active.tobytes()
            out = self._cell_grads.get(key)
            if out is None:
                out = (self.net.w * active) @ self.net.A
                out.setflags(write=False)
                self._cell_grads[key] = out
        else:
            pts = v + self._sg_rng.normal(0.0, self.sg.sigma, size=(self.sg.n_samples, self.d))
            out = (self.net.w * np.mean(pts @ self.net.A.T >= 0.0, axis=0)) @ self.net.A
        self.ledger.add_gradients(1)
        return out

    def gradient_with_value(self, x, eta: float = DEFAULT_FD_ETA) -> tuple[np.ndarray, float]:
        """Gradient plus the base value f(x).

        In membership mode both come from one finite-difference request, one
        evaluation of f at the d+1 rows of [x; x + eta I]: component j is
        (f(x + eta e_j) - f(x)) / eta, and the base evaluation is shared across
        all coordinates, so the cost is exactly d+1 value queries. In the exact
        modes the value is a separate value query.
        """
        if self.mode != "membership":
            return self.gradient(x), self.value(x)
        step = FiniteDiffConfig(eta).eta  # refuses a non-positive step
        v = _as_vector(x, self.d)
        f = eval_target_batch(self.net, np.vstack([v, v + step * np.eye(self.d)]))
        self.ledger.add_values(self.d + 1)
        return (f[1:] - f[0]) / step, float(f[0])
