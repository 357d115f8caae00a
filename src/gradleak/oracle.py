"""Query boundary between attacker and target.

Every interaction with the hidden network goes through here and is metered by
a QueryLedger: scalar value queries, exact gradient queries, noise-averaged
(SmoothGrad-style) gradient queries, and finite-difference gradient estimates
built from value queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TwoLayerNet, eval_target, grad_target

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
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


class Oracle:
    """The query boundary: every request evaluates the hidden net and is metered.

    grad        gradient(x) is exact, one gradient query.
    smoothgrad  gradient(x) is the smoothed average, one gradient query.
    membership  gradient(x) is a finite-difference estimate, d+1 value queries.
    """

    def __init__(self, net: TwoLayerNet, mode: str = "grad", sg: SmoothGradConfig | None = None):
        if mode not in ORACLE_MODES:
            raise ValueError(f"mode must be one of {ORACLE_MODES}, got {mode!r}")
        self.net = net
        self.mode = mode
        self.ledger = QueryLedger()
        self.sg = sg if sg is not None else SmoothGradConfig()
        self._sg_rng = np.random.default_rng(self.sg.seed)

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
        server-side work behind one explanation. With sigma=0 the perturbations
        vanish and the exact gradient is returned (bitwise, not a rounded mean).
        """
        if self.mode == "membership":
            return self.gradient_with_value(x, eta)[0]
        if self.mode == "grad" or self.sg.sigma == 0.0:
            out = grad_target(self.net, x)
        else:
            v = np.asarray(x, dtype=float)
            out = np.zeros(self.d)
            for _ in range(self.sg.n_samples):
                out += grad_target(self.net, v + self._sg_rng.normal(0.0, self.sg.sigma, size=self.d))
            out /= self.sg.n_samples
        self.ledger.add_gradients(1)
        return out

    def gradient_with_value(self, x, eta: float = DEFAULT_FD_ETA) -> tuple[np.ndarray, float]:
        """Gradient plus the base value f(x).

        In membership mode both come from one finite-difference request:
        component j is (f(x + eta e_j) - f(x)) / eta, and the base evaluation is
        shared across all coordinates, so the cost is exactly d+1 value queries.
        In the exact modes the value is a separate value query.
        """
        if self.mode != "membership":
            return self.gradient(x), self.value(x)
        step = FiniteDiffConfig(eta).eta  # refuses a non-positive step
        v = np.asarray(x, dtype=float)
        base = eval_target(self.net, v)
        grad = np.empty(self.d)
        for j in range(self.d):
            shifted = v.copy()
            shifted[j] += step
            grad[j] = (eval_target(self.net, shifted) - base) / step
        self.ledger.add_values(self.d + 1)
        return grad, base
