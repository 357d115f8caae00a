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

# Standalone finite-difference step; extraction drivers override it.
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
        if self.eta <= 0:
            raise ValueError("eta must be positive")


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


def query_value(net: TwoLayerNet, x, ledger: QueryLedger) -> float:
    """One value query: f(x)."""
    out = eval_target(net, x)
    ledger.add_values(1)
    return out


def query_gradient(net: TwoLayerNet, x, ledger: QueryLedger) -> np.ndarray:
    """One gradient query: grad f(x)."""
    out = grad_target(net, x)
    ledger.add_gradients(1)
    return out


def fd_gradient(net: TwoLayerNet, x, cfg: FiniteDiffConfig, ledger: QueryLedger) -> np.ndarray:
    """Estimate the gradient from d+1 value queries.

    Component j is (f(x + eta e_j) - f(x)) / eta. The base evaluation is
    shared across all coordinates, so the cost is exactly d+1 value queries.
    """
    grad, _ = fd_gradient_with_value(net, x, cfg, ledger)
    return grad


def fd_gradient_with_value(
    net: TwoLayerNet, x, cfg: FiniteDiffConfig, ledger: QueryLedger
) -> tuple[np.ndarray, float]:
    """fd_gradient plus the base value f(x) it already paid for."""
    v = np.asarray(x, dtype=float)
    d = net.d
    base = query_value(net, v, ledger)
    grad = np.empty(d)
    for j in range(d):
        shifted = v.copy()
        shifted[j] += cfg.eta
        grad[j] = (query_value(net, shifted, ledger) - base) / cfg.eta
    return grad, base


def smoothgrad(
    net: TwoLayerNet, x, cfg: SmoothGradConfig, ledger: QueryLedger, rng=None
) -> np.ndarray:
    """Average of n_samples exact gradients at Gaussian perturbations of x.

    Counts as a single gradient query: the threat model meters API calls, not
    the server-side work behind one explanation. With sigma=0 the perturbations
    vanish and the exact gradient is returned (bitwise, not a rounded mean).
    """
    v = np.asarray(x, dtype=float)
    ledger.add_gradients(1)
    if cfg.sigma == 0.0:
        return grad_target(net, v)
    gen = np.random.default_rng(cfg.seed) if rng is None else rng
    total = np.zeros(net.d)
    for _ in range(cfg.n_samples):
        z = gen.normal(0.0, cfg.sigma, size=net.d)
        total += grad_target(net, v + z)
    return total / cfg.n_samples


class Oracle:
    """Mode-dispatching front end used by the extraction driver.

    grad        gradient(x) is exact, one gradient query.
    smoothgrad  gradient(x) is the smoothed average, one gradient query.
    membership  gradient(x) is a finite-difference estimate, d+1 value queries.
    """

    def __init__(
        self,
        net: TwoLayerNet,
        mode: str = "grad",
        ledger: QueryLedger | None = None,
        fd: FiniteDiffConfig | None = None,
        sg: SmoothGradConfig | None = None,
    ):
        if mode not in ORACLE_MODES:
            raise ValueError(f"mode must be one of {ORACLE_MODES}, got {mode!r}")
        self.net = net
        self.mode = mode
        self.ledger = ledger if ledger is not None else QueryLedger()
        self.fd = fd if fd is not None else FiniteDiffConfig()
        self.sg = sg if sg is not None else SmoothGradConfig()
        self._sg_rng = np.random.default_rng(self.sg.seed)

    @property
    def d(self) -> int:
        return self.net.d

    def value(self, x) -> float:
        return query_value(self.net, x, self.ledger)

    def gradient(self, x, eta: float | None = None) -> np.ndarray:
        if self.mode == "membership":
            cfg = self.fd if eta is None else FiniteDiffConfig(eta)
            return fd_gradient(self.net, x, cfg, self.ledger)
        if self.mode == "smoothgrad":
            return smoothgrad(self.net, x, self.sg, self.ledger, rng=self._sg_rng)
        return query_gradient(self.net, x, self.ledger)

    def gradient_with_value(self, x, eta: float | None = None) -> tuple[np.ndarray, float]:
        """Gradient plus the base value.

        In membership mode both come from one finite-difference request (d+1
        value queries, step eta when given); in the exact modes the value is a
        separate value query.
        """
        if self.mode == "membership":
            cfg = self.fd if eta is None else FiniteDiffConfig(eta)
            return fd_gradient_with_value(self.net, x, cfg, self.ledger)
        return self.gradient(x), self.value(x)
