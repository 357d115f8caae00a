"""Query boundary between attacker and target.

Every interaction with the hidden network goes through here and is metered by
a QueryLedger, in queries and in rounds (requests). The oracle serves values
in every mode and gradients, exact or smoothed (SmoothGrad-style), in grad and
smoothgrad; a membership attacker estimates gradients from values itself
(extraction.finite_differences).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TwoLayerNet, _as_points, _cell_gradient, _count, _freeze, _number, _seed, eval_target_batch

ORACLE_MODES = ("grad", "smoothgrad", "membership")


@dataclass
class QueryLedger:
    """Monotone counters of oracle calls: the queries, the attack's central
    cost metric, and the rounds, the requests that carried them. Each add_*
    call is one round, however many queries it carries."""

    value_queries: int = 0
    gradient_queries: int = 0
    rounds: int = 0

    def add_values(self, n: int) -> None:
        self.value_queries += n
        self.rounds += 1

    def add_gradients(self, n: int) -> None:
        self.gradient_queries += n
        self.rounds += 1


@dataclass
class SmoothGradConfig:
    """Gaussian smoothing: average of n_samples gradients at x + N(0, sigma^2 I)."""

    sigma: float = 0.0
    n_samples: int = 10
    seed: int | None = None

    def __post_init__(self):
        _number(self.sigma, "sigma", "[0, inf)")
        _count(self.n_samples, "n_samples", 1)
        _seed(self.seed)


class Oracle:
    """The query boundary: every request evaluates the hidden net and is metered.

    values(X)    every mode: f at the k rows of X, k value queries.
    gradients(X) grad: exact. smoothgrad: the smoothed average of one
                 (n_samples, d) block of perturbations per row. k gradient
                 queries; a membership oracle refuses.

    Each request is one round. An exact gradient (grad, or smoothgrad at
    sigma=0) depends only on the activation pattern of x, so it is built once
    per pattern and the same read-only array is returned for every later
    query in that cell; each call is still metered. exact is True for these
    cell arrays, which callers may compare by identity: the same object means
    the same cell. sigma is the blur that applies (sg.sigma in smoothgrad).
    """

    def __init__(self, net: TwoLayerNet, mode: str = "grad", sg: SmoothGradConfig | None = None):
        if mode not in ORACLE_MODES:
            raise ValueError(f"mode must be one of {ORACLE_MODES}, got {mode!r}")
        self.net = net
        self.mode = mode
        self.ledger = QueryLedger()
        self.sg = sg if sg is not None else SmoothGradConfig()
        self.sigma = self.sg.sigma if mode == "smoothgrad" else 0.0
        self.exact = mode != "membership" and not self.sigma
        self._sg_rng = np.random.default_rng(self.sg.seed) if self.sigma else None
        # Activation-pattern bytes -> that cell's exact gradient; at most one
        # entry per metered gradient query.
        self._cell_grads: dict[bytes, np.ndarray] = {}

    @property
    def d(self) -> int:
        return self.net.d

    def values(self, X) -> np.ndarray:
        """One request for f at the k rows of X: one round of k value queries."""
        pts = _as_points(X, self.d)
        self.ledger.add_values(len(pts))
        return eval_target_batch(self.net, pts)

    def gradients(self, X) -> list[np.ndarray]:
        """One request for the gradients at the k rows of X, in row order: k gradient queries.

        Exact gradients come from one product X A^T: row i is the read-only
        array of its cell, the same object any request in that cell returns.
        A smoothed gradient averages n_samples exact gradients at Gaussian
        perturbations of its point, one (n_samples, d) block per row from this
        oracle's generator, as one gradient query: the threat model meters API
        calls, not the server's work behind one explanation. Its mean
        activation pattern takes the product an exact pattern takes,
        model._cell_gradient. A membership oracle refuses before it meters anything.
        """
        if self.mode == "membership":
            raise ValueError("a membership oracle serves values only")
        pts = _as_points(X, self.d)
        net = self.net
        out = []
        if self.exact:
            for active in pts @ net.A.T >= 0.0:  # one product gives every pattern
                key = active.tobytes()
                grad = self._cell_grads.get(key)
                if grad is None:
                    grad = self._cell_grads[key] = _freeze(_cell_gradient(net, active))
                out.append(grad)
        else:
            for p in pts:
                draws = self._sg_rng.normal(0.0, self.sigma, size=(self.sg.n_samples, self.d))
                draws += p
                out.append(_cell_gradient(net, np.mean(draws @ net.A.T >= 0.0, axis=0)))
                del draws  # the next row's block replaces this one rather than joining it
        self.ledger.add_gradients(len(pts))
        return out
