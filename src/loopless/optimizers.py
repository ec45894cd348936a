"""Stochastic finite-sum optimizers behind one stepping interface.

Five algorithms: gradient descent, SVRG and Katyusha with deterministic
reference refresh every m inner steps, and their loopless variants where the
refresh is triggered by a per-step Bernoulli(p) coin.  The loopy and loopless
variant of a family share one step kernel and differ only in the refresh rule
mixed into the class: a coin (_Coin) or a counter of period m (_Loop).

Each class carries its own facts, which the harness, CLI and diagnostics read
instead of restating: its registry `name`, its constructor parameters (the
annotated signature after oracle and x0), its `theory_params` preset, and its
family kernel, which fixes the Lyapunov `potential` columns, the `lemmas`
slack names and the predicted contraction rate in `theory_facts`.

Shared conventions:
  * every optimizer holds an immutable oracle and exposes step(rng),
    tracked_point, oracle_calls, and epoch == oracle_calls / n;
  * each stochastic step draws the sample index first and the coin second
    from the same stream, and costs 2 stochastic-gradient calls plus n on a
    reference refresh; initialization costs n (the first full gradient);
  * the coin/loop refresh stores the PRE-update iterate (w <- x^k for the
    SVRG family, w <- y^k for the Katyusha family), exactly as the loopless
    recursions are defined;
  * the variance-reduced direction is formed as
        g = grad_i(x) - (grad_i(w) - grad_w)
    so the correction vanishes exactly (bitwise) when n == 1 and at w == x.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .oracle import Oracle
from .rng import SplitMix64


def _check_prob(p: float) -> float:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {p}")
    return float(p)


def _check_positive(value: float, name: str) -> float:
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return float(value)


def gd_step(x: np.ndarray, oracle: Oracle, step: float) -> np.ndarray:
    """One full-gradient descent step x - step * grad f(x)."""
    _check_positive(step, "step")
    return x - step * oracle.full_grad(x)


class _Optimizer:
    """Shared accounting (k, oracle_calls, epoch) and the per-class facts."""

    name: str
    param_types: dict  # constructor parameters after (oracle, x0) -> type
    potential: tuple[str, ...] = ()  # Lyapunov trace columns: phi or psi first
    lemmas: tuple[str, ...] = ()  # one-step bounds, traced as slack_<name>

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # read once from the annotated signature, so it cannot drift from it
        signature = inspect.signature(cls, eval_str=True)
        params = list(signature.parameters.values())[2:]
        cls.param_types = {p.name: p.annotation for p in params}

    def _start(self, oracle: Oracle, x0: np.ndarray):
        """Zero the counters; returns a float copy of x0 and its full
        gradient, the first n oracle calls."""
        self.oracle = oracle
        self.k = 0
        self.oracle_calls = oracle.n
        x = np.array(x0, dtype=np.float64)
        return x, oracle.full_grad(x)

    @classmethod
    def theory(cls, oracle: Oracle, x0: np.ndarray):
        return cls(oracle, x0, **cls.theory_params(oracle))

    def theory_facts(self) -> dict:
        """Predicted contraction rate and derived constants for the sidecar."""
        return {}

    @property
    def tracked_point(self) -> np.ndarray:
        return self.x

    @property
    def epoch(self) -> float:
        return self.oracle_calls / self.oracle.n


class _Coin:
    """Loopless refresh rule: a Bernoulli(p) coin drawn after the index."""

    def _init_rule(self, p: float):
        self.p = _check_prob(p)

    def _refresh_due(self, rng: SplitMix64) -> bool:
        return rng.bernoulli(self.p)

    @property
    def refresh_prob(self) -> float:
        return self.p

    @staticmethod
    def loop_params(length: int) -> dict:
        """Parameters refreshing every `length` steps (in expectation)."""
        return {"p": 1.0 / length}


class _Loop:
    """Loopy refresh rule: a counter j of period m that draws nothing."""

    def _init_rule(self, m: int):
        if m < 1:
            raise ValueError(f"inner loop length m must be >= 1, got {m}")
        self.m = int(m)
        self.j = 0

    def _refresh_due(self, rng: SplitMix64) -> bool:
        self.j = (self.j + 1) % self.m
        return self.j == 0

    @property
    def refresh_prob(self) -> float:
        """Refreshes per step; stands in for p in the predicted rate."""
        return 1.0 / self.m

    @staticmethod
    def loop_params(length: int) -> dict:
        """Parameters refreshing every `length` steps."""
        return {"m": length}


class _SVRGFamily(_Optimizer):
    """SVRG step on x; a refresh stores the pre-update iterate, w <- x^k."""

    potential = ("phi", "dk")
    lemmas = ("iterate_distance", "estimator_second_moment",
              "grad_learning_decay", "phi_contraction")

    def __init__(self, oracle: Oracle, x0: np.ndarray, eta: float, refresh):
        self.eta = _check_positive(eta, "eta")
        self._init_rule(refresh)
        self.x, self.grad_w = self._start(oracle, x0)
        self.w = self.x

    @classmethod
    def theory_params(cls, oracle: Oracle) -> dict:
        # loop length n: p = 1/n for the coin, m = n for the loop
        return {"eta": 1.0 / (6.0 * oracle.L), **cls.loop_params(oracle.n)}

    def theory_facts(self) -> dict:
        # per-step contraction factor of the L-SVRG Lyapunov bound
        rate = max(1.0 - self.eta * self.oracle.mu, 1.0 - self.refresh_prob / 2.0)
        return {"predicted_rate": rate}

    def step(self, rng: SplitMix64):
        oracle = self.oracle
        i = rng.randbelow(oracle.n)
        correction = oracle.grad_i(i, self.w) - self.grad_w
        g = oracle.grad_i(i, self.x) - correction
        x_prev = self.x
        self.x = x_prev - self.eta * g
        self.oracle_calls += 2
        if self._refresh_due(rng):
            self.w = x_prev
            self.grad_w = oracle.full_grad(self.w)
            self.oracle_calls += oracle.n
        self.k += 1


class _KatyushaFamily(_Optimizer):
    """Katyusha step: negative momentum toward w; a refresh stores w <- y^k."""

    potential = ("psi", "zk", "yk", "wk")
    lemmas = ("estimator_variance", "z_update", "y_progress",
              "reference_recursion", "psi_contraction")

    def __init__(
        self, oracle: Oracle, x0: np.ndarray, theta1: float, theta2: float, refresh
    ):
        _check_positive(theta1, "theta1")
        _check_positive(theta2, "theta2")
        if theta1 + theta2 > 1.0:
            raise ValueError(
                f"theta1 + theta2 must be <= 1, got {theta1} + {theta2}"
            )
        self.theta1 = float(theta1)
        self.theta2 = float(theta2)
        self._init_rule(refresh)
        self.sigma = oracle.mu / oracle.L
        self.eta = theta2 / ((1.0 + theta2) * theta1)
        self.y, self.grad_w = self._start(oracle, x0)
        self.z = self.y
        self.w = self.y

    @classmethod
    def theory_params(cls, oracle: Oracle) -> dict:
        sigma = oracle.mu / oracle.L
        theta1 = min(math.sqrt(2.0 * sigma * oracle.n / 3.0), 0.5)
        return {"theta1": theta1, "theta2": 0.5, **cls.loop_params(oracle.n)}

    def theory_facts(self) -> dict:
        # per-step contraction factor of the L-Katyusha Lyapunov bound
        rate = 1.0 - min(self.sigma / (6.0 * self.theta1),
                         self.theta1 / (2.0 * self.oracle.n))
        return {"predicted_rate": rate, "sigma": self.sigma, "eta": self.eta}

    def interpolate(self) -> np.ndarray:
        """x^k = theta1 z + theta2 w + (1 - theta1 - theta2) y."""
        return (
            self.theta1 * self.z
            + self.theta2 * self.w
            + (1.0 - self.theta1 - self.theta2) * self.y
        )

    def momentum_step(self, x: np.ndarray, g: np.ndarray):
        """(z^{k+1}, y^{k+1}) from x^k and the estimator g; broadcasts over
        the rows of a (n, d) table of g, one row per sample draw."""
        eta_sigma = self.eta * self.sigma
        z_next = (eta_sigma * x + self.z - (self.eta / self.oracle.L) * g) / (
            1.0 + eta_sigma
        )
        return z_next, x + self.theta1 * (z_next - self.z)

    def step(self, rng: SplitMix64):
        oracle = self.oracle
        x = self.interpolate()
        i = rng.randbelow(oracle.n)
        correction = oracle.grad_i(i, self.w) - self.grad_w
        g = oracle.grad_i(i, x) - correction
        z_next, y_next = self.momentum_step(x, g)
        self.oracle_calls += 2
        if self._refresh_due(rng):
            self.w = self.y
            self.grad_w = oracle.full_grad(self.w)
            self.oracle_calls += oracle.n
        self.z = z_next
        self.y = y_next
        self.k += 1

    @property
    def tracked_point(self) -> np.ndarray:
        return self.y


# Each class binds `step` in its own body, so instrumentation can wrap one
# class's step without touching the shared kernel.


class GradientDescent(_Optimizer):
    """Full-gradient baseline; n oracle calls per step (and at init)."""

    name = "gd"

    def __init__(self, oracle: Oracle, x0: np.ndarray, step_size: float):
        self.step_size = _check_positive(step_size, "step_size")
        self.x, self.grad = self._start(oracle, x0)

    @staticmethod
    def theory_params(oracle: Oracle) -> dict:
        return {"step_size": 1.0 / oracle.L}

    def step(self, rng=None):
        self.x = self.x - self.step_size * self.grad
        self.grad = self.oracle.full_grad(self.x)
        self.oracle_calls += self.oracle.n
        self.k += 1


class LSVRG(_SVRGFamily, _Coin):
    """Loopless SVRG: coin-triggered reference refresh, w^{k+1} = x^k."""

    name = "l-svrg"
    step = _SVRGFamily.step

    def __init__(self, oracle: Oracle, x0: np.ndarray, eta: float, p: float):
        super().__init__(oracle, x0, eta, p)


class LoopySVRG(_SVRGFamily, _Loop):
    """Original SVRG loop structure: refresh w <- x^k every m steps."""

    name = "svrg"
    step = _SVRGFamily.step

    def __init__(self, oracle: Oracle, x0: np.ndarray, eta: float, m: int):
        super().__init__(oracle, x0, eta, m)


class LKatyusha(_KatyushaFamily, _Coin):
    """Loopless Katyusha: negative momentum toward w, coin refresh w^{k+1} = y^k."""

    name = "l-katyusha"
    step = _KatyushaFamily.step

    def __init__(
        self, oracle: Oracle, x0: np.ndarray, theta1: float, theta2: float, p: float
    ):
        super().__init__(oracle, x0, theta1, theta2, p)


class LoopyKatyusha(_KatyushaFamily, _Loop):
    """Katyusha with a deterministic loop: refresh w <- y^k every m steps."""

    name = "katyusha"
    step = _KatyushaFamily.step

    def __init__(
        self, oracle: Oracle, x0: np.ndarray, theta1: float, theta2: float, m: int
    ):
        super().__init__(oracle, x0, theta1, theta2, m)


ALGORITHMS = {
    cls.name: cls
    for cls in (GradientDescent, LoopySVRG, LSVRG, LoopyKatyusha, LKatyusha)
}

lsvrg_theory_params = LSVRG.theory_params
lkatyusha_theory_params = LKatyusha.theory_params
loopy_svrg_theory_params = LoopySVRG.theory_params


def all_param_types() -> dict:
    """Union of every registered algorithm's constructor parameters."""
    return {k: v for cls in ALGORITHMS.values() for k, v in cls.param_types.items()}


@dataclass
class TraceRecord:
    """Metrics snapshot at one checkpoint."""

    k: int
    oracle_calls: int
    epoch: float
    dist_sq: float | None = None
    f_gap: float | None = None
    lyapunov: object | None = None
    lemma_slacks: dict | None = None
    wall_ns: int = 0
    extras: dict = field(default_factory=dict)


def run(
    optimizer,
    rng: SplitMix64 | None,
    *,
    epochs: float,
    checkpoint_every: float = 1.0,
    metrics=None,
    hook=None,
) -> list[TraceRecord]:
    """Drive an optimizer until its epoch counter reaches the budget.

    Records the initial state and then one TraceRecord each time the epoch
    counter crosses a multiple of checkpoint_every (and at the final step).
    metrics(optimizer) may return a dict of TraceRecord field overrides;
    hook(optimizer) is called with the live optimizer at every checkpoint and
    must treat it as read-only.  Deterministic given (optimizer state, rng).
    """
    if epochs < 0:
        raise ValueError(f"epoch budget must be >= 0, got {epochs}")
    if checkpoint_every <= 0:
        raise ValueError(f"checkpoint_every must be positive, got {checkpoint_every}")

    t0 = time.perf_counter_ns()

    def record() -> TraceRecord:
        rec = TraceRecord(
            k=optimizer.k,
            oracle_calls=optimizer.oracle_calls,
            epoch=optimizer.epoch,
            wall_ns=time.perf_counter_ns() - t0,
        )
        if metrics is not None:
            for key, value in metrics(optimizer).items():
                setattr(rec, key, value)
        if hook is not None:
            hook(optimizer)
        return rec

    records = [record()]
    next_mark = (math.floor(optimizer.epoch / checkpoint_every) + 1) * checkpoint_every
    while optimizer.epoch < epochs:
        optimizer.step(rng)
        if optimizer.epoch >= next_mark or optimizer.epoch >= epochs:
            records.append(record())
            while next_mark <= optimizer.epoch:
                next_mark += checkpoint_every
    return records
