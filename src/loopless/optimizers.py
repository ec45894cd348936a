"""Stochastic finite-sum optimizers behind one stepping interface.

Five algorithms: gradient descent, SVRG and Katyusha with deterministic
reference refresh every m inner steps, and their loopless variants where the
refresh is triggered by a per-step Bernoulli(p) coin.  The four
variance-reduced classes share one step (_VarianceReduced.step).  A family
(_SVRGFamily, _KatyushaFamily) supplies only the point the estimator is taken
at and the move it makes with it; the loopy and loopless variants of a family
differ only in the refresh rule mixed into the class: a coin (_Coin) or every
m-th step (_Loop).

Each class carries its own facts, which the harness, CLI and diagnostics read
instead of restating: its registry `name`, its declared `param_types` table
(the constructor's keywords after oracle and x0, in order, with their types),
its `theory_params` preset, and its family, which fixes the Lyapunov
`potential` columns, the `lemmas` slack names and the predicted contraction
rate in `theory_facts`.  A family constructor takes its refresh rule's one
parameter by keyword (p= or m=) and hands it to the rule's _init_rule.

Shared conventions:
  * every optimizer holds an immutable oracle and exposes draws(rng, steps),
    step(*draw) for each draw, tracked_point, oracle_calls, and
    epoch == oracle_calls / n;
  * each stochastic step's draws are the sample index first and the coin
    second from the same stream, and it costs 2 stochastic-gradient calls
    plus n on a reference refresh; initialization costs n (the first full
    gradient);
  * the coin/loop refresh stores the PRE-update iterate (w <- x^k for the
    SVRG family, w <- y^k for the Katyusha family), exactly as the loopless
    recursions are defined;
  * the variance-reduced direction is formed as
        g = grad_i(x) - (grad_i(w) - grad_w)
    so the correction vanishes exactly (bitwise) when n == 1 and at w == x.

The draws do not depend on the iterate, so run() and run_lanes() take them a
block of steps at a time through the refresh rule's schedule().  run() drives one
optimizer: draws() cuts each block into refresh-free stretches, which share
w and so their corrections grad_i(w) - grad_w, makes each stretch's
corrections in one Oracle.corrections call, and step(i, correction, refresh)
evaluates grad_i only at the point.  run_lanes() drives optimizers of one
family that share an oracle as one batch of lanes: the family's point() and
move(), called on a stacked instance with one row per lane, advance every
lane at once.
"""

from __future__ import annotations

import copy
import itertools
import math
import time

import numpy as np

from .oracle import Oracle
from .rng import SplitMix64, step_draws


def _check_prob(p: float) -> float:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {p}")
    return float(p)


def _check_positive(value: float, name: str) -> float:
    if not 0.0 < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


class _Optimizer:
    """Shared accounting (k, oracle_calls, epoch) and the per-class facts."""

    name: str
    param_types: dict  # declared by each class: constructor keyword -> type
    potential: tuple[str, ...] = ()  # Lyapunov trace columns: phi or psi first
    lemmas: tuple[str, ...] = ()  # one-step bounds, traced as slack_<name>
    diverged_at: int | None = None  # k of the checkpoint run or run_lanes stopped at

    def _start(self, oracle: Oracle, x0: np.ndarray):
        """Zero the counters; returns a float copy of x0 and its full
        gradient, the first n oracle calls."""
        self.oracle = oracle
        self.k = 0
        self.oracle_calls = oracle.n
        x = np.array(x0, dtype=np.float64)
        return x, oracle.full_grad(x)

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
        self.p = self.refresh_prob = _check_prob(p)

    def schedule(self, rng: SplitMix64, steps: int):
        """(sample indices, refresh mask) of the next `steps` steps, each
        drawn as rng.randbelow(n) then rng.bernoulli(p) would draw it (no coin
        word at p = 1), leaving rng where those draws leave it."""
        coin = self.p < 1.0
        indices, uniforms = step_draws(rng, self.oracle.n, steps, coin)
        return indices, uniforms < self.p if coin else np.ones(steps, dtype=bool)

    @staticmethod
    def loop_params(length: int) -> dict:
        """Parameters refreshing every `length` steps (in expectation)."""
        return {"p": 1.0 / length}


class _Loop:
    """Loopy refresh rule: every m-th step refreshes; draws nothing."""

    def _init_rule(self, m: int):
        if m < 1:
            raise ValueError(f"inner loop length m must be >= 1, got {m}")
        self.m = int(m)
        self.refresh_prob = 1.0 / self.m  # refreshes per step; p in the predicted rate

    def schedule(self, rng: SplitMix64, steps: int):
        """(sample indices, refresh mask) of the next `steps` steps from step
        k on, leaving rng where those steps leave it."""
        indices, _ = step_draws(rng, self.oracle.n, steps, coin=False)
        refresh = np.zeros(steps, dtype=bool)
        # the steps j with (k + 1 + j) % m == 0, in Python ints: m may pass int64
        refresh[-(self.k + 1) % self.m::self.m] = True
        return indices, refresh

    @staticmethod
    def loop_params(length: int) -> dict:
        """Parameters refreshing every `length` steps."""
        return {"m": length}


class _VarianceReduced(_Optimizer):
    """The step both families share: the estimator at the family's point(),
    its move(x, g), then a refresh w <- the pre-update tracked point.  A
    family's point() and move() broadcast over rows, and it names its state
    arrays (lane_state) and the floats they read (lane_params), so run_lanes
    can step lanes as (S, d) rows with (S, 1) parameter columns."""

    def point(self) -> np.ndarray:
        return self.tracked_point

    def draws(self, rng: SplitMix64, steps: int):
        """step()'s arguments (i, correction, refresh) for the next `steps`
        steps, drawn as one block by the refresh rule's schedule().  The
        corrections grad_i(i, w) - grad_w come one oracle call per stretch of
        steps that share w: a stretch ends at a refresh or at _STRETCH_CELLS
        cells, and its table is made only once the step before it has run."""
        indices, refresh = self.schedule(rng, steps)
        rows = max(1, _STRETCH_CELLS // self.oracle.d)
        start = 0
        for stop in [*(np.flatnonzero(refresh) + 1).tolist(), steps]:
            while start < stop:
                end = min(stop, start + rows)
                stretch = indices[start:end]
                table = self.oracle.corrections(stretch, self.w, self.grad_w)
                yield from zip(stretch.tolist(), table, refresh[start:end].tolist())
                start = end

    def step(self, i: int, correction: np.ndarray, refresh: bool):
        """One step on sample i, whose correction grad_i(i, w) - grad_w is
        given; refresh sets w to the pre-update tracked point."""
        oracle = self.oracle
        x = self.point()
        g = oracle.grad_i(i, x)
        g -= correction
        w_next = self.tracked_point
        self.move(x, g)
        self.oracle_calls += 2
        if refresh:
            self.w = w_next
            self.grad_w = oracle.full_grad(w_next)
            self.oracle_calls += oracle.n
        self.k += 1


class _SVRGFamily(_VarianceReduced):
    """SVRG step on x; a refresh stores the pre-update iterate, w <- x^k."""

    potential = ("phi", "dk")
    lemmas = ("iterate_distance", "estimator_second_moment",
              "grad_learning_decay", "phi_contraction")
    lane_state = ("x", "w", "grad_w")
    lane_params = ("eta",)

    def __init__(self, oracle: Oracle, x0: np.ndarray, eta: float, **rule):
        self.eta = _check_positive(eta, "eta")
        self._init_rule(**rule)  # p= for the coin, m= for the loop
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

    def move(self, x: np.ndarray, g: np.ndarray):
        self.x = x - self.eta * g


class _KatyushaFamily(_VarianceReduced):
    """Katyusha step: negative momentum toward w; a refresh stores w <- y^k."""

    potential = ("psi", "zk", "yk", "wk")
    lemmas = ("estimator_variance", "z_update", "y_progress",
              "reference_recursion", "psi_contraction")
    lane_state = ("z", "y", "w", "grad_w")
    lane_params = ("theta1", "theta2", "eta")

    def __init__(self, oracle: Oracle, x0: np.ndarray, theta1: float, theta2: float,
                 **rule):
        _check_positive(theta1, "theta1")
        _check_positive(theta2, "theta2")
        if theta1 + theta2 > 1.0:
            raise ValueError(
                f"theta1 + theta2 must be <= 1, got {theta1} + {theta2}"
            )
        self.theta1 = float(theta1)
        self.theta2 = float(theta2)
        self._init_rule(**rule)
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

    def point(self) -> np.ndarray:
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

    def move(self, x: np.ndarray, g: np.ndarray):
        self.z, self.y = self.momentum_step(x, g)

    @property
    def tracked_point(self) -> np.ndarray:
        return self.y


# Each class binds `step` in its own body, so instrumentation can wrap one
# class's step without touching the shared one: perfbench/tracer.py counts
# steps and refreshes there, and does until its counters move to fields that
# run() and run_lanes() both fill (ROADMAP item 2).


class GradientDescent(_Optimizer):
    """Full-gradient baseline; n oracle calls per step (and at init)."""

    name = "gd"
    param_types = {"step_size": float}

    def __init__(self, oracle: Oracle, x0: np.ndarray, step_size: float):
        self.step_size = _check_positive(step_size, "step_size")
        self.x, self.grad = self._start(oracle, x0)

    @staticmethod
    def theory_params(oracle: Oracle) -> dict:
        return {"step_size": 1.0 / oracle.L}

    @staticmethod
    def draws(rng, steps: int):
        """step() takes no arguments: gradient descent draws nothing."""
        return itertools.repeat((), steps)

    def step(self):
        self.x = self.x - self.step_size * self.grad
        self.grad = self.oracle.full_grad(self.x)
        self.oracle_calls += self.oracle.n
        self.k += 1


class LSVRG(_SVRGFamily, _Coin):
    """Loopless SVRG: coin-triggered reference refresh, w^{k+1} = x^k."""

    name = "l-svrg"
    param_types = {"eta": float, "p": float}
    step = _VarianceReduced.step


class LoopySVRG(_SVRGFamily, _Loop):
    """Original SVRG loop structure: refresh w <- x^k every m steps."""

    name = "svrg"
    param_types = {"eta": float, "m": int}
    step = _VarianceReduced.step


class LKatyusha(_KatyushaFamily, _Coin):
    """Loopless Katyusha: negative momentum toward w, coin refresh w^{k+1} = y^k."""

    name = "l-katyusha"
    param_types = {"theta1": float, "theta2": float, "p": float}
    step = _VarianceReduced.step


class LoopyKatyusha(_KatyushaFamily, _Loop):
    """Katyusha with a deterministic loop: refresh w <- y^k every m steps."""

    name = "katyusha"
    param_types = {"theta1": float, "theta2": float, "m": int}
    step = _VarianceReduced.step


ALGORITHMS = {
    cls.name: cls
    for cls in (GradientDescent, LoopySVRG, LSVRG, LoopyKatyusha, LKatyusha)
}


def all_param_types() -> dict:
    """Union of every registered algorithm's constructor parameters."""
    return {k: v for cls in ALGORITHMS.values() for k, v in cls.param_types.items()}


def check_budget(epochs: float, checkpoint_every: float):
    if epochs < 0:
        raise ValueError(f"epoch budget must be >= 0, got {epochs}")
    if checkpoint_every <= 0:
        raise ValueError(f"checkpoint_every must be positive, got {checkpoint_every}")
    # past this the mark, advanced by repeated addition, can stop moving
    if epochs / checkpoint_every > 1e7:
        raise ValueError(f"checkpoint_every={checkpoint_every} gives more than 1e7 "
                         f"checkpoints in {epochs} epochs")


# most steps in one schedule block: bounds the schedule arrays of a run or a lane,
# whatever the epoch budget, while keeping the per-block set-up a small share of
# the steps
_BLOCK_STEPS = 1024

# most cells in one table of corrections (1 MiB of float64): a stretch of steps
# sharing w gets its table in pieces of at most max(1, _STRETCH_CELLS // d) rows
_STRETCH_CELLS = 1 << 17


def _block_steps(calls_left: float) -> int:
    """Steps in the next block: as many as a budget with calls_left oracle calls
    can still take (each step costs at least 2), at most _BLOCK_STEPS."""
    return min(_BLOCK_STEPS, max(1, math.ceil(calls_left / 2)))


def _first_mark(epoch: float, every: float) -> float:
    return (math.floor(epoch / every) + 1) * every


def _advance_mark(mark: float, epoch: float, every: float) -> float:
    while mark <= epoch:
        mark += every
    return mark


class _Recorder:
    """Makes checkpoint records, each the {column: value} dict of its trace
    row, whose wall_ns is optimizer time: the time since the recorder
    started, less the time spent in metrics."""

    def __init__(self):
        self.start_ns = time.perf_counter_ns()
        self.diag_ns = 0

    def record(self, optimizer, metrics=None) -> dict | None:
        """The optimizer's checkpoint record: k, oracle_calls, epoch, what
        metrics returns, then wall_ns.  None when its tracked point or any
        value of the record is not finite: the run has diverged and stops
        without the record, and optimizer.diverged_at is set to its k."""
        now = time.perf_counter_ns()
        rec = {"k": optimizer.k, "oracle_calls": optimizer.oracle_calls,
               "epoch": optimizer.epoch}
        wall_ns = now - self.start_ns - self.diag_ns
        finite = np.isfinite(optimizer.tracked_point).all()
        if finite and metrics is not None:
            # overflow here means divergence, which is reported once, below
            with np.errstate(over="ignore", invalid="ignore"):
                rec.update(metrics(optimizer))
            finite = all(map(math.isfinite, rec.values()))
        rec["wall_ns"] = wall_ns
        self.diag_ns += time.perf_counter_ns() - now
        if not finite:
            optimizer.diverged_at = optimizer.k
            return None
        return rec


def run(
    optimizer,
    rng: SplitMix64 | None,
    *,
    epochs: float,
    checkpoint_every: float = 1.0,
    metrics=None,
) -> list[dict]:
    """Drive an optimizer until its epoch counter reaches the budget.

    Records the initial state and then one record each time the epoch
    counter crosses a multiple of checkpoint_every (and at the final step).
    A record is the {column: value} dict of its trace row (_Recorder.record):
    metrics(optimizer) may return a dict of further columns; it sees the
    live optimizer and must treat it as read-only.  wall_ns leaves out the
    time spent in it.
    At the first checkpoint whose tracked point or any record value is not
    finite the run stops without recording it, leaving the optimizer in that
    state with diverged_at = k.  Deterministic given (optimizer state, rng).
    """
    check_budget(epochs, checkpoint_every)
    recorder = _Recorder()
    records = []
    if (rec := recorder.record(optimizer, metrics)) is None:
        return records
    records.append(rec)
    epoch = optimizer.epoch
    next_mark = _first_mark(epoch, checkpoint_every)
    n = optimizer.oracle.n
    while epoch < epochs:
        for draw in optimizer.draws(rng, _block_steps(epochs * n - optimizer.oracle_calls)):
            optimizer.step(*draw)
            epoch = optimizer.epoch
            if epoch >= next_mark or epoch >= epochs:
                if (rec := recorder.record(optimizer, metrics)) is None:
                    return records
                records.append(rec)
                next_mark = _advance_mark(next_mark, epoch, checkpoint_every)
                if epoch >= epochs:
                    break
    return records


def run_lanes(
    optimizers,
    rngs,
    *,
    epochs: float,
    checkpoint_every: float = 1.0,
    metrics=None,
) -> list[list[dict]]:
    """Drive optimizers of one family (SVRG or Katyusha) that share one
    oracle as one batch of lanes.

    Lane s gives the records run(optimizers[s], rngs[s], metrics=metrics[s])
    would give and leaves optimizers[s] in the state run leaves it in: k,
    oracle_calls and epoch exactly; its lane_state arrays bitwise on a
    dense ridge oracle, where oracle.grad_many is grad_i's arithmetic, and
    to rounding otherwise (np.exp is not math.exp, and CSR row dots go
    through bincount).

    The lanes step together through the family's point() and move() on one
    stacked instance.  Each lane follows its own schedule of sample indices
    and refreshes, drawn a block of steps at a time by its refresh rule, and
    drops out when its budget is spent or, as in run, at its first
    checkpoint with a non-finite tracked point or metric.  Before each of a
    lane's checkpoints its state and counters are written back to its
    optimizer, so metrics sees an ordinary optimizer.
    wall_ns is the batch's optimizer time so far, shared by its lanes.  A
    lane's rng ends at the end of its last block, past where run leaves it.
    """
    check_budget(epochs, checkpoint_every)
    lanes = list(optimizers)
    metrics = [None] * len(lanes) if metrics is None else list(metrics)
    if not lanes:
        return []
    move = getattr(type(lanes[0]), "move", None)
    if move is None or any(getattr(type(opt), "move", None) is not move
                           or opt.oracle is not lanes[0].oracle for opt in lanes):
        raise ValueError("lanes must be optimizers of one family (SVRG-family "
                         "or Katyusha-family) on one oracle")
    recorder = _Recorder()
    traces: list[list[dict]] = [[] for _ in lanes]

    def checkpoint(s: int) -> bool:
        """Record lane s; False if it has diverged."""
        rec = recorder.record(lanes[s], metrics[s])
        if rec is not None:
            traces[s].append(rec)
        return rec is not None

    marks = [0.0] * len(lanes)
    live = []
    for s, opt in enumerate(lanes):
        if checkpoint(s) and opt.epoch < epochs:
            marks[s] = _first_mark(opt.epoch, checkpoint_every)
            live.append(s)
    while live:
        live = _lane_block(lanes, rngs, live, marks, epochs, checkpoint_every,
                           checkpoint)
    return traces


def _lane_block(lanes, rngs, live, marks, epochs, every, checkpoint) -> list[int]:
    """Step the live lanes through one block; returns the lanes still live."""
    opts = [lanes[s] for s in live]
    oracle, n, width = opts[0].oracle, opts[0].oracle.n, len(opts)
    steps = _block_steps(max(epochs * n - opt.oracle_calls for opt in opts))
    drawn = [opt.schedule(rngs[s], steps) for s, opt in zip(live, opts)]
    refresh = np.stack([r for _, r in drawn])
    calls = (np.array([[opt.oracle_calls] for opt in opts])
             + 2 * np.arange(1, steps + 1) + n * np.cumsum(refresh, axis=1))
    epochs_after = calls / n  # each step's epoch, as opt.epoch computes it

    checkpoints: dict[int, list[int]] = {}  # step -> lanes that record after it
    refreshes: dict[int, list[int]] = {}  # step -> lanes that refresh in it
    for b, t in zip(*np.nonzero(refresh)):
        refreshes.setdefault(int(t), []).append(int(b))
    event = refresh.any(axis=0).tolist()  # steps with a refresh or a checkpoint
    running = set(range(width))  # the lanes before their last checkpoint

    def find_checkpoint(b: int, t: int):
        """File lane b under its next checkpoint, found by run()'s test: the first
        step from t on with epoch >= min(mark, epochs) (its epochs are sorted)."""
        t += int(np.searchsorted(epochs_after[b, t:], min(marks[live[b]], epochs)))
        checkpoints.setdefault(t, []).append(b)
        if t < steps:
            event[t] = True

    for b in range(width):
        find_checkpoint(b, 0)

    # a copy of the first lane holding every lane's state as (S, d) rows and
    # parameters as (S, 1) columns: its point() and move() step all lanes
    stack = copy.copy(opts[0])
    for name in (*stack.lane_state, *stack.lane_params):
        setattr(stack, name, np.stack([np.atleast_1d(getattr(o, name)) for o in opts]))
    # one buffer for grad_many: the points' rows, then the w rows
    xw = np.concatenate([stack.point(), stack.w])
    stack.w = xw[width:]
    # row t: step t's samples for the point rows, then for the w rows
    samples = np.concatenate([np.stack([i for i, _ in drawn])] * 2).T.copy()
    k0 = [opt.k for opt in opts]

    def write_back(b: int, t: int):
        opt = opts[b]
        for name in opt.lane_state:
            setattr(opt, name, getattr(stack, name)[b].copy())
        opt.k = k0[b] + t + 1
        opt.oracle_calls = int(calls[b, t])

    point, move, grad_many, grad_w = stack.point, stack.move, oracle.grad_many, stack.grad_w
    for t in range(steps):
        x = point()
        xw[:width] = x
        g_both = grad_many(samples[t], xw)
        # g = grad_i(x) - (grad_i(w) - grad_w), formed in g_both's rows
        g, correction = g_both[:width], g_both[width:]
        correction -= grad_w
        g -= correction
        if not event[t]:
            move(x, g)
            continue
        fresh = [b for b in refreshes.get(t, ()) if b in running]
        w_next = stack.tracked_point[fresh]
        move(x, g)
        for b, w in zip(fresh, w_next):  # w <- the pre-update tracked point
            xw[width + b] = w
            grad_w[b] = oracle.full_grad(w)
        for b in checkpoints.pop(t, ()):
            write_back(b, t)
            epoch = float(epochs_after[b, t])
            if checkpoint(live[b]) and epoch < epochs:
                marks[live[b]] = _advance_mark(marks[live[b]], epoch, every)
                find_checkpoint(b, t + 1)
            else:
                running.remove(b)
                if not running:
                    return []
    for b in running:
        write_back(b, steps - 1)
    return [live[b] for b in sorted(running)]
