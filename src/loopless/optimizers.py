"""Stochastic finite-sum optimizers behind one stepping interface.

Five algorithms: gradient descent, SVRG and Katyusha with deterministic
reference refresh every m inner steps, and their loopless variants where the
refresh is triggered by a per-step Bernoulli(p) coin.  The SVRG family
(_SVRGFamily) writes its serial step() as straight-line arithmetic.  The
Katyusha family (_KatyushaFamily) writes the point its estimator is taken at
once, in point(), and the move made with that estimator once, in
momentum_step(); its step(), the lanes and the diagnostics' lemma report all
call these two.  The loopy and loopless variants of a family differ only in
the refresh rule mixed into the class: a coin (_Coin) or every m-th step
(_Loop).

Each class carries its own facts, which the harness, CLI and diagnostics read
instead of restating: its registry `name`, its declared `param_types` table
(the constructor's keywords after oracle and x0, in order, with their types),
its `theory_params` preset, its family, which fixes the Lyapunov `potential`
columns and the `lemmas` slack names, and `theory_facts`, with a
`predicted_rate` only where the paper proves one (L-SVRG and L-Katyusha).  A
family constructor passes its refresh rule's keyword (p= or m=) to _init_rule.

Shared conventions:
  * every optimizer holds an immutable oracle and exposes schedule(rng,
    steps) (a block's sample indices and refresh mask), draws(indices,
    refresh) (step()'s arguments for the steps refresh covers), step(*draw),
    tracked_point, oracle_calls, and epoch == oracle_calls / n;
  * each stochastic step's draws are the sample index first and the coin
    second from the same stream, and it costs step_calls == 2
    stochastic-gradient calls plus n on a reference refresh (gradient
    descent: 0, and every step refreshes); initialization costs n;
  * the coin/loop refresh stores the PRE-update iterate (w <- x^k for the
    SVRG family, w <- y^k for the Katyusha family), exactly as the loopless
    recursions are defined;
  * the variance-reduced direction is formed as
        g = grad_i(x) - (grad_i(w) - grad_w)
    so the correction vanishes exactly (bitwise) when n == 1 and at w == x.

The draws do not depend on the iterate, so one loop, _drive, serves run()
and run_lanes(): it takes a block of steps at a time from each lane's
schedule(), _plan turns the refresh mask into each step's oracle calls, the
budget's last step and the checkpoint steps, and a stepper, given the
plan, advances the lanes between checkpoints; _drive alone keeps the run's
clock, records and stops.  run()'s stepper, _own, steps one optimizer:
draws() makes the corrections grad_i(w) - grad_w of each refresh-free
stretch in one Oracle.corrections call, and step() evaluates grad_i only at
the point.  run_lanes()'s, _stack, steps optimizers of one family on one
oracle at once, in place.  Their points are rows :S of a (2S, d) buffer
whose rows S: are their w, so one Oracle.grad_rows call a step gives every
lane's grad_i at x and at w, on sample rows Oracle.gathered takes a window
of steps at a time.  grad_rows writes them into a second (2S, d) buffer
that the block owns, where g forms in rows :S from the corrections in rows
S:, views made once a block, so an SVRG-family step allocates no array of
the lanes' size: x is the point rows and moves in place.  A Katyusha-family
step writes point() into them and takes z and y from momentum_step().
The walk goes through a block as spans: the steps between two refresh
steps, which run with no refresh check, and each refresh step alone, after
which its lanes' w rows take the tracked rows from before it (only within
their planned steps).
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
    step_calls = 2  # stochastic-gradient calls per step, plus n on a refresh

    def _start(self, oracle: Oracle, x0: np.ndarray):
        """Zero the counters; returns a float copy of x0 and its full
        gradient, the first n oracle calls."""
        self.oracle = oracle
        self.k = 0
        self.oracle_calls = oracle.n
        x = np.array(x0, dtype=np.float64)
        return x, oracle.full_grad(x)

    def theory_facts(self) -> dict:
        """Sidecar facts: a proven per-step rate, if any, and derived constants."""
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
    """A family's step(i, correction, refresh) is its update, the lanes'
    floating-point operations in the same order, then a refresh w <- the
    pre-update tracked point.  Its constants are 0-d float64 arrays, which
    numpy multiplies into an array faster than Python floats.  A family
    names its state arrays (lane_state) and constants (lane_params), so
    run_lanes can step lanes as (S, d) rows, each constant shared as one 0-d
    array or, where the lanes' values differ, an (S, 1) column.

    One write rule: step() writes only into arrays it allocates, and
    rebinds the state to new arrays, so a refresh stores the pre-update point
    by reference.  Katyusha's point() writes only into its result (out, when
    given), and momentum_step(x, g) only into g, which it scales.  The lanes
    are the exception: _stack writes its own stacked arrays in place, and
    hands each lane copies."""

    def draws(self, indices: np.ndarray, refresh: np.ndarray):
        """step()'s arguments (i, correction, refresh) for the steps of a
        schedule() block that refresh covers.  The corrections
        grad_i(i, w) - grad_w come one oracle call per stretch of steps that
        share w: a stretch ends at a refresh or at _STRETCH_CELLS cells, and
        its table is made only once the step before it has run.  Only the
        rows handed out hold a table, so a caller that keeps no row past its
        step holds one table at a time."""
        rows = max(1, _STRETCH_CELLS // max(1, self.oracle.d))
        start = 0
        for stop in [*(np.flatnonzero(refresh) + 1).tolist(), len(refresh)]:
            while start < stop:
                end = min(stop, start + rows)
                stretch = indices[start:end]
                yield from zip(stretch.tolist(),
                               self.oracle.corrections(stretch, self.w, self.grad_w),
                               refresh[start:end].tolist())
                start = end


class _SVRGFamily(_VarianceReduced):
    """SVRG step on x; a refresh stores the pre-update iterate, w <- x^k."""

    potential = ("phi", "dk")
    lemmas = ("iterate_distance", "estimator_second_moment",
              "grad_learning_decay", "phi_contraction")
    lane_state = ("x", "w", "grad_w")
    lane_params = ("_eta",)

    def __init__(self, oracle: Oracle, x0: np.ndarray, eta: float, **rule):
        self.eta = _check_positive(eta, "eta")
        self._eta = np.array(self.eta)
        self._init_rule(**rule)  # p= for the coin, m= for the loop
        self.x, self.grad_w = self._start(oracle, x0)
        self.w = self.x

    @classmethod
    def theory_params(cls, oracle: Oracle) -> dict:
        # loop length n: p = 1/n for the coin, m = n for the loop
        return {"eta": 1.0 / (6.0 * oracle.L), **cls.loop_params(oracle.n)}

    def step(self, i: int, correction: np.ndarray, refresh: bool):
        """One step on sample i, given its correction grad_i(i, w) - grad_w;
        a refresh sets w <- x^k."""
        x, oracle = self.x, self.oracle
        g = oracle.grad_i(i, x)
        g -= correction
        g *= self._eta
        self.x = x - g
        self.oracle_calls += self.step_calls
        if refresh:
            self.w = x
            self.grad_w = oracle.full_grad(x)
            self.oracle_calls += oracle.n
        self.k += 1


class _KatyushaFamily(_VarianceReduced):
    """Katyusha step: negative momentum toward w; a refresh stores w <- y^k.

    The step's constants theta1, theta2, 1 - theta1 - theta2, eta sigma,
    eta / L and 1 + eta sigma are fixed at construction (_theta1, _theta2,
    _y_weight, _eta_sigma, _z_step, _z_scale), so a step computes nothing
    but the update, in the order its formula gives.  The update is written
    once: point() forms x^k, memoizing theta2 w for each w array, and
    momentum_step() moves z and y with the estimator taken there."""

    potential = ("psi", "zk", "yk", "wk")
    lemmas = ("estimator_variance", "z_update", "y_progress",
              "reference_recursion", "psi_contraction")
    lane_state = ("z", "y", "w", "grad_w")
    lane_params = ("_theta1", "_theta2", "_y_weight", "_eta_sigma", "_z_step",
                   "_z_scale")

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
        _check_positive(self.eta / oracle.L, "eta / L")  # checks eta too: L is finite
        eta_sigma = self.eta * self.sigma
        (self._theta1, self._theta2, self._y_weight, self._eta_sigma, self._z_step,
         self._z_scale) = map(np.array, (
            self.theta1, self.theta2, 1.0 - self.theta1 - self.theta2, eta_sigma,
            self.eta / oracle.L, 1.0 + eta_sigma))
        self.y, self.grad_w = self._start(oracle, x0)
        self.z = self.y
        self.w = self.y
        self._theta2_w_of = self._theta2_w = None  # theta2 w, and the w it is of

    @classmethod
    def theory_params(cls, oracle: Oracle) -> dict:
        sigma = oracle.mu / oracle.L
        theta1 = min(math.sqrt(2.0 * sigma * oracle.n / 3.0), 0.5)
        return {"theta1": theta1, "theta2": 0.5, **cls.loop_params(oracle.n)}

    def theory_facts(self) -> dict:
        return {"sigma": self.sigma, "eta": self.eta}

    def step(self, i: int, correction: np.ndarray, refresh: bool):
        """One step on sample i, given its correction grad_i(i, w) - grad_w;
        a refresh sets w <- y^k."""
        y, oracle = self.y, self.oracle
        x = self.point()
        g = oracle.grad_i(i, x)
        g -= correction
        self.z, self.y = self.momentum_step(x, g)
        self.oracle_calls += self.step_calls
        if refresh:
            self.w = y
            self.grad_w = oracle.full_grad(y)
            self.oracle_calls += oracle.n
        self.k += 1

    def point(self, out: np.ndarray | None = None) -> np.ndarray:
        """x^k = theta1 z + theta2 w + (1 - theta1 - theta2) y, written into
        out or a new array.  theta2 w is formed once per w array and kept
        with the w it was taken from."""
        if self.w is not self._theta2_w_of:
            self._theta2_w_of, self._theta2_w = self.w, self._theta2 * self.w
        x = np.multiply(self._theta1, self.z, out=out)
        x += self._theta2_w
        x += self._y_weight * self.y
        return x

    def momentum_step(self, x: np.ndarray, g: np.ndarray):
        """(z^{k+1}, y^{k+1}) from x^k and the estimator g, as new arrays:
            z^{k+1} = (eta sigma x + z - (eta / L) g) / (1 + eta sigma),
            y^{k+1} = x + theta1 (z^{k+1} - z).
        It scales g by eta / L in place."""
        g *= self._z_step
        z_next = self._eta_sigma * x
        z_next += self.z
        z_next -= g
        z_next /= self._z_scale
        y_next = z_next - self.z
        y_next *= self._theta1
        y_next += x
        return z_next, y_next

    @property
    def tracked_point(self) -> np.ndarray:
        return self.y


# Each class binds its family's `step` in its own body (as does
# tests/test_cli.py::DampedLSVRG), so instrumentation can wrap one class's
# step without touching its family's: perfbench/tracer.py counts steps and
# refreshes there until its counters move to fields that _drive fills
# (ROADMAP item 3).


class GradientDescent(_Optimizer):
    """Full-gradient baseline; n oracle calls per step (and at init)."""

    name = "gd"
    param_types = {"step_size": float}
    step_calls = 0  # each step is a full gradient: n calls, a refresh to _plan

    def __init__(self, oracle: Oracle, x0: np.ndarray, step_size: float):
        self.step_size = _check_positive(step_size, "step_size")
        self.x, self.grad = self._start(oracle, x0)

    @staticmethod
    def theory_params(oracle: Oracle) -> dict:
        return {"step_size": 1.0 / oracle.L}

    @staticmethod
    def schedule(rng, steps: int):
        """No sample indices, and every step refreshes: draws nothing."""
        return None, np.ones(steps, dtype=bool)

    @staticmethod
    def draws(indices, refresh):
        """step() takes no arguments."""
        return itertools.repeat((), len(refresh))

    def step(self):
        self.x = self.x - self.step_size * self.grad
        self.grad = self.oracle.full_grad(self.x)
        self.oracle_calls += self.oracle.n
        self.k += 1


class LSVRG(_SVRGFamily, _Coin):
    """Loopless SVRG: coin-triggered reference refresh, w^{k+1} = x^k."""

    name = "l-svrg"
    param_types = {"eta": float, "p": float}
    step = _SVRGFamily.step

    def theory_facts(self) -> dict:  # per-step rate of the L-SVRG bound, for any p
        return {"predicted_rate": max(1.0 - self.eta * self.oracle.mu, 1.0 - self.p / 2.0)}


class LoopySVRG(_SVRGFamily, _Loop):
    """Original SVRG loop structure: refresh w <- x^k every m steps."""

    name = "svrg"
    param_types = {"eta": float, "m": int}
    step = _SVRGFamily.step


class LKatyusha(_KatyushaFamily, _Coin):
    """Loopless Katyusha: negative momentum toward w, coin refresh w^{k+1} = y^k."""

    name = "l-katyusha"
    param_types = {"theta1": float, "theta2": float, "p": float}
    step = _KatyushaFamily.step

    def theory_facts(self) -> dict:  # per-step rate of the L-Katyusha bound
        rate = 1.0 - min(self.sigma / (6.0 * self.theta1),
                         self.theta1 / (2.0 * self.oracle.n))
        return {"predicted_rate": rate, **super().theory_facts()}


class LoopyKatyusha(_KatyushaFamily, _Loop):
    """Katyusha with a deterministic loop: refresh w <- y^k every m steps."""

    name = "katyusha"
    param_types = {"theta1": float, "theta2": float, "m": int}
    step = _KatyushaFamily.step


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
# whatever the epoch budget, while keeping the per-block set-up (draws, _plan,
# stacking, the gathered rows) a small share of the steps.  At the sweep's 10
# lanes a full block holds about 1.6 MB: 96 KB a lane for its indices,
# uniforms and planned calls, and 640 KB for the (4096, 20) table of the
# stack's sample rows.  A sweep-ridge op (2,450 steps a lane) is then one
# block, not three; with the span walk its time fell about 8% (CHANGES.md).
# The draws are counter-based, so the block length moves none of them
_BLOCK_STEPS = 4096

# most cells in one table of corrections (256 KiB of float64): a stretch of
# steps sharing w gets its table in pieces of at most max(1, _STRETCH_CELLS // d)
# rows.  On a9a's shape 1.5 epochs of run() took 55.4 ms (L-SVRG) and 92.9 ms
# (L-Katyusha) at this size, against 58.4 and 98.5 ms at 1 << 17 (median of 12)
_STRETCH_CELLS = 1 << 15


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


def _plan(optimizer, refresh: np.ndarray, epochs: float, mark: float, every: float):
    """Plan a schedule() block with this refresh mask from the optimizer's
    state: (each step's oracle_calls, cut after the step that spends the
    epoch budget; the steps that record a checkpoint; the mark after them).
    A step costs step_calls plus n on a refresh, and records once its epoch
    reaches min(mark, epochs), moving the mark past it (_advance_mark)."""
    n = optimizer.oracle.n
    calls = optimizer.oracle_calls + np.cumsum(optimizer.step_calls + n * refresh)
    epoch = calls / n  # each step's epoch, as optimizer.epoch computes it
    epoch = epoch[:np.searchsorted(epoch, epochs) + 1]
    checkpoints = []
    t = int(np.searchsorted(epoch, min(mark, epochs)))  # epoch never decreases
    while t < len(epoch):
        checkpoints.append(t)
        mark = _advance_mark(mark, epoch[t], every)
        t += 1 + int(np.searchsorted(epoch[t + 1:], min(mark, epochs)))
    return calls[:len(epoch)], checkpoints, mark


# the leading columns of every trace row, each an optimizer attribute, with
# the type its cell reads back as
RECORD_COLUMNS = {"k": int, "oracle_calls": int, "epoch": float}


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
    A record is the {column: value} dict of its trace row: RECORD_COLUMNS,
    what metrics(optimizer) returns, then wall_ns.  metrics sees the
    live optimizer and must treat it as read-only; wall_ns is optimizer time,
    the time since the run started less the time spent in metrics.  It is
    _drive with one lane, stepping itself (_own).
    At the first checkpoint whose tracked point or any record value is not
    finite the run stops without recording it, leaving the optimizer in that
    state with diverged_at = k.  Deterministic given (optimizer state, rng);
    rng ends at the end of the last block drawn, past the last step's draws.
    """
    return _drive([optimizer], [rng], epochs, checkpoint_every, [metrics], _own)[0]


def run_lanes(
    optimizers,
    rngs,
    *,
    epochs: float,
    checkpoint_every: float = 1.0,
    metrics=None,
) -> list[list[dict]]:
    """Drive optimizers of one family (SVRG or Katyusha) that share one
    oracle as one batch of lanes, stepped together by _drive with _stack.

    Lane s gives the records run(optimizers[s], rngs[s], metrics=metrics[s])
    would give and leaves optimizers[s] in the state run leaves it in,
    bitwise on every data kind: Oracle.grad_rows is grad_i's arithmetic.
    Before each of a lane's checkpoints its state and counters are written
    back to its optimizer, so metrics sees an ordinary optimizer.  wall_ns
    is the batch's optimizer time so far, shared by its lanes.  A lane's rng
    ends at the end of its last block, past run's.  Each lane needs its own
    rng, and its own metrics entry when metrics is given: a ValueError,
    before any step, otherwise.
    """
    lanes, rngs = list(optimizers), list(rngs)
    families = {getattr(opt, "lane_state", None) for opt in lanes}
    if None in families or len(families) > 1 or len({id(opt.oracle) for opt in lanes}) > 1:
        raise ValueError("lanes must be optimizers of one family (SVRG-family "
                         "or Katyusha-family) on one oracle")
    metrics = [None] * len(lanes) if metrics is None else list(metrics)
    if len(rngs) != len(lanes) or len(metrics) != len(lanes):
        raise ValueError(f"{len(lanes)} lanes need one rng and one metrics entry "
                         f"each, got {len(rngs)} and {len(metrics)}")
    if len({id(rng) for rng in rngs}) < len(rngs):  # lanes would interleave draws
        raise ValueError("each lane needs its own rng object")
    return _drive(lanes, rngs, epochs, checkpoint_every, metrics, _stack)


def _drive(lanes, rngs, epochs, every, metrics, stepper) -> list[list[dict]]:
    """The one driver loop: records each lane's first state, then, a block
    at a time, plans every live lane's schedule() with _plan and walks the
    checkpoint steps in order, advancing the stepper to each, then writing
    back and recording each lane due there.  A lane drops out at its last
    checkpoint: its budget is spent, or it has diverged and skips the
    checkpoints it still had in the block.  stepper(opts, drawn, calls),
    built once per block, returns advance(start, stop), which takes steps
    start..stop-1, write_back(b, t), which leaves lane b's optimizer as
    after step t, and retire(b), told once lane b has dropped out; it
    refreshes a lane only within its planned steps calls[b], so a lane whose
    budget is spent is refreshed no more."""
    check_budget(epochs, every)
    traces: list[list[dict]] = [[] for _ in lanes]
    start_ns = time.perf_counter_ns()
    diag_ns = 0  # time spent in record, left out of wall_ns

    def record(s: int) -> bool:
        """Append lane s's record to its trace: RECORD_COLUMNS, what its
        metrics returns, then wall_ns.  False once the lane stops: its
        budget is spent, or it has diverged (its tracked point or a record
        value is not finite), when the record is dropped and diverged_at is
        set to its k."""
        nonlocal diag_ns
        now = time.perf_counter_ns()
        optimizer = lanes[s]
        rec = {col: getattr(optimizer, col) for col in RECORD_COLUMNS}
        wall_ns = now - start_ns - diag_ns
        finite = np.isfinite(optimizer.tracked_point).all()
        if finite and metrics[s] is not None:
            # overflow here means divergence, which is reported once, below
            with np.errstate(over="ignore", invalid="ignore"):
                rec.update(metrics[s](optimizer))
            finite = all(map(math.isfinite, rec.values()))
        rec["wall_ns"] = wall_ns
        diag_ns += time.perf_counter_ns() - now
        if not finite:
            optimizer.diverged_at = optimizer.k
            return False
        traces[s].append(rec)
        return optimizer.epoch < epochs

    live = [s for s in range(len(lanes)) if record(s)]
    marks = {s: _first_mark(lanes[s].epoch, every) for s in live}
    while live:
        opts = [lanes[s] for s in live]
        steps = _block_steps(max(epochs * opt.oracle.n - opt.oracle_calls for opt in opts))
        drawn = [opt.schedule(rngs[s], steps) for s, opt in zip(live, opts)]
        calls = []  # each lane's planned oracle_calls after each step
        due: dict[int, list[int]] = {}  # step -> lanes that record after it
        for b, (s, opt, (_, refresh)) in enumerate(zip(live, opts, drawn)):
            lane_calls, planned, marks[s] = _plan(opt, refresh, epochs, marks[s], every)
            calls.append(lane_calls)
            for t in planned:
                due.setdefault(t, []).append(b)
        advance, write_back, retire = stepper(opts, drawn, calls)
        running = set(range(len(opts)))  # the lanes before their last checkpoint
        start = 0
        for t in sorted(due):
            # a lane that overflows steps on to its next checkpoint, which
            # stops it as diverged: one report, and no numpy warning
            with np.errstate(over="ignore", invalid="ignore"):
                advance(start, t + 1)
            start = t + 1
            for b in due[t]:
                if b in running:
                    write_back(b, t)
                    if not record(live[b]):
                        running.remove(b)
                        retire(b)
            if not running:
                break
        else:  # the steps after the block's last checkpoint
            with np.errstate(over="ignore", invalid="ignore"):
                advance(start, steps)
            for b in running:
                write_back(b, steps - 1)
        live = [live[b] for b in sorted(running)]
    return traces


def _own(opts, drawn, calls):
    """One optimizer stepping itself through draws() and step(), which keep
    its state and counters: nothing to write back, and no step after it
    drops out."""
    (optimizer,), ((indices, refresh),), (planned,) = opts, drawn, calls
    draws = optimizer.draws(indices, refresh[:len(planned)])

    def advance(start: int, stop: int):
        # no draw outlives its step, so the last table is freed before the next
        for _ in range(stop - start):
            optimizer.step(*next(draws))

    return advance, lambda b, t: None, lambda b: None


def _stacked(opts):
    """A copy of the first lane that holds every lane's state as (S, d) rows.
    A parameter with the same bits in every lane (a sweep or comparison at
    one preset) stays the first lane's 0-d array, which numpy broadcasts for
    less than an (S, 1) column; one that differs between lanes becomes that
    column.  Either way each row is scaled by its own lane's double."""
    stack = copy.copy(opts[0])
    for name in stack.lane_state:
        setattr(stack, name, np.stack([getattr(o, name) for o in opts]))
    for name in stack.lane_params:
        values = [getattr(o, name) for o in opts]
        if len({v.tobytes() for v in values}) > 1:
            setattr(stack, name, np.stack(values)[:, np.newaxis])
    return stack


def _stack(opts, drawn, calls):
    """The lanes stepping together in place on one _stacked copy (see the
    module docstring).  A step calls no method but grad_rows and, on the
    Katyusha family, point() (into the point rows) and momentum_step(), and
    full_grad on a refresh.  A refresh or retire writes w in place, so it
    drops point()'s theta2 w memo.  retire(b) zeroes lane b's rows, where
    every later step keeps them (g is then exactly 0), and drops its
    refreshes left in the block: a lane that stopped, diverged or not, is
    stepped on to the block's end without overflowing."""
    oracle, width = opts[0].oracle, len(opts)
    refreshes: dict[int, list[int]] = {}  # step -> lanes that refresh in it
    for b, ((_, refresh), planned) in enumerate(zip(drawn, calls)):
        for t in np.flatnonzero(refresh[:len(planned)]).tolist():
            refreshes.setdefault(t, []).append(b)
    due = sorted(refreshes.items(), reverse=True)  # the next refresh step last
    stack = _stacked(opts)
    xw = np.concatenate([stack.tracked_point, stack.w])
    x, w = xw[:width], xw[width:]
    # grad_rows' output at xw: g = grad_i(x) - (grad_i(w) - grad_w) forms in
    # the point rows, from the correction in the w rows
    gc = np.empty_like(xw)
    g, correction = gc[:width], gc[width:]
    stack.w, katyusha = w, isinstance(stack, _KatyushaFamily)
    if not katyusha:
        stack.x, eta = x, stack._eta
    # row t: step t's samples for the point rows, then for the w rows
    steps = oracle.gathered(np.tile(np.stack([i for i, _ in drawn], axis=1), 2))
    k0 = [opt.k for opt in opts]
    grad_rows, full_grad, grad_w = oracle.grad_rows, oracle.full_grad, stack.grad_w

    def advance(start: int, stop: int):
        while start < stop:
            # a span of steps that refresh no lane, or one step that refreshes
            # some: its lanes' pre-update tracked rows become w after it
            refreshing = bool(due) and due[-1][0] == start
            if refreshing:
                lanes = due.pop()[1]
                pre, end = stack.tracked_point[lanes], start + 1
            else:
                end = min(due[-1][0], stop) if due else stop
            for labels, rows in itertools.islice(steps, end - start):
                if katyusha:
                    stack.point(out=x)
                grad_rows(xw, labels, rows, gc)
                np.subtract(correction, grad_w, out=correction)
                np.subtract(g, correction, out=g)
                if katyusha:
                    stack.z, stack.y = stack.momentum_step(x, g)
                else:  # x^{k+1} = x - eta g
                    np.multiply(g, eta, out=g)
                    np.subtract(x, g, out=x)
            if refreshing:  # w <- the pre-update tracked point
                w[lanes] = pre
                for b in lanes:
                    grad_w[b] = full_grad(w[b])
                if katyusha:
                    stack._theta2_w_of = None
            start = end

    def write_back(b: int, t: int):
        opt = opts[b]
        for name in opt.lane_state:
            setattr(opt, name, getattr(stack, name)[b].copy())
        opt.k = k0[b] + t + 1
        opt.oracle_calls = int(calls[b][t])

    def retire(b: int):
        for name in stack.lane_state:
            getattr(stack, name)[b] = 0.0
        if katyusha:
            stack._theta2_w_of = None
        for _, lanes in due:
            if b in lanes:
                lanes.remove(b)

    return advance, write_back, retire
