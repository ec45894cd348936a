import math

import numpy as np
import pytest

from loopless import optimizers, oracle as oracle_module
from loopless.data import Dataset, SparseRow, synthesize_quadratic
from loopless.diagnostics import ReferenceSolution
from loopless.optimizers import GradientDescent, _Coin
from loopless.oracle import make_oracle


def dense_rows(dataset) -> np.ndarray:
    """The (n, d) matrix of a dataset's rows, scattered from its CSR arrays."""
    A = np.zeros((dataset.n, dataset.d))
    rows = np.repeat(np.arange(dataset.n), np.diff(dataset.indptr))
    A[rows, dataset.indices] = dataset.values
    return A


def grad_many(oracle, idx, X) -> np.ndarray:
    """grad_i(idx[s], X[s]) for every row s, (S,) and (S, d) -> (S, d), as a
    lane step takes it: Oracle.grad_rows on the rows idx, gathered as one
    step of one window."""
    return oracle.grad_rows(X, *next(oracle.gathered(idx[np.newaxis])), np.empty_like(X))


def serial_step(opt, rng):
    """One step as a per-step loop takes it, the simple path that run()'s
    block draws are checked against: rng.randbelow(n), then the refresh
    rule's own draw (rng.bernoulli(p) for the coin, every m-th step for the
    loop), then the correction from grad_i at w.  Gradient descent draws
    nothing."""
    if isinstance(opt, GradientDescent):
        opt.step()
        return
    oracle = opt.oracle
    i = rng.randbelow(oracle.n)
    refresh = rng.bernoulli(opt.p) if isinstance(opt, _Coin) else (opt.k + 1) % opt.m == 0
    opt.step(i, oracle.grad_i(i, opt.w) - opt.grad_w, refresh)


def walk_lanes(opts, rngs, stop, cap_steps, every, block=1000):
    """Each optimizer's result as a serial_step loop that checks it every
    `every` steps gives it: its epoch at the first check where
    stop(optimizer) holds, or inf when no check within cap_steps steps does.

    The optimizers (SVRG family, one oracle) step together as one stack
    through optimizers._stack, the stepper run_lanes uses, `block` steps at
    a time from each one's own schedule().  At each check every running
    lane is written back to its optimizer, which stop() then sees.  Lanes
    are bitwise run(), and run() is bitwise the serial loop, so the results
    are the loop's.

    The check on steps and the stop rule stay here, not in optimizers._drive:
    no caller outside the tests needs them, and _drive's one loop would have
    to branch on which caller it serves.
    """
    assert block % every == 0  # a block ends on a check, where lanes are written back
    result = [math.inf] * len(opts)
    live, taken = list(range(len(opts))), 0
    while live and taken < cap_steps:
        lanes = [opts[s] for s in live]
        steps = min(block, cap_steps - taken)
        drawn = [opt.schedule(rngs[s], steps) for s, opt in zip(live, lanes)]
        n = lanes[0].oracle.n
        calls = [opt.oracle_calls + np.cumsum(opt.step_calls + n * refresh)
                 for opt, (_, refresh) in zip(lanes, drawn)]
        # a stopped lane is retired, as _drive retires it: still stepped to
        # the block's end, at zero, and never written back again
        advance, write_back, retire = optimizers._stack(lanes, drawn, calls)
        running = set(range(len(lanes)))
        for t in range(every - 1, steps, every):
            advance(t + 1 - every, t + 1)
            for b in sorted(running):
                write_back(b, t)
                if stop(lanes[b]):
                    result[live[b]] = lanes[b].epoch
                    running.remove(b)
                    retire(b)
            if not running:
                break
        live = [live[b] for b in sorted(running)]
        taken += steps
    return result


def random_dataset(rng, max_n=8, max_d=12, tight=True) -> Dataset:
    """Random sparse dataset; tight=True makes d exactly max index + 1."""
    n = int(rng.integers(1, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    rows = []
    for _ in range(n):
        nnz = int(rng.integers(0, d + 1))
        idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int64)
        val = rng.normal(size=nnz)
        val[val == 0.0] = 1.0
        rows.append(SparseRow(idx, val))
    labels = rng.choice([-1.0, 1.0], size=n)
    if tight:
        top = max((int(r.indices[-1]) for r in rows if r.nnz), default=-1)
        if top < d - 1:
            # force a row to touch the last coordinate so d is tight
            rows[0] = SparseRow(
                np.append(rows[0].indices[rows[0].indices < d - 1], d - 1),
                np.append(rows[0].values[: (rows[0].indices < d - 1).sum()], 1.0),
            )
    return Dataset(rows, labels, d)


def ridge_instance(n, d, kappa, seed=0, mu=1.0):
    """Synthetic ridge oracle plus a closed-form frozen reference."""
    dataset, x_star = synthesize_quadratic(n, d, kappa, seed=seed, mu=mu)
    oracle = make_oracle(dataset, "ridge", mu)
    ref = ReferenceSolution.from_point(oracle, x_star)
    return oracle, ref


def quarter_rule_oracle(dataset, loss, mu):
    """make_oracle with _DENSE_CELLS patched to 0, so that only data at least
    a quarter nonzero gets dense rows: tiny sparse data, which production
    storage keeps dense, then reaches the CSR kernels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_module, "_DENSE_CELLS", 0)
        return make_oracle(dataset, loss, mu)


def sparse_logistic_oracle(n=24, d=15, seed=3):
    """CSR storage (density below 0.25), every fifth row empty."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        idx = [] if i % 5 == 2 else np.sort(rng.choice(d, size=2, replace=False))
        rows.append(SparseRow(np.asarray(idx, dtype=np.int64), rng.normal(size=len(idx))))
    oracle = quarter_rule_oracle(Dataset(rows, rng.choice([-1.0, 1.0], size=n), d),
                                 "logistic", 0.1)
    assert oracle._dense is None
    return oracle


@pytest.fixture
def small_ridge():
    return ridge_instance(n=10, d=4, kappa=25.0, seed=2)


@pytest.fixture
def tiny_logistic():
    rng = np.random.default_rng(42)
    ds = random_dataset(rng, max_n=6, max_d=5)
    return make_oracle(ds, "logistic", 0.3)
