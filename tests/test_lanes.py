"""Lane-batched runs (run_lanes) and refresh schedules against the scalar
step() path they replace, plus the checkpoint clock and divergence guard
that run() and run_lanes share."""

import copy
import math
import time
import warnings

import numpy as np
import pytest

from loopless import optimizers, oracle as oracle_module
from loopless.data import Dataset, synthesize_quadratic
from loopless.harness import RunConfig, build_metrics
from loopless.oracle import Oracle, make_oracle
from loopless.optimizers import (GradientDescent, LKatyusha, LoopyKatyusha,
                                 LoopySVRG, LSVRG, _Coin, _Loop, run, run_lanes)
from loopless.rng import SplitMix64

from conftest import (dense_rows, quarter_rule_oracle, ridge_instance, serial_step,
                      sparse_logistic_oracle, walk_lanes)


def ridge_oracle(n, d=3, kappa=20.0, seed=0):
    dataset, _ = synthesize_quadratic(n, d, kappa, seed=seed, mu=1.0)
    return make_oracle(dataset, "ridge", 1.0)


# ------------------------------------------------------------------ schedules


@pytest.mark.parametrize(
    "cls, n, param",
    [
        (LSVRG, 1, 0.3),  # no index word
        (LSVRG, 64, 0.05),  # a power of two: every index word is accepted
        (LSVRG, 100, 1.0),  # no coin word
        (LSVRG, 100, 0.002),  # small p
        (LSVRG, 3, 0.5),
        (LoopySVRG, 100, 1),  # refresh every step
        (LoopySVRG, 100, 10_000),  # a loop longer than the run
        (LoopySVRG, 1, 3),
        (LoopySVRG, 37, 7),
        (LoopySVRG, 37, 600),  # one refresh, inside the last block
        (LoopySVRG, 100, 10**20),  # a loop length past int64
    ],
)
def test_schedule_matches_serial_draws(cls, n, param):
    oracle = ridge_oracle(n)
    rule = list(cls.param_types)[-1]  # p for the coin, m for the loop
    scheduled = cls(oracle, np.zeros(oracle.d), eta=0.01, **{rule: param})
    serial = copy.copy(scheduled)
    rng_block, rng_serial = SplitMix64(77), SplitMix64(77)
    for steps in (0, 1, 37, 600):
        indices, refresh = scheduled.schedule(rng_block, steps)
        scheduled.k += steps
        want_idx, want_refresh = [], []
        for _ in range(steps):  # a per-step loop's draws, in its order
            want_idx.append(rng_serial.randbelow(n))
            # the coin after the index, or every m-th step (no draw)
            want_refresh.append(rng_serial.bernoulli(serial.p) if cls is LSVRG
                                else (serial.k + 1) % serial.m == 0)
            serial.k += 1
        assert indices.tolist() == want_idx
        assert refresh.dtype == bool and refresh.tolist() == want_refresh
        assert rng_block._state == rng_serial._state


# ---------------------------------------------------------------- run_lanes


def distance_metrics(x_star):
    def metrics(opt):
        delta = opt.tracked_point - x_star
        return {"dist_sq": float(delta @ delta)}

    return metrics


def assert_same_records(lane, serial):
    """Equal records, every column but wall_ns bitwise."""
    assert [(r["k"], r["oracle_calls"], r["epoch"]) for r in lane] == [
        (r["k"], r["oracle_calls"], r["epoch"]) for r in serial
    ]
    for a, b in zip(lane, serial):
        assert a.keys() == b.keys()
        for name in b.keys() - {"k", "oracle_calls", "epoch", "wall_ns"}:
            assert a[name] == b[name], name


def assert_same_state(lane, serial):
    assert (lane.k, lane.oracle_calls, lane.epoch) == (
        serial.k, serial.oracle_calls, serial.epoch)
    for name in serial.lane_state:
        assert np.array_equal(getattr(lane, name), getattr(serial, name)), name


def compare_lanes_with_runs(make_lanes, seeds, metrics, **budget):
    """run_lanes on one set of fresh optimizers, run() on another, lane by
    lane: a lane is run(), bitwise."""
    lanes, serials = make_lanes(), make_lanes()
    traces = run_lanes(lanes, [SplitMix64(s) for s in seeds], metrics=metrics, **budget)
    for lane, serial, seed, trace, metric in zip(lanes, serials, seeds, traces, metrics):
        want = run(serial, SplitMix64(seed), metrics=metric, **budget)
        assert_same_records(trace, want)
        assert_same_state(lane, serial)
    return traces


def test_run_lanes_matches_run_on_dense_ridge():
    oracle, ref = ridge_instance(n=20, d=5, kappa=200.0, seed=4)
    eta = 1.0 / (6.0 * oracle.L)

    def make_lanes():
        return [
            LSVRG(oracle, np.zeros(5), eta=eta, p=0.05),
            LoopySVRG(oracle, np.zeros(5), eta=eta, m=20),
            # refreshes on consecutive steps, and in the same step as the m = 20 lane
            LSVRG(oracle, np.zeros(5), eta=eta, p=1.0),
            LoopySVRG(oracle, np.zeros(5), eta=eta, m=1000),
            LSVRG(oracle, np.ones(5), eta=2 * eta, p=0.3),
        ]

    metrics = [distance_metrics(ref.x_star)] * 5
    # about 600 steps a lane: past one schedule block, checkpoints inside blocks
    traces = compare_lanes_with_runs(make_lanes, [0, 1, 2, 3, 4], metrics,
                                     epochs=70.0, checkpoint_every=2.5)
    # the lanes end after different numbers of steps
    assert len({trace[-1]["k"] for trace in traces}) > 1


def test_run_lanes_matches_run_on_csr_logistic():
    oracle = sparse_logistic_oracle()
    x_star = np.zeros(oracle.d)

    def make_lanes():
        return [LSVRG(oracle, np.zeros(oracle.d), eta=0.5, p=0.1),
                LoopySVRG(oracle, np.zeros(oracle.d), eta=0.5, m=7)]

    compare_lanes_with_runs(make_lanes, [5, 6], [distance_metrics(x_star)] * 2,
                            epochs=30.0, checkpoint_every=3.0)


def test_run_lanes_matches_run_bitwise_on_small_sparse_ridge():
    # 2 of 15 features per row and 360 cells: production storage keeps dense rows
    oracle = make_oracle(sparse_logistic_oracle().dataset, "ridge", 0.1)
    assert oracle._dense is not None
    eta = 1.0 / (6.0 * oracle.L)

    def make_lanes():
        return [LSVRG(oracle, np.zeros(oracle.d), eta=eta, p=0.1),
                LoopySVRG(oracle, np.zeros(oracle.d), eta=eta, m=7)]

    compare_lanes_with_runs(make_lanes, [5, 6], [distance_metrics(np.zeros(oracle.d))] * 2,
                            epochs=30.0, checkpoint_every=3.0)


@pytest.mark.parametrize("level", ["lyapunov", "lemmas"])
def test_run_lanes_matches_run_with_lsvrg_diagnostics(level):
    oracle, ref = ridge_instance(n=10, d=4, kappa=25.0, seed=2)
    config = RunConfig(algorithm="l-svrg", synthetic=(10, 4, 25.0), loss="ridge",
                       mu=1.0, diagnostics=level)

    def make_lanes():
        return [LSVRG(oracle, np.zeros(4), **LSVRG.theory_params(oracle)),
                LSVRG(oracle, np.zeros(4), eta=0.01, p=0.5)]

    traces = compare_lanes_with_runs(make_lanes, [8, 9],
                                     [build_metrics(config, oracle, ref)] * 2,
                                     epochs=12.0, checkpoint_every=2.0)
    assert all(rec["phi"] is not None for trace in traces for rec in trace)


def test_run_lanes_matches_run_for_both_katyusha_classes_on_dense_ridge():
    oracle, ref = ridge_instance(n=20, d=5, kappa=200.0, seed=4)
    theta1 = LKatyusha.theory_params(oracle)["theta1"]

    def make_lanes():
        return [
            LKatyusha(oracle, np.zeros(5), **LKatyusha.theory_params(oracle)),
            LoopyKatyusha(oracle, np.zeros(5), theta1=theta1, theta2=0.5, m=20),
            # refreshes on consecutive steps, and in the same step as the m = 20 lane
            LKatyusha(oracle, np.zeros(5), theta1=0.4, theta2=0.5, p=1.0),
            LoopyKatyusha(oracle, np.zeros(5), theta1=0.2, theta2=0.3, m=1000),
            LKatyusha(oracle, np.ones(5), theta1=0.3, theta2=0.5, p=0.3),
        ]

    metrics = [distance_metrics(ref.x_star)] * 5
    traces = compare_lanes_with_runs(make_lanes, [0, 1, 2, 3, 4], metrics,
                                     epochs=70.0, checkpoint_every=2.5)
    # past one schedule block, and the lanes end after different numbers of steps
    assert max(trace[-1]["k"] for trace in traces) > 512
    assert len({trace[-1]["k"] for trace in traces}) > 1


def test_run_lanes_matches_run_for_both_katyusha_classes_on_csr_logistic():
    oracle = sparse_logistic_oracle()
    x_star = np.zeros(oracle.d)

    def make_lanes():
        return [LKatyusha(oracle, np.zeros(oracle.d), theta1=0.3, theta2=0.5, p=0.1),
                LoopyKatyusha(oracle, np.zeros(oracle.d), theta1=0.3, theta2=0.5, m=7)]

    compare_lanes_with_runs(make_lanes, [5, 6], [distance_metrics(x_star)] * 2,
                            epochs=30.0, checkpoint_every=3.0)


@pytest.mark.parametrize("level", ["lyapunov", "lemmas"])
def test_run_lanes_matches_run_with_lkatyusha_diagnostics(level):
    oracle, ref = ridge_instance(n=10, d=4, kappa=25.0, seed=2)
    config = RunConfig(algorithm="l-katyusha", synthetic=(10, 4, 25.0), loss="ridge",
                       mu=1.0, diagnostics=level)

    def make_lanes():
        return [LKatyusha(oracle, np.zeros(4), **LKatyusha.theory_params(oracle)),
                LKatyusha(oracle, np.zeros(4), theta1=0.2, theta2=0.4, p=0.5)]

    traces = compare_lanes_with_runs(make_lanes, [8, 9],
                                     [build_metrics(config, oracle, ref)] * 2,
                                     epochs=12.0, checkpoint_every=2.0)
    assert all(rec["psi"] is not None for trace in traces for rec in trace)


def preset_lanes(oracle, family, differ=()):
    """Three lanes of the family at its theory preset, from x0 = 0: the
    coin at p = 1/n, the loop at m = n and the coin at p = 0.3, the last two
    with each parameter named in differ scaled by 0.5 and 0.8."""
    coin, loop = {"svrg": (LSVRG, LoopySVRG), "katyusha": (LKatyusha, LoopyKatyusha)}[family]
    params = {k: v for k, v in coin.theory_params(oracle).items() if k != "p"}

    def scaled(by):
        return {k: v * by if k in differ else v for k, v in params.items()}

    x0 = np.zeros(oracle.d)
    return [coin(oracle, x0, **params, p=1.0 / oracle.n),
            loop(oracle, x0, **scaled(0.5), m=oracle.n),
            coin(oracle, x0, **scaled(0.8), p=0.3)]


# (family, the parameters its lanes differ in): none, all, and for Katyusha
# theta1 alone, which leaves theta2 shared beside the columns it changes
PARAMETER_CASES = [("svrg", ()), ("svrg", ("eta",)), ("katyusha", ()),
                   ("katyusha", ("theta1",)), ("katyusha", ("theta1", "theta2"))]


@pytest.mark.parametrize("family, differ", PARAMETER_CASES)
def test_a_stack_shares_a_parameter_as_0d_unless_its_lanes_differ(family, differ):
    """_stacked holds a parameter every lane has with the same bits as the
    first lane's own 0-d array, and one that differs as an (S, 1) column of
    each lane's value; the state is (S, d) rows either way."""
    oracle, _ = ridge_instance(n=20, d=5, kappa=200.0, seed=4)
    lanes = preset_lanes(oracle, family, differ)
    stack = optimizers._stacked(lanes)
    varied = set()
    for name in stack.lane_params:
        values = [getattr(opt, name) for opt in lanes]
        held = getattr(stack, name)
        if all(v.tobytes() == values[0].tobytes() for v in values):
            assert held is values[0] and held.ndim == 0, name
        else:
            varied.add(name)
            assert held.shape == (3, 1), name
            assert held[:, 0].tobytes() == np.stack(values).tobytes(), name
    assert bool(varied) == bool(differ)
    if family == "katyusha" and differ == ("theta1",):
        assert "_theta2" not in varied
    for name in stack.lane_state:
        assert getattr(stack, name).shape == (3, oracle.d), name


@pytest.mark.parametrize("family, differ", PARAMETER_CASES)
def test_lanes_with_shared_or_differing_parameters_match_run_bitwise(family, differ):
    """Each lane of a dense ridge stack is run()'s trace and state bitwise,
    whether its parameters are shared 0-d arrays or its own column's row."""
    oracle, ref = ridge_instance(n=20, d=5, kappa=200.0, seed=4)
    compare_lanes_with_runs(lambda: preset_lanes(oracle, family, differ), [0, 1, 2],
                            [distance_metrics(ref.x_star)] * 3,
                            epochs=30.0, checkpoint_every=2.5)


def spy_windows(monkeypatch) -> list:
    """[labels, gathered array, steps] of every window Oracle.gathered
    gathers, in order: the window's labels, its dense rows or CSR entry
    values, whose size is the cells it gathered, and how many of its steps
    were taken."""
    windows: list = []

    def spied(self, samples, gathered=Oracle.gathered):
        for labels, rows in gathered(self, samples):
            if not windows or windows[-1][0] is not labels.base:
                # dense rows, or CSR (lane, cols, vals, counts)
                cells = rows.base if self._dense is not None else rows[2].base
                windows.append([labels.base, cells, 0])
            windows[-1][2] += 1
            yield labels, rows

    monkeypatch.setattr(Oracle, "gathered", spied)
    return windows


@pytest.mark.parametrize("family", ["svrg", "katyusha"])
@pytest.mark.parametrize("window", [1, 3, 7])
def test_lanes_in_small_windows_match_run_bitwise(monkeypatch, family, window):
    """With the window cap shrunk to 1, 3 and 7 steps of four dense ridge
    lanes, each lane is run()'s trace and state bitwise.  The loops refresh
    on each window's last step (m = window) and on some windows' first (m =
    window + 1), the p = 1 coin on every step; checkpoints fall inside
    windows.  No window gathers more cells than the cap."""
    oracle, ref = ridge_instance(n=20, d=5, kappa=200.0, seed=4)
    cap = window * 2 * 4 * oracle.d  # a step gathers 2 rows a lane
    monkeypatch.setattr(oracle_module, "_WINDOW_CELLS", cap)
    windows = spy_windows(monkeypatch)
    coin, loop = {"svrg": (LSVRG, LoopySVRG), "katyusha": (LKatyusha, LoopyKatyusha)}[family]
    params = {k: v for k, v in coin.theory_params(oracle).items() if k != "p"}

    def make_lanes():
        return [loop(oracle, np.zeros(5), **params, m=window),
                loop(oracle, np.zeros(5), **params, m=window + 1),
                coin(oracle, np.ones(5), **params, p=1.0),
                coin(oracle, np.zeros(5), **params, p=0.3)]

    compare_lanes_with_runs(make_lanes, [0, 1, 2, 3], [distance_metrics(ref.x_star)] * 4,
                            epochs=12.0, checkpoint_every=1.3)
    assert windows and all(cells.size <= cap for _, cells, _ in windows)
    assert max(steps for _, _, steps in windows) == window


@pytest.mark.parametrize("data", ["dense", "csr"])
@pytest.mark.parametrize("loss", ["ridge", "logistic"])
@pytest.mark.parametrize("window", [1, 3, 7])
def test_gathered_rows_give_grad_many_bitwise(monkeypatch, data, loss, window):
    """grad_rows on each step of gathered(samples), with windows of 1, 3 or
    7 steps, is grad_i on that step's samples, bitwise, on dense and CSR
    rows (CSR rows of 0 or 2 entries), and no window gathers more cells
    than the cap."""
    dataset = sparse_logistic_oracle().dataset
    oracle = (make_oracle(dataset, loss, 0.1) if data == "dense"
              else quarter_rule_oracle(dataset, loss, 0.1))
    assert (oracle._dense is not None) == (data == "dense")
    rng = np.random.default_rng(window)
    samples = rng.integers(oracle.n, size=(40, 6))
    points = rng.normal(size=(40, 6, oracle.d))
    cap = window * 6 * (oracle.d if data == "dense" else 2)
    monkeypatch.setattr(oracle_module, "_WINDOW_CELLS", cap)
    windows = spy_windows(monkeypatch)
    got = [oracle.grad_rows(X, labels, rows, np.empty_like(X))
           for X, (labels, rows) in zip(points, oracle.gathered(samples))]
    assert len(got) == len(samples) and all(cells.size <= cap for _, cells, _ in windows)
    for t, (idx, X) in enumerate(zip(samples, points)):
        want = np.stack([oracle.grad_i(i, x) for i, x in zip(idx, X)])
        assert got[t].tobytes() == want.tobytes(), t
    if data == "dense":
        assert {steps for _, _, steps in windows} == {window, 40 % window or window}


# the block length the block-recording tests hold run_lanes to, so that their
# budgets cross blocks
BLOCK = 1024


def record_blocks(monkeypatch) -> dict:
    """{id(optimizer): [(its k at a block's start, the block's steps), ...]},
    filled by every schedule() call: one per lane and block of run_lanes,
    whose blocks it holds to BLOCK steps."""
    monkeypatch.setattr(optimizers, "_BLOCK_STEPS", BLOCK)
    blocks: dict = {}
    for rule in (_Coin, _Loop):
        def recorded(self, rng, steps, schedule=rule.schedule):
            blocks.setdefault(id(self), []).append((self.k, steps))
            return schedule(self, rng, steps)
        monkeypatch.setattr(rule, "schedule", recorded)
    return blocks


DATA_KINDS = ["dense-ridge", "dense-logistic", "csr-ridge", "csr-logistic"]


def batch_oracle(kind, n, seed):
    """An oracle of one data kind (dense or CSR rows, ridge or logistic loss)
    on n rows of a 3-feature ridge instance, and a point to measure distance
    from, that instance's minimizer.  Logistic labels are the ridge targets'
    signs; CSR rows drop about a third of their entries and sit beside 10
    empty columns."""
    data, loss = kind.split("-")
    dataset, x_star = synthesize_quadratic(n, 3, 20.0, seed=seed, mu=1.0)
    labels = np.where(dataset.labels < 0.0, -1.0, 1.0) if loss == "logistic" else dataset.labels
    if data == "dense":
        return make_oracle(Dataset.from_csr(dataset.indptr, dataset.indices, dataset.values,
                                            labels, 3), loss, 1.0), x_star
    A = np.zeros((n, 13))
    A[:, :3] = dense_rows(dataset) * (np.random.default_rng(seed).random((n, 3)) < 0.7)
    nonzero = A != 0.0
    indptr = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
    sparse = Dataset.from_csr(indptr, np.nonzero(nonzero)[1], A[nonzero], labels, 13)
    return quarter_rule_oracle(sparse, loss, 1.0), np.append(x_star, np.zeros(10))


def test_run_lanes_matches_run_on_random_batches(monkeypatch):
    """Seeded random batches of either family and both refresh rules, on
    each data kind, each lane checked against run() as
    compare_lanes_with_runs checks lanes (bitwise), with diverged_at.  The
    batches take intervals below one step's epoch increment (2/n), budgets
    at which a lane ends on a block's last step (at k = BLOCK, the longest
    block, among others), and lanes that diverge mid-block (their f_gap
    turns infinite past a random epoch)."""
    blocks = record_blocks(monkeypatch)
    rng = np.random.default_rng(11)
    seen = set()
    for trial in range(50):
        n = int(rng.integers(1, 31))
        kind = DATA_KINDS[trial // 2 % 4]  # each kind for both families
        oracle, x_star = batch_oracle(kind, n, seed=trial)
        assert (oracle._dense is None) == kind.startswith("csr")
        rules = [{"m": int(rng.integers(1, 2 * n + 2))}, {"m": 1000},
                 {"p": float(rng.uniform(0.01, 1.0))}, {"p": 1.0}]
        rules = [rules[i] for i in rng.choice(4, size=int(rng.integers(1, 5)))]
        if trial % 5 == 0:  # a lane that never refreshes spends its budget in one block
            rules.append({"m": BLOCK + 1})
            epochs = (n + 2 * BLOCK) / n
        else:
            epochs = float(rng.uniform(0.0, 2200 / n))
        every = float(rng.choice([rng.uniform(0.05, 1.0) * 2 / n,
                                  rng.uniform(0.2, 3.0), 1.0]))
        cutoffs = [float(rng.uniform(0.0, epochs)) if rng.random() < 0.25 else np.inf
                   for _ in rules]

        def make_lanes(rules=rules, oracle=oracle, katyusha=trial % 2 == 1):
            if katyusha:
                return [(LoopyKatyusha if "m" in rule else LKatyusha)(
                    oracle, np.ones(oracle.d), theta1=0.3, theta2=0.5, **rule)
                    for rule in rules]
            return [(LoopySVRG if "m" in rule else LSVRG)(
                oracle, np.ones(oracle.d), eta=1.0 / (6.0 * oracle.L), **rule) for rule in rules]

        def metrics(cutoff, distance=distance_metrics(x_star)):
            return lambda o: {**distance(o), "f_gap": np.inf if o.epoch >= cutoff else 0.0}

        seeds = [100 * trial + s for s in range(len(rules))]
        lanes, serials = make_lanes(), make_lanes()
        blocks.clear()  # keyed by id(), which a later trial's lanes may reuse
        traces = run_lanes(lanes, [SplitMix64(s) for s in seeds], epochs=epochs,
                           checkpoint_every=every, metrics=map(metrics, cutoffs))
        for lane, serial, seed, trace, cutoff in zip(lanes, serials, seeds, traces, cutoffs):
            want = run(serial, SplitMix64(seed), epochs=epochs, checkpoint_every=every,
                       metrics=metrics(cutoff))
            assert_same_records(trace, want)
            assert_same_state(lane, serial)
            assert lane.diverged_at == serial.diverged_at
            # the k after the last step of the lane's last block
            block_end = sum(blocks.get(id(lane), [(0, 0)])[-1])
            if lane.diverged_at is not None and lane.diverged_at < block_end:
                seen.add("diverged mid-block")
            if lane.k == block_end and lane.epoch == epochs:
                seen.add("ended at a block's last step")
                if lane.k == BLOCK:
                    seen.add("ended at the longest block's last step")
        if every < 2 / n and any(len(trace) > 2 for trace in traces):
            seen.add("interval below a step")
        assert all(steps <= BLOCK for lane in blocks.values() for _, steps in lane)
    assert seen == {"diverged mid-block", "ended at a block's last step",
                    "ended at the longest block's last step", "interval below a step"}


# The paper's cost model on the lane path: checkpoint (k, oracle_calls) of
# three-lane batches of either family, at a budget inside one block (8
# epochs, 50 steps a lane) and across several (600 epochs, up to 4,000
# steps), and each lane's final squared distance to x*, recorded from
# run_lanes with fixed 512-step blocks.  The checkpoints depend only on the
# seeds and refresh rules, which both families share: the theory preset's
# p = 1/n coin, its m = n loop, and a p = 0.3 coin.
PINNED_LANE_CHECKPOINTS = {
    8.0: [([0, 10, 20, 30, 50], [20, 40, 80, 120, 160]),
          ([0, 10, 20, 40, 50], [20, 40, 80, 140, 160]),
          ([0, 2, 9, 11, 20], [20, 44, 98, 122, 160])],
    600.0: [([0, 660, 1321, 1980, 2544, 3192, 3840],
             [20, 2020, 4002, 6000, 8008, 10004, 12000]),
            ([0, 660, 1330, 2000, 2660, 3330, 4000],
             [20, 2000, 4000, 6020, 8000, 10000, 12020]),
            ([0, 263, 480, 740, 972, 1232, 1482],
             [20, 2006, 4000, 6020, 8004, 10004, 12004])],
}
PINNED_LANE_DIST_SQ = {
    ("svrg", 8.0): [9.810158506799774e-05, 9.805917550770157e-05, 9.828719557048689e-05],
    ("svrg", 600.0): [7.758611221109094e-05, 7.678893984096642e-05, 8.977974270874033e-05],
    ("katyusha", 8.0): [9.584034791442713e-05, 9.556515431481651e-05,
                        9.726360984134758e-05],
    ("katyusha", 600.0): [1.731443606343581e-05, 9.492883810570675e-06,
                          2.2502409663394965e-06],
}


@pytest.mark.parametrize("family", ["svrg", "katyusha"])
@pytest.mark.parametrize("epochs, every", [(8.0, 2.0), (600.0, 100.0)])
def test_lane_trajectory_regression_pin(monkeypatch, family, epochs, every):
    blocks = record_blocks(monkeypatch)
    dataset, x_star = synthesize_quadratic(20, 4, 1e6, seed=3, mu=1.0)
    oracle = make_oracle(dataset, "ridge", 1.0)
    x0 = np.zeros(4)
    if family == "svrg":
        lanes = [cls(oracle, x0, **cls.theory_params(oracle)) for cls in (LSVRG, LoopySVRG)]
        lanes.append(LSVRG(oracle, x0, eta=1.0 / (6.0 * oracle.L), p=0.3))
    else:
        lanes = [cls(oracle, x0, **cls.theory_params(oracle))
                 for cls in (LKatyusha, LoopyKatyusha)]
        lanes.append(LKatyusha(oracle, x0, theta1=0.05, theta2=0.5, p=0.3))
    traces = run_lanes(lanes, [SplitMix64(s) for s in (1, 2, 3)], epochs=epochs,
                       checkpoint_every=every)
    pins = zip(PINNED_LANE_CHECKPOINTS[epochs], PINNED_LANE_DIST_SQ[family, epochs])
    for lane, trace, ((ks, calls), dist_sq) in zip(lanes, traces, pins):
        assert [r["k"] for r in trace] == ks
        assert [r["oracle_calls"] for r in trace] == calls
        delta = lane.tracked_point - x_star
        assert float(delta @ delta) == pytest.approx(dist_sq, rel=1e-12)
    steps = [steps for _, steps in blocks[id(lanes[1])]]
    if epochs == 8.0:  # one block, as long as the budget allows: 2 calls a step
        assert steps == [math.ceil((epochs * oracle.n - oracle.n) / 2)]
    else:
        assert len(steps) > 1 and max(steps) == BLOCK


def test_run_lanes_zero_budget_and_no_lanes():
    oracle = ridge_oracle(10)
    opt = LSVRG(oracle, np.zeros(oracle.d), eta=0.01, p=0.1)
    (trace,) = run_lanes([opt], [SplitMix64(0)], epochs=0.0)
    assert [(r["k"], r["oracle_calls"]) for r in trace] == [(0, 10)]
    assert run_lanes([], [], epochs=3.0) == []


def test_run_lanes_rejects_other_families_and_oracles():
    oracle, other = ridge_oracle(10), ridge_oracle(10, seed=1)
    lsvrg = LSVRG(oracle, np.zeros(3), eta=0.01, p=0.1)
    with pytest.raises(ValueError, match="SVRG-family"):
        katyusha = LKatyusha(oracle, np.zeros(3), **LKatyusha.theory_params(oracle))
        run_lanes([lsvrg, katyusha], [SplitMix64(0)] * 2, epochs=2.0)
    with pytest.raises(ValueError, match="one family"):
        run_lanes([lsvrg, GradientDescent(oracle, np.zeros(3), step_size=0.1)],
                  [SplitMix64(0)] * 2, epochs=2.0)
    with pytest.raises(ValueError, match="one oracle"):
        run_lanes([lsvrg, LSVRG(other, np.zeros(3), eta=0.01, p=0.1)],
                  [SplitMix64(0)] * 2, epochs=2.0)
    with pytest.raises(ValueError):
        run_lanes([lsvrg], [SplitMix64(0)], epochs=-1.0)
    lanes = [LSVRG(oracle, np.zeros(3), eta=0.01, p=p) for p in (0.1, 0.2, 0.3)]
    rngs = [SplitMix64(s) for s in range(4)]
    for bad_rngs, metrics in ((rngs[:2], None), (rngs, None), (rngs[:3], [None] * 2)):
        with pytest.raises(ValueError, match="one rng and one metrics entry each"):
            run_lanes(lanes, bad_rngs, epochs=2.0, metrics=metrics)
    with pytest.raises(ValueError, match="its own rng"):
        run_lanes(lanes, [rngs[0], rngs[1], rngs[0]], epochs=2.0)
    assert all(opt.k == 0 for opt in lanes)  # nothing was stepped


def test_run_lanes_refreshes_a_lane_only_within_its_budget(monkeypatch):
    """Every lane's budget ends inside the one block, where the lanes with
    the larger p stop first; the stack steps them on to the block's end, but
    refreshes none of them past its budget's last step."""
    oracle = ridge_oracle(10)
    lanes = [LSVRG(oracle, np.zeros(3), eta=0.05, p=p) for p in (0.3, 0.6, 0.9)]
    epochs = 30.0
    full_grad, full_grads = oracle.full_grad, []

    def counted(x):
        full_grads.append(x)
        return full_grad(x)

    monkeypatch.setattr(oracle, "full_grad", counted)
    run_lanes(lanes, [SplitMix64(s) for s in (1, 2, 3)], epochs=epochs)
    block = math.ceil((epochs * oracle.n - oracle.n) / 2)  # as _block_steps sizes it
    assert all(opt.k < block for opt in lanes) and len({opt.k for opt in lanes}) == 3
    refreshes = [(opt.oracle_calls - oracle.n - 2 * opt.k) / oracle.n for opt in lanes]
    assert all(r > 0 for r in refreshes)
    assert len(full_grads) == sum(refreshes)


def _check_record(s, opt):
    """What a check sees of lane s: its counters and its state's bytes."""
    return (s, opt.k, opt.oracle_calls, opt.x.tobytes(), opt.w.tobytes(),
            opt.grad_w.tobytes())


def test_walk_lanes_matches_a_serial_step_loop_at_every_check():
    """conftest.walk_lanes, criterion 6's stepper, against the serial_step
    loop it replaces: at every check, each lane's written-back state and
    counters are the loop's at the same k, and a lane leaves at its stop
    while the narrower stack goes on in the next block."""
    oracle, _ = ridge_instance(n=10, d=4, kappa=25.0, seed=2)
    assert oracle._dense is not None
    eta = 1.0 / (6.0 * oracle.L)

    def make_lanes():  # refreshes inside blocks and across their ends
        return [LSVRG(oracle, np.zeros(4), eta=eta, p=0.15),
                LoopySVRG(oracle, np.zeros(4), eta=eta, m=7),
                LSVRG(oracle, np.ones(4), eta=eta, p=0.4),
                LoopySVRG(oracle, np.ones(4), eta=eta, m=3)]

    seeds, stops = [3, 4, 5, 6], [45, None, 110, 20]  # each lane's last k, or the cap
    every, block, cap = 5, 50, 150  # three blocks
    lanes, seen = make_lanes(), []
    lane_of = {id(opt): s for s, opt in enumerate(lanes)}

    def stop(opt):
        s = lane_of[id(opt)]
        seen.append(_check_record(s, opt))
        return opt.k == stops[s]

    epochs = walk_lanes(lanes, [SplitMix64(seed) for seed in seeds], stop, cap,
                        every=every, block=block)
    want, want_epochs = [], []
    for s, (opt, seed) in enumerate(zip(make_lanes(), seeds)):
        rng, epoch = SplitMix64(seed), math.inf
        for steps in range(1, cap + 1):
            serial_step(opt, rng)
            if steps % every == 0:
                want.append(_check_record(s, opt))
                if opt.k == stops[s]:
                    epoch = opt.epoch
                    break
        want_epochs.append(epoch)
    assert sorted(seen) == sorted(want)
    assert epochs == want_epochs
    assert [epoch == math.inf for epoch in epochs] == [False, True, False, False]
    # every lane refreshed at least twice before it stopped
    assert all(len({rec[4] for rec in seen if rec[0] == s}) > 2 for s in range(4))


# ---------------------------------------------------------- divergence guard


def test_run_stops_at_the_first_non_finite_checkpoint():
    oracle, ref = ridge_instance(n=20, d=5, kappa=200.0, seed=4)
    opt = LSVRG(oracle, np.ones(5), eta=10.0, p=0.05)
    metrics = distance_metrics(ref.x_star)
    records = run(opt, SplitMix64(0), epochs=40.0, metrics=metrics)
    # it stopped where the point or its distance first overflowed
    assert opt.diverged_at == opt.k
    with np.errstate(over="ignore"):
        assert not np.isfinite([*opt.x, metrics(opt)["dist_sq"]]).all()
    # every kept row is a finite checkpoint before the one that stopped it
    assert records and records[-1]["k"] < opt.k
    assert all(np.isfinite(r["dist_sq"]) for r in records)
    assert records[-1]["epoch"] < 40.0
    finite = LSVRG(oracle, np.ones(5), eta=10.0, p=0.05)
    again = run(finite, SplitMix64(0), epochs=records[-1]["epoch"])
    assert [r["k"] for r in again] == [r["k"] for r in records]


def test_run_lanes_drops_a_diverged_lane_and_keeps_the_others(monkeypatch):
    """Two batches of a lane that diverges and one that spends its budget:
    the first lane's step size blows its iterate up, or its f_gap turns
    infinite at epoch 7, in a block that still plans its later checkpoints
    (up to epoch 40), which the block must skip."""
    oracle, ref = ridge_instance(n=20, d=5, kappa=200.0, seed=4)
    eta = 1.0 / (6.0 * oracle.L)
    distance = distance_metrics(ref.x_star)
    plans = []  # (optimizer, its k, the checkpoint steps planned) of each _plan call

    def plan(opt, *args, _plan=optimizers._plan):
        calls, checkpoints, mark = _plan(opt, *args)
        plans.append((opt, opt.k, checkpoints))
        return calls, checkpoints, mark

    monkeypatch.setattr(optimizers, "_plan", plan)
    cases = [(lambda: LSVRG(oracle, np.ones(5), eta=10.0, p=0.05), distance),
             (lambda: LSVRG(oracle, np.zeros(5), eta=eta, p=0.05),
              lambda o: {**distance(o), "f_gap": np.inf if o.epoch >= 7.0 else 0.0})]
    for make_diverging, metrics in cases:
        made = []

        def make_lanes():
            made.append([make_diverging(), LoopySVRG(oracle, np.zeros(5), eta=eta, m=20)])
            return made[-1]

        with np.errstate(over="ignore", invalid="ignore"):
            diverged, finished = compare_lanes_with_runs(
                make_lanes, [0, 1], [metrics, distance], epochs=40.0, checkpoint_every=1.0)
        assert diverged[-1]["epoch"] < 40.0 <= finished[-1]["epoch"]
    lane = made[0][0]  # the last batch's diverging lane in run_lanes, made first
    k, checkpoints = [(k, steps) for opt, k, steps in plans if opt is lane][-1]
    assert k + checkpoints[-1] + 1 > lane.diverged_at


@pytest.mark.parametrize("family, diverged_at", [("svrg", 480), ("katyusha", 277)])
def test_a_stopped_lane_steps_on_to_the_block_end_without_overflowing(
        monkeypatch, family, diverged_at):
    """A lane that diverges is stepped on with the others to the block's
    end, at zero and with no refresh left, so its rows stay finite.  In
    each family one lane diverges beside two stable ones: L-SVRG at
    eta = 5/L, whose f turns infinite at k = 480, or L-Katyusha built for
    L/30, whose steps are 30 times too long and whose f turns infinite at
    k = 277.  run() stops it there quietly, and run_lanes stops it there
    too, with no numpy warning (turned into an error here), while every
    lane is run()'s, bitwise, and refreshes as often."""
    dataset, _ = synthesize_quadratic(50, 5, 100, seed=1, mu=1.0)
    oracle = make_oracle(dataset, "ridge", 1.0)
    eta = 1.0 / (6.0 * oracle.L)

    def make_lanes():
        if family == "svrg":
            return [LSVRG(oracle, np.ones(5), eta=5.0 / oracle.L, p=0.02),
                    LSVRG(oracle, np.ones(5), eta=eta, p=0.02),
                    LoopySVRG(oracle, np.ones(5), eta=eta, m=50)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "L", oracle.L / 30.0)
            diverging = LKatyusha(oracle, np.ones(5), theta1=0.3, theta2=0.5, p=0.02)
        return [diverging, LKatyusha(oracle, np.ones(5), theta1=0.3, theta2=0.5, p=0.02),
                LoopyKatyusha(oracle, np.ones(5), theta1=0.3, theta2=0.5, m=50)]

    def metrics(o):
        return {"f": oracle.full_loss(o.tracked_point)}

    lanes, serials = make_lanes(), make_lanes()
    refreshes = []  # the full_grad calls of each driver's refreshes

    def full_grad(x, full_grad=oracle.full_grad):
        refreshes[-1] += 1
        return full_grad(x)

    monkeypatch.setattr(oracle, "full_grad", full_grad)
    refreshes.append(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traces = run_lanes(lanes, [SplitMix64(s) for s in range(3)], epochs=60.0,
                           checkpoint_every=0.04, metrics=[metrics] * 3)
    refreshes.append(0)
    for s, (lane, serial, trace) in enumerate(zip(lanes, serials, traces)):
        want = run(serial, SplitMix64(s), epochs=60.0, checkpoint_every=0.04,
                   metrics=metrics)
        assert_same_records(trace, want)
        assert_same_state(lane, serial)
        assert lane.diverged_at == serial.diverged_at
    assert [lane.diverged_at for lane in lanes] == [diverged_at, None, None]
    assert refreshes[0] == refreshes[1] > 0


# ------------------------------------------------------------------ wall_ns


class FakeClock:
    """time.perf_counter_ns stand-in: each reading advances it by 1 ns."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now

    def advance(self, ns):
        self.now += ns


def test_run_wall_ns_is_optimizer_time_without_metrics(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(time, "perf_counter_ns", clock)
    oracle = ridge_oracle(10)
    opt = LSVRG(oracle, np.zeros(oracle.d), eta=0.01, p=0.2)
    step = opt.step

    def timed_step(*draw):  # every step takes 100 ns
        clock.advance(100)
        step(*draw)

    opt.step = timed_step
    records = run(opt, SplitMix64(3), epochs=6.0,
                  metrics=lambda o: clock.advance(10**6) or {})
    # 100 ns a step plus one clock reading per record; no metrics time
    assert [r["wall_ns"] for r in records] == [100 * r["k"] + i + 1
                                            for i, r in enumerate(records)]


def test_run_lanes_wall_ns_leaves_out_metrics(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(time, "perf_counter_ns", clock)
    oracle = ridge_oracle(10)
    lanes = [LSVRG(oracle, np.zeros(oracle.d), eta=0.01, p=0.2),
             LoopySVRG(oracle, np.zeros(oracle.d), eta=0.01, m=4)]
    traces = run_lanes(lanes, [SplitMix64(3), SplitMix64(4)], epochs=6.0,
                       metrics=[lambda o: clock.advance(10**6) or {}] * 2)
    # the batch's clock, read once per record of any lane: 1, 2, 3, ...
    stamps = sorted(r["wall_ns"] for trace in traces for r in trace)
    assert stamps == list(range(1, len(stamps) + 1))


def test_run_lanes_wall_ns_leaves_out_a_diverged_lanes_metrics(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(time, "perf_counter_ns", clock)
    oracle = ridge_oracle(10)
    lanes = [LSVRG(oracle, np.zeros(oracle.d), eta=0.01, p=0.2),
             LSVRG(oracle, np.zeros(oracle.d), eta=0.01, p=0.5)]

    def diverging(o):  # slow metrics whose f_gap turns infinite at epoch 3
        clock.advance(10**6)
        return {"f_gap": np.inf} if o.epoch >= 3.0 else {}

    traces = run_lanes(lanes, [SplitMix64(3), SplitMix64(4)], epochs=6.0,
                       metrics=[lambda o: clock.advance(10**6) or {}, diverging])
    assert lanes[1].diverged_at is not None and lanes[0].diverged_at is None
    assert traces[0][-1]["epoch"] >= 6.0 > traces[1][-1]["epoch"]
    # one clock reading per record of any lane, the diverged one's included
    stamps = sorted(r["wall_ns"] for trace in traces for r in trace)
    assert stamps[-1] == len(stamps) + 1
