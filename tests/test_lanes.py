"""Lane-batched runs (run_lanes) and refresh schedules against the scalar
step() path they replace, plus the checkpoint clock and divergence guard
that run() and run_lanes share."""

import copy
import time

import numpy as np
import pytest

from loopless.data import Dataset, SparseRow, synthesize_quadratic
from loopless.harness import RunConfig, build_metrics
from loopless.oracle import make_oracle
from loopless.optimizers import (GradientDescent, LKatyusha, LoopyKatyusha, LoopySVRG,
                                 LSVRG, run, run_lanes)
from loopless.rng import SplitMix64

from conftest import ridge_instance


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
    ],
)
def test_schedule_matches_serial_draws(cls, n, param):
    oracle = ridge_oracle(n)
    scheduled = cls(oracle, np.zeros(oracle.d), 0.01, param)
    serial = copy.copy(scheduled)
    rng_block, rng_serial = SplitMix64(77), SplitMix64(77)
    for steps in (0, 1, 37, 600):
        indices, refresh = scheduled.schedule(rng_block, steps)
        scheduled.k += steps
        want_idx, want_refresh = [], []
        for _ in range(steps):  # the draws of step(), in its order
            want_idx.append(rng_serial.randbelow(n))
            want_refresh.append(serial._refresh_due(rng_serial))
            serial.k += 1
        assert indices.tolist() == want_idx
        assert refresh.dtype == bool and refresh.tolist() == want_refresh
        assert rng_block._state == rng_serial._state


# ---------------------------------------------------------------- run_lanes


def sparse_logistic_oracle(n=24, d=15, seed=3):
    """CSR storage (density below 0.25), every fifth row empty."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        idx = [] if i % 5 == 2 else np.sort(rng.choice(d, size=2, replace=False))
        rows.append(SparseRow(np.asarray(idx, dtype=np.int64), rng.normal(size=len(idx))))
    oracle = make_oracle(Dataset(rows, rng.choice([-1.0, 1.0], size=n), d), "logistic", 0.1)
    assert oracle._dense is None
    return oracle


def distance_metrics(x_star):
    def metrics(opt):
        delta = opt.tracked_point - x_star
        return {"dist_sq": float(delta @ delta)}

    return metrics


def assert_same_records(lane, serial):
    assert [(r["k"], r["oracle_calls"], r["epoch"]) for r in lane] == [
        (r["k"], r["oracle_calls"], r["epoch"]) for r in serial
    ]
    for a, b in zip(lane, serial):
        # the metrics columns (dist_sq, f_gap, potential, slack_*) to rounding
        assert a.keys() == b.keys()
        for name in b.keys() - {"k", "oracle_calls", "epoch", "wall_ns"}:
            assert a[name] == pytest.approx(b[name], rel=1e-12, abs=1e-12)


def assert_same_state(lane, serial):
    assert (lane.k, lane.oracle_calls, lane.epoch) == (
        serial.k, serial.oracle_calls, serial.epoch)
    for name in serial.lane_state:
        np.testing.assert_allclose(getattr(lane, name), getattr(serial, name),
                                   rtol=1e-12, atol=1e-15)


def compare_lanes_with_runs(make_lanes, seeds, metrics, **budget):
    """run_lanes on one set of fresh optimizers, run() on another, lane by lane."""
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


@pytest.mark.parametrize("level", ["lyapunov", "lemmas"])
def test_run_lanes_matches_run_with_lsvrg_diagnostics(level):
    oracle, ref = ridge_instance(n=10, d=4, kappa=25.0, seed=2)
    config = RunConfig(algorithm="l-svrg", synthetic=(10, 4, 25.0), loss="ridge",
                       mu=1.0, diagnostics=level)

    def make_lanes():
        return [LSVRG.theory(oracle, np.zeros(4)),
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
            LKatyusha.theory(oracle, np.zeros(5)),
            LoopyKatyusha(oracle, np.zeros(5), theta1=theta1, theta2=0.5, m=20),
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
        return [LKatyusha.theory(oracle, np.zeros(4)),
                LKatyusha(oracle, np.zeros(4), theta1=0.2, theta2=0.4, p=0.5)]

    traces = compare_lanes_with_runs(make_lanes, [8, 9],
                                     [build_metrics(config, oracle, ref)] * 2,
                                     epochs=12.0, checkpoint_every=2.0)
    assert all(rec["psi"] is not None for trace in traces for rec in trace)


def test_run_lanes_matches_run_on_random_batches():
    """Seeded random batches of either family and both refresh rules, each
    lane checked against run() as compare_lanes_with_runs checks it, with
    diverged_at.  The batches take intervals below one step's epoch increment
    (2/n), budgets at which a lane ends at k = 512, the first block's last
    step, and lanes that diverge mid-block (their f_gap turns infinite past
    a random epoch: a real overflow would amplify the last-bit differences
    between the paths past the 1e-12 the floats are checked to)."""
    rng = np.random.default_rng(11)
    seen = set()
    for trial in range(50):
        n = int(rng.integers(1, 31))
        oracle, ref = ridge_instance(n=n, d=3, kappa=20.0, seed=trial)
        rules = [{"m": int(rng.integers(1, 2 * n + 2))}, {"m": 1000},
                 {"p": float(rng.uniform(0.01, 1.0))}, {"p": 1.0}]
        rules = [rules[i] for i in rng.choice(4, size=int(rng.integers(1, 5)))]
        if trial % 5 == 0:  # m = 1000 never refreshes in 512 steps of 2 calls
            rules.append({"m": 1000})
            epochs = (n + 2 * 512) / n
        else:
            epochs = float(rng.uniform(0.0, 2200 / n))
        every = float(rng.choice([rng.uniform(0.05, 1.0) * 2 / n,
                                  rng.uniform(0.2, 3.0), 1.0]))
        cutoffs = [float(rng.uniform(0.0, epochs)) if rng.random() < 0.25 else np.inf
                   for _ in rules]

        def make_lanes(rules=rules, oracle=oracle, katyusha=trial % 2 == 1):
            if katyusha:
                return [(LoopyKatyusha if "m" in rule else LKatyusha)(
                    oracle, np.ones(3), theta1=0.3, theta2=0.5, **rule) for rule in rules]
            return [(LoopySVRG if "m" in rule else LSVRG)(
                oracle, np.ones(3), eta=1.0 / (6.0 * oracle.L), **rule) for rule in rules]

        def metrics(cutoff, distance=distance_metrics(ref.x_star)):
            return lambda o: {**distance(o), "f_gap": np.inf if o.epoch >= cutoff else 0.0}

        seeds = [100 * trial + s for s in range(len(rules))]
        lanes, serials = make_lanes(), make_lanes()
        traces = run_lanes(lanes, [SplitMix64(s) for s in seeds], epochs=epochs,
                           checkpoint_every=every, metrics=map(metrics, cutoffs))
        for lane, serial, seed, trace, cutoff in zip(lanes, serials, seeds, traces, cutoffs):
            want = run(serial, SplitMix64(seed), epochs=epochs, checkpoint_every=every,
                       metrics=metrics(cutoff))
            assert_same_records(trace, want)
            assert_same_state(lane, serial)
            assert lane.diverged_at == serial.diverged_at
            if lane.diverged_at is not None and lane.diverged_at % 512:
                seen.add("diverged mid-block")
            if lane.k == 512 and lane.epoch == epochs:
                seen.add("ended at a block's last step")
        if every < 2 / n and any(len(trace) > 2 for trace in traces):
            seen.add("interval below a step")
    assert seen == {"diverged mid-block", "ended at a block's last step",
                    "interval below a step"}


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
        run_lanes([lsvrg, LKatyusha.theory(oracle, np.zeros(3))],
                  [SplitMix64(0)] * 2, epochs=2.0)
    with pytest.raises(ValueError, match="one family"):
        run_lanes([lsvrg, GradientDescent(oracle, np.zeros(3), step_size=0.1)],
                  [SplitMix64(0)] * 2, epochs=2.0)
    with pytest.raises(ValueError, match="one oracle"):
        run_lanes([lsvrg, LSVRG(other, np.zeros(3), eta=0.01, p=0.1)],
                  [SplitMix64(0)] * 2, epochs=2.0)
    with pytest.raises(ValueError):
        run_lanes([lsvrg], [SplitMix64(0)], epochs=-1.0)


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


def test_run_lanes_drops_a_diverged_lane_and_keeps_the_others():
    oracle, ref = ridge_instance(n=20, d=5, kappa=200.0, seed=4)
    eta = 1.0 / (6.0 * oracle.L)

    def make_lanes():
        return [LSVRG(oracle, np.ones(5), eta=10.0, p=0.05),
                LoopySVRG(oracle, np.zeros(5), eta=eta, m=20)]

    with np.errstate(over="ignore", invalid="ignore"):
        diverged, finished = compare_lanes_with_runs(
            make_lanes, [0, 1], [distance_metrics(ref.x_star)] * 2,
            epochs=40.0, checkpoint_every=1.0)
    assert diverged[-1]["epoch"] < 40.0 <= finished[-1]["epoch"]


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

    def timed_step(rng):  # every step takes 100 ns
        clock.advance(100)
        step(rng)

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
