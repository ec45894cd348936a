import math

import numpy as np
import pytest

from loopless.data import Dataset, parse_libsvm, synthesize_quadratic
from loopless.oracle import make_oracle
from loopless.optimizers import (
    ALGORITHMS,
    GradientDescent,
    LKatyusha,
    LoopyKatyusha,
    LoopySVRG,
    LSVRG,
    _advance_mark,
    _BLOCK_STEPS,
    _first_mark,
    _Recorder,
    _STRETCH_CELLS,
    run,
)
from loopless.rng import SplitMix64

from conftest import quarter_rule_oracle, ridge_instance, serial_step, sparse_logistic_oracle


@pytest.fixture
def ridge10():
    oracle, ref = ridge_instance(n=10, d=4, kappa=25.0, seed=2)
    return oracle, ref.x_star


def test_lsvrg_init_state(ridge10):
    oracle, _ = ridge10
    x0 = np.arange(4, dtype=float)
    opt = LSVRG(oracle, x0, eta=0.01, p=0.2)
    assert np.array_equal(opt.x, x0) and np.array_equal(opt.w, x0)
    assert np.array_equal(opt.grad_w, oracle.full_grad(x0))
    assert opt.oracle_calls == oracle.n and opt.k == 0
    assert opt.epoch == 1.0


def test_lsvrg_rejects_bad_parameters(ridge10):
    oracle, _ = ridge10
    x0 = np.zeros(4)
    for bad_p in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            LSVRG(oracle, x0, eta=0.01, p=bad_p)
    with pytest.raises(ValueError):
        LSVRG(oracle, x0, eta=0.0, p=0.5)


def test_lsvrg_theory_preset(ridge10):
    oracle, _ = ridge10
    opt = LSVRG(oracle, np.zeros(4), **LSVRG.theory_params(oracle))
    assert opt.eta == 1.0 / (6.0 * oracle.L)
    assert opt.p == 1.0 / oracle.n


def test_lkatyusha_theory_preset_arithmetic():
    # n=2 with sigma = mu/L = 3/4: theta1 = min(sqrt(2*(3/4)*2/3), 1/2) = 1/2
    # and eta = (1/2) / ((3/2)(1/2)) = 2/3
    ds = parse_libsvm("+1 1:1\n-1 1:-1")
    oracle = make_oracle(ds, "ridge", 3.0)  # L = 1 + 3, mu = 3 -> sigma = 3/4
    assert oracle.mu / oracle.L == pytest.approx(0.75)
    params = LKatyusha.theory_params(oracle)
    assert params["theta1"] == pytest.approx(0.5)
    assert params["theta2"] == 0.5
    assert params["p"] == 0.5
    opt = LKatyusha(oracle, np.zeros(1), **params)
    assert opt.eta == pytest.approx(2.0 / 3.0)
    assert opt.sigma == oracle.mu / oracle.L


def test_lkatyusha_eta_formula_exact(ridge10):
    oracle, _ = ridge10
    opt = LKatyusha(oracle, np.zeros(4), theta1=0.3, theta2=0.6, p=0.1)
    assert opt.eta == 0.6 / ((1.0 + 0.6) * 0.3)


def test_lkatyusha_rejects_bad_parameters(ridge10):
    oracle, _ = ridge10
    x0 = np.zeros(4)
    with pytest.raises(ValueError, match="theta1 \\+ theta2"):
        LKatyusha(oracle, x0, theta1=0.7, theta2=0.5, p=0.5)
    with pytest.raises(ValueError):
        LKatyusha(oracle, x0, theta1=0.0, theta2=0.5, p=0.5)
    with pytest.raises(ValueError):
        LKatyusha(oracle, x0, theta1=1.0, theta2=0.0, p=0.5)
    with pytest.raises(ValueError):
        LKatyusha(oracle, x0, theta1=0.4, theta2=0.5, p=0.0)


def test_lsvrg_single_sample_equals_gd_bitwise():
    oracle = make_oracle(parse_libsvm("+1 1:2 2:-1 3:0.5"), "logistic", 0.5)
    x0 = np.array([0.3, -1.2, 2.0])
    eta = 1.0 / (6.0 * oracle.L)
    lsvrg = LSVRG(oracle, x0, eta=eta, p=0.37)
    gd = GradientDescent(oracle, x0, step_size=eta)
    rng = SplitMix64(1)
    for _ in range(1000):
        serial_step(lsvrg, rng)
        gd.step()
        assert np.array_equal(lsvrg.x, gd.x)


def test_lkatyusha_single_sample_uses_exact_gradients():
    oracle = make_oracle(parse_libsvm("+1 1:2 2:-1"), "ridge", 0.5)
    x0 = np.array([1.0, -2.0])
    opt = LKatyusha(oracle, x0, theta1=0.4, theta2=0.5, p=0.3)
    rng = SplitMix64(3)
    # replay the recursion with the full gradient in place of the estimator
    y, z, w = x0.copy(), x0.copy(), x0.copy()
    grad_w = oracle.full_grad(w)
    shadow = SplitMix64(3)
    for _ in range(200):
        serial_step(opt, rng)
        x = 0.4 * z + 0.5 * w + (1.0 - 0.4 - 0.5) * y
        shadow.randbelow(oracle.n)
        g = oracle.full_grad(x)
        es = opt.eta * opt.sigma
        z_next = (es * x + z - (opt.eta / oracle.L) * g) / (1.0 + es)
        y_next = x + 0.4 * (z_next - z)
        if shadow.bernoulli(0.3):
            w = y
            grad_w = oracle.full_grad(w)
        z, y = z_next, y_next
        assert np.array_equal(opt.y, y) and np.array_equal(opt.z, z)


def test_fixed_point_at_minimizer(ridge10):
    oracle, x_star = ridge10
    eta = 1.0 / (6.0 * oracle.L)
    optimizers = [
        LSVRG(oracle, x_star, eta=eta, p=0.2),
        LKatyusha(oracle, x_star, theta1=0.4, theta2=0.5, p=0.2),
        LoopySVRG(oracle, x_star, eta=eta, m=7),
        LoopyKatyusha(oracle, x_star, theta1=0.4, theta2=0.5, m=7),
        GradientDescent(oracle, x_star, step_size=eta),
    ]
    rng = SplitMix64(5)
    for opt in optimizers:
        for _ in range(500):
            serial_step(opt, rng)
        assert np.linalg.norm(opt.tracked_point - x_star, np.inf) < 1e-14 * 500


def test_estimator_is_unbiased_along_trajectory(ridge10):
    oracle, _ = ridge10
    opt = LSVRG(oracle, np.ones(4), **LSVRG.theory_params(oracle))
    rng = SplitMix64(17)
    for _ in range(50):
        serial_step(opt, rng)
    mean_g = np.zeros(4)
    for i in range(oracle.n):
        mean_g += oracle.grad_i(i, opt.x) - (oracle.grad_i(i, opt.w) - opt.grad_w)
    mean_g /= oracle.n
    full = oracle.full_grad(opt.x)
    assert np.linalg.norm(mean_g - full) <= 1e-12 * np.linalg.norm(full)


def test_grad_w_cache_matches_fresh_full_grad(ridge10):
    oracle, _ = ridge10
    opt = LSVRG(oracle, np.ones(4), eta=0.01, p=0.5)
    rng = SplitMix64(23)
    for _ in range(200):
        serial_step(opt, rng)
        assert np.array_equal(opt.grad_w, oracle.full_grad(opt.w))


def test_loopy_m1_matches_loopless_p1(ridge10):
    oracle, _ = ridge10
    x0 = np.ones(4)
    eta = 1.0 / (6.0 * oracle.L)
    loopy = LoopySVRG(oracle, x0, eta=eta, m=1)
    loopless = LSVRG(oracle, x0, eta=eta, p=1.0)
    r1, r2 = SplitMix64(9), SplitMix64(9)
    for _ in range(300):
        serial_step(loopy, r1)
        serial_step(loopless, r2)
        assert np.array_equal(loopy.x, loopless.x)
        assert np.array_equal(loopy.w, loopless.w)
    assert loopy.oracle_calls == loopless.oracle_calls


def test_loopy_theory_preset_matches_inverse_probability(ridge10):
    oracle, _ = ridge10
    params = LoopySVRG.theory_params(oracle)
    assert params["m"] == oracle.n == math.ceil(1.0 / LSVRG.theory_params(oracle)["p"])


def test_loopy_oracle_call_pattern(ridge10):
    oracle, _ = ridge10
    m = 7
    opt = LoopySVRG(oracle, np.zeros(4), eta=0.01, m=m)
    rng = SplitMix64(2)
    start = opt.oracle_calls
    for _ in range(m):
        serial_step(opt, rng)
    assert opt.oracle_calls - start == 2 * m + oracle.n
    # next loop: same pattern again
    for _ in range(m):
        serial_step(opt, rng)
    assert opt.oracle_calls - start == 2 * (2 * m + oracle.n)


def test_loopy_rejects_bad_m(ridge10):
    oracle, _ = ridge10
    with pytest.raises(ValueError):
        LoopySVRG(oracle, np.zeros(4), eta=0.01, m=0)
    with pytest.raises(ValueError):
        LoopyKatyusha(oracle, np.zeros(4), theta1=0.4, theta2=0.5, m=0)


def test_expected_oracle_calls_per_step(ridge10):
    oracle, _ = ridge10
    p = 0.3
    opt = LSVRG(oracle, np.zeros(4), eta=0.01, p=p)
    rng = SplitMix64(11)
    start = opt.oracle_calls
    steps = 100_000
    for _ in range(steps):
        serial_step(opt, rng)
    per_step = (opt.oracle_calls - start) / steps
    expected = 2.0 + p * oracle.n
    assert abs(per_step - expected) <= 0.05 * expected


def gd_step(x, oracle, step):
    """One GradientDescent step from x."""
    opt = GradientDescent(oracle, x, step_size=step)
    opt.step()
    return opt.x


def test_gd_step_closed_form_scalar():
    # 1-d ridge: f'(x) = (a^2 + mu) x - a b
    oracle = make_oracle(parse_libsvm("+1 1:2"), "ridge", 0.5)
    a, b, mu, step = 2.0, 1.0, 0.5, 0.1
    x = np.array([3.0])
    stepped = gd_step(x, oracle, step)
    expected = x - step * ((a * a + mu) * x - a * b)
    assert stepped == pytest.approx(expected, rel=1e-15)


def test_gd_fixed_point_and_descent(ridge10):
    oracle, x_star = ridge10
    assert np.allclose(gd_step(x_star, oracle, 1.0 / oracle.L), x_star, atol=1e-14)
    opt = GradientDescent(oracle, np.ones(4) * 3.0, step_size=1.0 / oracle.L)
    prev = oracle.full_loss(opt.x)
    for _ in range(100):
        opt.step()
        cur = oracle.full_loss(opt.x)
        assert cur <= prev + 1e-15
        prev = cur


def test_gd_step_requires_positive_step(ridge10):
    oracle, _ = ridge10
    for step in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step_size must be positive"):
            GradientDescent(oracle, np.zeros(4), step_size=step)


def test_run_zero_budget_returns_initial_record(ridge10):
    oracle, _ = ridge10
    opt = LSVRG(oracle, np.zeros(4), eta=0.01, p=0.1)
    records = run(opt, SplitMix64(0), epochs=0.0)
    assert len(records) == 1
    assert records[0]["k"] == 0 and records[0]["epoch"] == 1.0


def test_run_rejects_negative_budget_and_bad_stride(ridge10):
    oracle, _ = ridge10
    opt = LSVRG(oracle, np.zeros(4), eta=0.01, p=0.1)
    with pytest.raises(ValueError):
        run(opt, SplitMix64(0), epochs=-1.0)
    with pytest.raises(ValueError):
        run(opt, SplitMix64(0), epochs=1.0, checkpoint_every=0.0)


def test_run_checkpoints_cover_budget(ridge10):
    oracle, _ = ridge10
    opt = LSVRG(oracle, np.zeros(4), **LSVRG.theory_params(oracle))
    records = run(opt, SplitMix64(4), epochs=6.0, checkpoint_every=1.0)
    epochs = [r["epoch"] for r in records]
    assert epochs[0] == 1.0
    assert epochs == sorted(epochs)
    assert epochs[-1] >= 6.0
    ks = [r["k"] for r in records]
    assert ks == sorted(ks)


def test_run_is_deterministic(ridge10):
    oracle, x_star = ridge10

    def once():
        opt = LSVRG(oracle, np.zeros(4), **LSVRG.theory_params(oracle))
        recs = run(opt, SplitMix64(21), epochs=10.0)
        return [(r["k"], r["oracle_calls"], r["epoch"]) for r in recs], opt.x

    (trace_a, xa), (trace_b, xb) = once(), once()
    assert trace_a == trace_b
    assert np.array_equal(xa, xb)


def test_run_metrics_and_hook(ridge10):
    oracle, x_star = ridge10
    opt = LSVRG(oracle, np.zeros(4), eta=0.01, p=0.1)
    seen = []

    def metrics(o):
        seen.append(o.k)
        return {"dist_sq": float((o.x - x_star) @ (o.x - x_star))}

    records = run(opt, SplitMix64(1), epochs=3.0, metrics=metrics)
    assert all(r["dist_sq"] is not None for r in records)
    assert len(seen) == len(records)


def serial_run(opt, rng, *, epochs, checkpoint_every=1.0, metrics=None):
    """run() as a loop of serial_step, the scalar path its block draws and
    per-stretch corrections replace."""
    recorder = _Recorder()
    records = []
    if (rec := recorder.record(opt, metrics)) is None:
        return records
    records.append(rec)
    epoch = opt.epoch
    mark = _first_mark(epoch, checkpoint_every)
    while epoch < epochs:
        serial_step(opt, rng)
        epoch = opt.epoch
        if epoch >= mark or epoch >= epochs:
            if (rec := recorder.record(opt, metrics)) is None:
                break
            records.append(rec)
            mark = _advance_mark(mark, epoch, checkpoint_every)
    return records


def assert_run_is_serial_run(make, seed, **budget):
    """run() and serial_run on two optimizers from make() give the same
    records but wall_ns, bitwise, and leave the same state."""
    opt, ref = make(), make()
    got = run(opt, SplitMix64(seed), **budget)
    want = serial_run(ref, SplitMix64(seed), **budget)
    strip = [{k: v for k, v in r.items() if k != "wall_ns"} for r in got]
    assert strip == [{k: v for k, v in r.items() if k != "wall_ns"} for r in want]
    assert (opt.k, opt.oracle_calls, opt.diverged_at) == (ref.k, ref.oracle_calls,
                                                        ref.diverged_at)
    for name in getattr(opt, "lane_state", ("x",)):
        assert getattr(opt, name).tobytes() == getattr(ref, name).tobytes(), name
    return got, opt


def norm_sq(opt):
    x = opt.tracked_point
    return {"norm_sq": float(x @ x)}


def dense_ridge_oracle():
    return make_oracle(synthesize_quadratic(30, 5, 50.0, seed=3, mu=1.0)[0], "ridge", 1.0)


def csr_ridge_oracle():
    dataset = sparse_logistic_oracle().dataset
    oracle = quarter_rule_oracle(dataset, "ridge", 0.1)
    assert oracle._dense is None
    return oracle


RUN_ORACLES = {"dense-ridge": dense_ridge_oracle, "csr-ridge": csr_ridge_oracle,
               "csr-logistic": sparse_logistic_oracle}
VARIANCE_REDUCED = [LSVRG, LoopySVRG, LKatyusha, LoopyKatyusha]


@pytest.mark.parametrize("cls", VARIANCE_REDUCED, ids=lambda c: c.name)
@pytest.mark.parametrize("data", sorted(RUN_ORACLES))
def test_run_is_the_serial_loop_across_blocks(cls, data):
    """At the theory preset (p = 1/n, m = n) the budget takes about 1,300
    steps, past the first 1,024-step block, with checkpoint marks that fall
    inside blocks and stretches."""
    oracle = RUN_ORACLES[data]()
    params = cls.theory_params(oracle)
    records, _ = assert_run_is_serial_run(
        lambda: cls(oracle, np.ones(oracle.d), **params), 7,
        epochs=130.0, checkpoint_every=7.3, metrics=norm_sq)
    assert records[-1]["k"] > _BLOCK_STEPS


@pytest.mark.parametrize("cls", VARIANCE_REDUCED, ids=lambda c: c.name)
@pytest.mark.parametrize("data", sorted(RUN_ORACLES))
def test_run_is_the_serial_loop_when_every_step_refreshes(cls, data):
    oracle = RUN_ORACLES[data]()
    params = {**cls.theory_params(oracle), **cls.loop_params(1)}  # p = 1, m = 1
    records, _ = assert_run_is_serial_run(
        lambda: cls(oracle, np.ones(oracle.d), **params), 2,
        epochs=30.0, checkpoint_every=2.5, metrics=norm_sq)
    assert [r["oracle_calls"] for r in records][1:3] == [
        (oracle.n + 2) * r["k"] + oracle.n for r in records[1:3]]


@pytest.mark.parametrize("cls", VARIANCE_REDUCED, ids=lambda c: c.name)
def test_run_stops_at_the_serial_loops_k(cls):
    """A metric that turns infinite at epoch 50, mid-block, stops both at the
    same k, with the same state."""
    oracle = sparse_logistic_oracle()
    params = cls.theory_params(oracle)

    def metrics(opt):
        return {"f_gap": math.inf if opt.epoch >= 50.0 else opt.epoch}

    records, opt = assert_run_is_serial_run(
        lambda: cls(oracle, np.ones(oracle.d), **params), 5,
        epochs=130.0, checkpoint_every=3.1, metrics=metrics)
    assert opt.diverged_at == opt.k and opt.epoch >= 50.0
    assert records[-1]["epoch"] < 50.0


@pytest.mark.parametrize("cls, rule", [(LSVRG, {"p": 0.05}), (LoopySVRG, {"m": 20})])
def test_run_diverges_at_the_serial_loops_k(cls, rule):
    oracle, ref = ridge_instance(n=20, d=5, kappa=200.0, seed=4)

    def metrics(opt):
        delta = opt.x - ref.x_star
        return {"dist_sq": float(delta @ delta)}

    _, opt = assert_run_is_serial_run(lambda: cls(oracle, np.ones(5), eta=10.0, **rule),
                                      0, epochs=40.0, metrics=metrics)
    assert opt.diverged_at == opt.k


@pytest.mark.parametrize("data", sorted(RUN_ORACLES))
def test_run_is_the_serial_loop_for_gradient_descent(data):
    oracle = RUN_ORACLES[data]()
    params = GradientDescent.theory_params(oracle)
    assert_run_is_serial_run(lambda: GradientDescent(oracle, np.ones(oracle.d), **params),
                             0, epochs=40.0, checkpoint_every=3.5, metrics=norm_sq)


@pytest.mark.parametrize("d, epochs", [(3000, 6.0), (150_000, 2.0)])
def test_run_takes_long_stretches_in_tables_within_the_cell_cap(d, epochs, monkeypatch):
    """Without a refresh, the corrections of a stretch come in tables of at most
    max(1, _STRETCH_CELLS // d) rows (43 dense rows at d = 3000, one CSR row at
    d = 150,000), and the run is still the serial loop's."""
    rng = np.random.default_rng(d)
    n, nnz = 40, 3 if d > 3000 else d
    indices = np.concatenate([np.sort(rng.choice(d, nnz, replace=False)) for _ in range(n)])
    dataset = Dataset.from_csr(np.arange(n + 1) * nnz, indices, rng.normal(size=n * nnz),
                               rng.choice([-1.0, 1.0], size=n), d)
    oracle = make_oracle(dataset, "ridge", 1.0)
    assert (oracle._dense is None) == (d > 3000)
    tables, make_table = [], oracle.corrections

    def corrections(idx, w, grad_w):
        tables.append(make_table(idx, w, grad_w))
        return tables[-1]

    monkeypatch.setattr(oracle, "corrections", corrections)
    rows = max(1, _STRETCH_CELLS // d)
    assert_run_is_serial_run(lambda: LSVRG(oracle, np.ones(d), eta=0.01, p=1e-9), 3,
                             epochs=epochs, metrics=norm_sq)
    assert sum(len(t) for t in tables) > 2 * rows
    assert max(len(t) for t in tables) == rows
    assert all(t.size <= max(_STRETCH_CELLS, d) for t in tables)


def test_lsvrg_theory_rate_on_synthetic():
    # calls to shrink the squared distance by 1e8 stay under the linear-rate
    # budget 4 (n + L/mu) ln(1e8); realized medians sit ~15% below it
    ds, x_star = synthesize_quadratic(100, 20, 100.0, seed=0, mu=1.0)
    oracle = make_oracle(ds, "ridge", 1.0)
    budget = 4.0 * (oracle.n + oracle.L / oracle.mu) * math.log(1e8)
    calls = []
    for seed in range(10):
        opt = LSVRG(oracle, np.zeros(20), **LSVRG.theory_params(oracle))
        d0 = float((opt.x - x_star) @ (opt.x - x_star))
        rng = SplitMix64(seed)
        reached = float("inf")
        while opt.oracle_calls <= 1.5 * budget:
            serial_step(opt, rng)
            if opt.k % 20 == 0:
                delta = opt.x - x_star
                if float(delta @ delta) <= 1e-8 * d0:
                    reached = opt.oracle_calls
                    break
        calls.append(reached)
    assert np.median(calls) <= budget


def test_epoch_accounting_matches_calls(ridge10):
    oracle, _ = ridge10
    opt = LKatyusha(oracle, np.zeros(4), **LKatyusha.theory_params(oracle))
    rng = SplitMix64(6)
    for _ in range(37):
        serial_step(opt, rng)
    assert opt.epoch == opt.oracle_calls / oracle.n
    assert opt.oracle_calls >= oracle.n + 2 * 37


# Checkpoint (k, oracle_calls) and final squared distance of every algorithm
# at its theory preset, recorded from the separate per-class step
# implementations that the shared family kernels replaced.  The integers pin
# the draw order (index, then coin) and the refresh schedule on any platform.
PINNED_TRAJECTORIES = {
    "gd": ([0, 1, 2, 3, 4, 5, 6, 7], [12, 24, 36, 48, 60, 72, 84, 96],
           0.0019287953105964367),
    "svrg": ([0, 6, 12, 18, 24, 30], [12, 24, 48, 60, 84, 96],
             0.004092529409750922),
    "l-svrg": ([0, 6, 9, 11, 12, 18, 24, 25], [12, 24, 42, 58, 60, 72, 84, 98],
               0.005724639978528628),
    "katyusha": ([0, 6, 12, 18, 24, 30], [12, 24, 48, 60, 84, 96],
                 0.0002618348516641864),
    "l-katyusha": ([0, 6, 9, 11, 12, 18, 24, 25], [12, 24, 42, 58, 60, 72, 84, 98],
                   0.0021454751786395055),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRAJECTORIES))
def test_trajectory_regression_pin(name):
    dataset, x_star = synthesize_quadratic(12, 4, 30.0, seed=1, mu=1.0)
    oracle = make_oracle(dataset, "ridge", 1.0)
    cls = ALGORITHMS[name]
    opt = cls(oracle, np.zeros(oracle.d), **cls.theory_params(oracle))
    records = run(opt, SplitMix64(1), epochs=8.0)
    ks, calls, dist_sq = PINNED_TRAJECTORIES[name]
    assert [r["k"] for r in records] == ks
    assert [r["oracle_calls"] for r in records] == calls
    delta = opt.tracked_point - x_star
    assert float(delta @ delta) == pytest.approx(dist_sq, rel=1e-12)


# The same pins for the loopless algorithms at their theory presets on CSR
# logistic data (every fifth row empty), recorded from the step() that read
# its rows with `@` and fancy indexing; the float is the final squared norm
# of the tracked point.
PINNED_CSR_TRAJECTORIES = {
    "l-svrg": ([0, 12, 24, 28, 36, 48, 59, 60], [24, 48, 72, 104, 120, 144, 190, 192],
               6.501798917883116),
    "l-katyusha": ([0, 12, 24, 28, 36, 48, 59, 60], [24, 48, 72, 104, 120, 144, 190, 192],
                   1.4882917359985124),
}


@pytest.mark.parametrize("name", sorted(PINNED_CSR_TRAJECTORIES))
def test_csr_trajectory_regression_pin(name):
    oracle = sparse_logistic_oracle()
    cls = ALGORITHMS[name]
    opt = cls(oracle, np.ones(oracle.d), **cls.theory_params(oracle))
    records = run(opt, SplitMix64(1), epochs=8.0)
    ks, calls, norm_sq = PINNED_CSR_TRAJECTORIES[name]
    assert [r["k"] for r in records] == ks
    assert [r["oracle_calls"] for r in records] == calls
    x = opt.tracked_point
    assert float(x @ x) == pytest.approx(norm_sq, rel=1e-12)
