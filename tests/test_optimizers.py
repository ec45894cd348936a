import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

from loopless import optimizers as optimizers_module
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
    _first_mark,
    _plan,
    _stack,
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


def test_theory_facts_are_the_papers_rates(ridge10):
    """The predicted per-step contraction of each loopless method, at a
    setting where each term of its max (L-SVRG) or min (L-Katyusha) binds.
    L-SVRG with eta <= 1/(6L): max(1 - eta mu, 1 - p/2).  L-Katyusha at
    theta2 = 1/2 and p = 1/n: 1 - min(sigma / (6 theta1), theta1 / (2n)),
    which is never faster than the factors psi_contraction states per term,
    1 / (1 + eta sigma), 1 - theta1 (1 - theta2) and 1 - p theta1 / (1 + theta1)."""
    oracle, _ = ridge10
    n, mu, L = oracle.n, oracle.mu, oracle.L
    eta = 1.0 / (6.0 * L)
    for p, binding in ((1.0, 1.0 - eta * mu), (eta * mu, 1.0 - eta * mu / 2.0)):
        rate = LSVRG(oracle, np.zeros(4), eta=eta, p=p).theory_facts()["predicted_rate"]
        assert rate == binding == max(1.0 - eta * mu, 1.0 - p / 2.0)
    assert 1.0 - eta * mu > 1.0 - 1.0 / 2.0 and 1.0 - eta * mu < 1.0 - eta * mu / 2.0

    sigma = mu / L
    theory = LKatyusha.theory_params(oracle)["theta1"]
    small = 0.5 * math.sqrt(sigma * n / 3.0)
    for theta1, binding in ((theory, sigma / (6.0 * theory)), (small, small / (2.0 * n))):
        opt = LKatyusha(oracle, np.zeros(4), theta1=theta1, theta2=0.5, p=1.0 / n)
        rate = opt.theory_facts()["predicted_rate"]
        assert rate == 1.0 - binding == 1.0 - min(sigma / (6.0 * theta1), theta1 / (2.0 * n))
        assert rate >= max(1.0 / (1.0 + opt.eta * sigma), 1.0 - theta1 * 0.5,
                           1.0 - theta1 / (n * (1.0 + theta1)))
    assert sigma / (6.0 * theory) < theory / (2.0 * n)
    assert small / (2.0 * n) < sigma / (6.0 * small)


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
    per-stretch corrections replace.  Its records' wall_ns is 0."""
    records = []

    def record() -> bool:
        """Append run()'s record of opt; False, with diverged_at set, when
        its tracked point or a record value is not finite."""
        rec = {"k": opt.k, "oracle_calls": opt.oracle_calls, "epoch": opt.epoch}
        finite = np.isfinite(opt.tracked_point).all()
        if finite and metrics is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                rec.update(metrics(opt))
            finite = all(map(math.isfinite, rec.values()))
        if not finite:
            opt.diverged_at = opt.k
            return False
        records.append({**rec, "wall_ns": 0})
        return True

    if not record():
        return records
    epoch = opt.epoch
    mark = _first_mark(epoch, checkpoint_every)
    while epoch < epochs:
        serial_step(opt, rng)
        epoch = opt.epoch
        if epoch >= mark or epoch >= epochs:
            if not record():
                break
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
def test_run_is_the_serial_loop_across_blocks(monkeypatch, cls, data):
    """At the theory preset (p = 1/n, m = n) the budget takes about 1,300
    steps, past the first block, held to 1,024 steps, with checkpoint marks
    that fall inside blocks and stretches."""
    monkeypatch.setattr(optimizers_module, "_BLOCK_STEPS", 1024)
    oracle = RUN_ORACLES[data]()
    params = cls.theory_params(oracle)
    records, _ = assert_run_is_serial_run(
        lambda: cls(oracle, np.ones(oracle.d), **params), 7,
        epochs=130.0, checkpoint_every=7.3, metrics=norm_sq)
    assert records[-1]["k"] > 1024


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


def katyusha_formulas(opt):
    """point and momentum_step of the Katyusha family as out-of-place
    formulas in the order the paper writes them."""
    theta1, theta2, eta, eta_sigma = opt.theta1, opt.theta2, opt.eta, opt.eta * opt.sigma

    def momentum(x, g):
        z_next = (eta_sigma * x + opt.z - (eta / opt.oracle.L) * g) / (1.0 + eta_sigma)
        return z_next, x + theta1 * (z_next - opt.z)

    return theta1 * opt.z + theta2 * opt.w + (1.0 - theta1 - theta2) * opt.y, momentum


def assert_writes_only_its_results(opt, rng):
    """step() of either family writes into none of its arguments and the
    state arrays, rebinds the state to new arrays that are its out-of-place
    formulas bitwise, and on a refresh stores the pre-update tracked point's
    own array as w.  The Katyusha family's point() gives its formula as a new
    array, or in out, and momentum_step(x, g) gives new arrays and writes
    only into g, which it scales by eta / L."""
    oracle, katyusha = opt.oracle, opt.potential[0] == "psi"
    arrays = [getattr(opt, name) for name in opt.lane_state]
    frozen = [a.tobytes() for a in arrays]
    i, correction = 3, rng.normal(size=oracle.d)
    kept = correction.tobytes()
    x = opt.point() if katyusha else opt.x
    g = oracle.grad_i(i, x) - correction
    want = (dict(zip("zy", katyusha_formulas(opt)[1](x, g))) if katyusha
            else {"x": x - opt.eta * g})
    for refresh in (False, True):
        stepped = copy.copy(opt)
        stepped.step(i, correction, refresh)
        assert [a.tobytes() for a in arrays] == frozen and correction.tobytes() == kept
        assert stepped.w is (opt.tracked_point if refresh else opt.w)
        for name, value in want.items():
            assert getattr(stepped, name).tobytes() == value.tobytes(), name
            assert not any(np.shares_memory(getattr(stepped, name), a) for a in arrays)
    if not katyusha:
        return
    point, momentum = katyusha_formulas(opt)
    out = np.empty_like(x)
    assert opt.point(out) is out
    for got in (x, out):
        assert got.tobytes() == point.tobytes()
        assert not any(np.shares_memory(got, a) for a in arrays)
    assert [a.tobytes() for a in arrays] == frozen
    x_bytes, g = x.tobytes(), rng.normal(size=x.shape)
    want, scaled = momentum(x, g), (opt.eta / oracle.L) * g
    got = opt.momentum_step(x, g)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert (x.tobytes(), g.tobytes()) == (x_bytes, scaled.tobytes())
    assert [a.tobytes() for a in arrays] == frozen
    assert not any(np.shares_memory(a, b) for a in got for b in (x, g, *arrays))


def assert_stack_writes_only_its_own(lanes):
    """The lanes' exception to the write rule: _stack steps the lanes in
    place, in arrays of its own, so until write_back no lane's state array
    changes, and write_back hands each lane copies that later steps leave
    alone."""
    oracle = lanes[0].oracle
    arrays = [getattr(lane, name) for lane in lanes for name in lane.lane_state]
    frozen = [a.tobytes() for a in arrays]
    drawn = [lane.schedule(SplitMix64(10 + s), 40) for s, lane in enumerate(lanes)]
    assert sum(refresh[:20].sum() for _, refresh in drawn) > 1
    calls = [lane.oracle_calls + np.cumsum(2 + oracle.n * refresh) for lane, (_, refresh)
             in zip(lanes, drawn)]
    advance, write_back, _ = _stack(lanes, drawn, calls)
    advance(0, 20)
    assert [a.tobytes() for a in arrays] == frozen
    for b in range(len(lanes)):
        write_back(b, 19)
    written = [getattr(lane, name) for lane in lanes for name in lane.lane_state]
    for j, a in enumerate(written):
        assert not any(np.shares_memory(a, other) for other in (*arrays, *written[:j]))
    kept = [a.tobytes() for a in written]
    advance(20, 40)
    assert [a.tobytes() for a in written] == kept


@pytest.mark.parametrize("cls", [LSVRG, LKatyusha], ids=lambda c: c.name)
@pytest.mark.parametrize("state", ["new", "stepped", "stacked"])
def test_family_updates_write_only_their_results(cls, state):
    """The one write rule of both families (assert_writes_only_its_results),
    on a new optimizer, whose w is its tracked point's own array (and a
    Katyusha one's z too), and on one stepped off the start; and the lanes'
    exception to it (assert_stack_writes_only_its_own) on three stepped
    lanes as run_lanes stacks them."""
    oracle = dense_ridge_oracle()
    rng = np.random.default_rng(len(cls.name) + len(state))
    params = cls.theory_params(oracle)
    if "theta1" in params:  # the preset's 0.5 is theta2's: point() would not tell them apart
        params["theta1"] = 0.3
    lanes = [cls(oracle, rng.normal(size=oracle.d), **{**params, "p": p})
             for p in (0.2, 0.5, 0.9)]
    if state != "new":
        for s, lane in enumerate(lanes):
            run(lane, SplitMix64(s), epochs=3.0)
    if state == "stacked":
        assert_stack_writes_only_its_own(lanes)
    else:
        assert_writes_only_its_results(lanes[0], rng)


@pytest.mark.parametrize("cls", VARIANCE_REDUCED, ids=lambda c: c.name)
@pytest.mark.parametrize("data", ["dense-ridge", "csr-logistic"])
def test_step_is_the_diagnostics_branch_and_the_lane_step(cls, data):
    """From a fixed state, step(i, correction, coin) for every sample i and
    both coin sides takes the branch the lemma reports' table forms score
    for that draw (tests/test_diagnostics.py), bitwise: x - eta g, or
    momentum_step(point(), g), where g is a copy of the draw's estimator
    grad_i(i, x) - correction; and on heads w <- the
    pre-update tracked point (x^k or y^k, the same array), on tails w stays.
    A 3-lane _stack step, its lanes on mixed samples and coins, takes the
    same branches, bitwise."""
    oracle = RUN_ORACLES[data]()
    n = oracle.n
    rng = np.random.default_rng(len(cls.name))
    opt = cls(oracle, np.zeros(oracle.d), **cls.theory_params(oracle))
    for name in opt.lane_state[:-1]:  # x, w or z, y, w: a state off the start
        setattr(opt, name, rng.normal(size=oracle.d))
    opt.grad_w = oracle.full_grad(opt.w)
    corrections = oracle.corrections(np.arange(n), opt.w, opt.grad_w)
    x = opt.x if opt.potential[0] == "phi" else opt.point()
    g = np.stack([oracle.grad_i(i, x) for i in range(n)]) - corrections
    if opt.potential[0] == "phi":
        branch = {"x": opt.x - opt.eta * g}
    else:
        branch = dict(zip("zy", zip(*(opt.momentum_step(x, row.copy()) for row in g))))
    pre, heads_grad_w = opt.tracked_point, oracle.full_grad(opt.tracked_point)

    stepped = {}
    for i in range(n):
        for coin in (False, True):
            s = stepped[i, coin] = copy.copy(opt)
            s.step(i, corrections[i], coin)
            for name, rows in branch.items():
                assert getattr(s, name).tobytes() == rows[i].tobytes(), (i, coin, name)
            assert s.w is (pre if coin else opt.w), (i, coin)
            assert s.grad_w.tobytes() == (heads_grad_w if coin else opt.grad_w).tobytes()
            assert (s.k, s.oracle_calls) == (opt.k + 1, opt.oracle_calls + 2 + n * coin)

    for i in range(n):
        for coin in (False, True):
            lanes = [copy.copy(opt) for _ in range(3)]
            draws = [((i + b) % n, coin != (b == 1)) for b in range(3)]
            drawn = [(np.array([j]), np.array([c])) for j, c in draws]
            calls = [np.array([opt.oracle_calls + 2 + n * c]) for _, c in draws]
            advance, write_back, _ = _stack(lanes, drawn, calls)
            advance(0, 1)
            for b, (lane, draw) in enumerate(zip(lanes, draws)):
                write_back(b, 0)
                want = stepped[draw]
                assert (lane.k, lane.oracle_calls) == (want.k, want.oracle_calls)
                for name in opt.lane_state:
                    got, ref = getattr(lane, name), getattr(want, name)
                    assert got.tobytes() == ref.tobytes(), (draw, name)


def first_step_refreshes(rng, n, p):
    """Whether a loopless run on this rng refreshes at its first step."""
    rng.randbelow(n)
    return rng.bernoulli(p)


@pytest.mark.parametrize("cls", [LSVRG, LKatyusha], ids=lambda c: c.name)
def test_run_refreshing_at_step_0_is_the_serial_loop(cls):
    """A new optimizer's w is its tracked point's own array: a refresh at
    step 0 stores that array as w while step() replaces the point."""
    oracle = csr_ridge_oracle()
    params = {**cls.theory_params(oracle), "p": 0.3}
    seed = next(s for s in range(100) if first_step_refreshes(SplitMix64(s), oracle.n, 0.3))
    records, _ = assert_run_is_serial_run(
        lambda: cls(oracle, np.ones(oracle.d), **params), seed,
        epochs=30.0, checkpoint_every=2.0, metrics=norm_sq)
    assert records[1]["k"] == 1 and records[1]["oracle_calls"] == 2 * oracle.n + 2


def serial_plan(calls, costs, n, epochs, mark, every):
    """_plan's answer by serial_run's rule, one step at a time: a step records
    when epoch >= mark or epoch >= epochs, then the mark advances, and the
    step that reaches the budget is the last."""
    taken, checkpoints = [], []
    for t, cost in enumerate(costs):
        calls += cost
        taken.append(calls)
        epoch = calls / n
        if epoch >= mark or epoch >= epochs:
            checkpoints.append(t)
            mark = _advance_mark(mark, epoch, every)
            if epoch >= epochs:
                break
    return taken, checkpoints, mark


def test_plan_is_serial_runs_rule_on_random_blocks():
    """Seeded random blocks: refresh masks at the variance-reduced step cost
    (2, plus n on a refresh) and gradient descent's all-refresh mask (n a
    step), intervals below one step's epoch increment (2/n), and budgets
    that end inside the block (on a step's epoch exactly, too), on its last
    step and past it."""
    rng = np.random.default_rng(24)
    seen = set()
    for trial in range(600):
        n, steps = int(rng.integers(1, 40)), int(rng.integers(1, 300))
        if trial % 4 == 0:
            cls, refresh = GradientDescent, GradientDescent.schedule(None, steps)[1]
        else:
            cls, refresh = LSVRG, rng.random(steps) < rng.choice([0.0, 0.05, 0.5, 1.0])
        calls0 = n * int(rng.integers(1, 30)) + 2 * int(rng.integers(0, 500))
        opt = SimpleNamespace(oracle=SimpleNamespace(n=n), oracle_calls=calls0,
                              step_calls=cls.step_calls)
        costs = (cls.step_calls + n * refresh).tolist()
        step_epochs = (calls0 + np.cumsum(costs)) / n
        every = float(rng.choice([rng.uniform(0.05, 1.0) * 2 / n, rng.uniform(0.2, 3.0), 1.0]))
        # a mark as run() holds it: the first from epoch 1, advanced past the epoch so far
        mark = _advance_mark(_first_mark(1.0, every), calls0 / n, every)
        epochs = float([rng.uniform(calls0 / n, step_epochs[-1]),
                        rng.choice(step_epochs),
                        step_epochs[-1],
                        step_epochs[-1] + rng.uniform(1e-9, 5.0)][rng.integers(4)])
        calls, checkpoints, mark_after = _plan(opt, refresh, epochs, mark, every)
        assert (calls.tolist(), checkpoints, mark_after) == serial_plan(
            calls0, costs, n, epochs, mark, every)
        if len(calls) < steps:
            seen.add("budget inside the block")
        elif calls[-1] / n >= epochs:
            seen.add("budget on the last step")
        else:
            seen.add("budget past the block")
        if every < 2 / n and len(checkpoints) > 1:
            seen.add("interval below a step")
        if cls is GradientDescent and len(checkpoints) > 1:
            seen.add("gradient descent")
    assert seen == {"budget inside the block", "budget on the last step",
                    "budget past the block", "interval below a step", "gradient descent"}


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("cls", [LSVRG, LKatyusha], ids=lambda c: c.name)
def test_run_makes_one_correction_row_per_step_it_takes(cls, seed, monkeypatch):
    """On the lemmas-n400 benchmark problem (400 x 20, kappa = 1e3, ridge,
    theory preset, 6 epochs) the budget ends inside the first block, and
    run() makes the corrections of the steps it takes and of no others."""
    oracle = make_oracle(synthesize_quadratic(400, 20, 1e3, seed=1, mu=1.0)[0], "ridge", 1.0)
    rows, make_table = [], oracle.corrections

    def corrections(idx, w, grad_w):
        rows.append(len(idx))
        return make_table(idx, w, grad_w)

    monkeypatch.setattr(oracle, "corrections", corrections)
    opt = cls(oracle, np.zeros(oracle.d), **cls.theory_params(oracle))
    run(opt, SplitMix64(seed), epochs=6.0, checkpoint_every=6.0)
    assert opt.epoch >= 6.0 and sum(rows) == opt.k


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
