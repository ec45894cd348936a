"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them) and asserting at its stated
tolerance.  The stochastic criteria use frozen seeds, so every number here
is reproducible."""

import math
import time

import numpy as np
import pytest

from loopless.data import ParseError, parse_libsvm, synthesize_quadratic, write_libsvm
from loopless.diagnostics import (
    ReferenceSolution,
    compute_phi,
    verify_lemma_bounds,
)
from loopless.harness import RunConfig, compare_all, run_experiment
from loopless.oracle import make_oracle
from loopless.optimizers import (
    GradientDescent,
    LKatyusha,
    LoopyKatyusha,
    LoopySVRG,
    LSVRG,
)
from loopless.rng import SplitMix64

from conftest import random_dataset

SEEDS = list(range(10))

# criterion 6 instance: kappa and n are fixed by the criterion, mu is the
# free regularization weight (see README); frozen here with the data seed
CRIT6_MU = 1.0
CRIT6_DATA_SEED = 2


def _report(num, desc, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {desc} {detail}")
    assert ok, f"criterion {num}: {desc} {detail}"


def _random_logistic_oracle(n, d, mu, seed):
    rng = np.random.default_rng(seed)
    while True:
        ds = random_dataset(rng, max_n=n, max_d=d)
        if ds.n == n and ds.d == d:
            return make_oracle(ds, "logistic", mu)


def test_criterion_1_unbiasedness():
    t0 = time.perf_counter()
    ds, _ = synthesize_quadratic(50, 10, 50.0, seed=3, mu=1.0)
    oracles = [
        make_oracle(ds, "ridge", 1.0),
        _random_logistic_oracle(50, 10, 0.1, seed=4),
    ]
    rng = np.random.default_rng(101)
    worst = 0.0
    for oracle in oracles:
        for _ in range(100):
            x = rng.normal(size=oracle.d)
            w = rng.normal(size=oracle.d)
            grad_w = oracle.full_grad(w)
            mean_g = np.zeros(oracle.d)
            for i in range(oracle.n):
                mean_g += oracle.grad_i(i, x) - (oracle.grad_i(i, w) - grad_w)
            mean_g /= oracle.n
            full = oracle.full_grad(x)
            rel = np.linalg.norm(mean_g - full) / np.linalg.norm(full)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "estimator mean equals full gradient (rel 1e-12)",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst rel={worst:.2e}, {elapsed:.2f}s",
    )


def _ridge10():
    ds, x_star = synthesize_quadratic(10, 4, 25.0, seed=2, mu=1.0)
    oracle = make_oracle(ds, "ridge", 1.0)
    return oracle, ReferenceSolution.from_point(oracle, x_star)


def test_criterion_2_phi_contraction():
    t0 = time.perf_counter()
    oracle, ref = _ridge10()
    worst = np.inf

    state = LSVRG(oracle, np.ones(4), **LSVRG.theory_params(oracle))
    rng = SplitMix64(42)
    for _ in range(200):
        bound = verify_lemma_bounds(state, ref, oracle)["phi_contraction"]
        worst = min(worst, bound.slack)
        state.step(rng)

    draws = np.random.default_rng(102)
    for _ in range(100):
        state = LSVRG(oracle, draws.normal(size=4), **LSVRG.theory_params(oracle))
        state.w = draws.normal(size=4)
        state.grad_w = oracle.full_grad(state.w)
        bound = verify_lemma_bounds(state, ref, oracle)["phi_contraction"]
        worst = min(worst, bound.slack)

    elapsed = time.perf_counter() - t0
    _report(
        2,
        "one-step phi contraction (slack >= -1e-10)",
        worst >= -1e-10 and elapsed < 10.0,
        f"worst slack={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_psi_contraction():
    oracle, ref = _ridge10()
    worst = np.inf

    state = LKatyusha(oracle, np.ones(4), **LKatyusha.theory_params(oracle))
    rng = SplitMix64(43)
    for _ in range(200):
        bound = verify_lemma_bounds(state, ref, oracle)["psi_contraction"]
        worst = min(worst, bound.slack)
        state.step(rng)

    draws = np.random.default_rng(103)
    for _ in range(100):
        state = LKatyusha(oracle, draws.normal(size=4), **LKatyusha.theory_params(oracle))
        state.y = draws.normal(size=4)
        state.z = draws.normal(size=4)
        state.w = draws.normal(size=4)
        state.grad_w = oracle.full_grad(state.w)
        bound = verify_lemma_bounds(state, ref, oracle)["psi_contraction"]
        worst = min(worst, bound.slack)

    _report(
        3,
        "one-step psi contraction (slack >= -1e-10)",
        worst >= -1e-10,
        f"worst slack={worst:.2e}",
    )


def test_criterion_4_one_step_bounds():
    oracle, ref = _ridge10()
    draws = np.random.default_rng(104)
    worst_rel = np.inf
    worst_eq = 0.0
    svrg_names = {"iterate_distance", "estimator_second_moment", "grad_learning_decay"}
    for _ in range(100):
        state = LSVRG(oracle, draws.normal(size=4), **LSVRG.theory_params(oracle))
        state.w = draws.normal(size=4)
        state.grad_w = oracle.full_grad(state.w)
        checks = verify_lemma_bounds(state, ref, oracle)
        for name in svrg_names:
            worst_rel = min(worst_rel, checks[name].rel_slack)

        kstate = LKatyusha(oracle, draws.normal(size=4), **LKatyusha.theory_params(oracle))
        kstate.y = draws.normal(size=4)
        kstate.z = draws.normal(size=4)
        kstate.w = draws.normal(size=4)
        kstate.grad_w = oracle.full_grad(kstate.w)
        kchecks = verify_lemma_bounds(kstate, ref, oracle)
        worst_rel = min(worst_rel, kchecks["estimator_variance"].rel_slack)
        worst_eq = max(worst_eq, abs(kchecks["reference_recursion"].rel_slack))

    _report(
        4,
        "distance/variance/decay bounds and the reference recursion equality",
        worst_rel >= -1e-10 and worst_eq <= 1e-12,
        f"worst rel slack={worst_rel:.2e}, recursion dev={worst_eq:.2e}",
    )


def test_criterion_5_lsvrg_rate_bound():
    t0 = time.perf_counter()
    ds, x_star = synthesize_quadratic(100, 20, 100.0, seed=0, mu=1.0)
    oracle = make_oracle(ds, "ridge", 1.0)
    ref = ReferenceSolution.from_point(oracle, x_star)
    budget = 4.0 * (oracle.n + 6.0 * oracle.L / oracle.mu) * math.log(1e6)

    calls = []
    for seed in SEEDS:
        opt = LSVRG(oracle, np.zeros(20), **LSVRG.theory_params(oracle))
        target = 1e-6 * compute_phi(opt, ref, oracle)["phi"]
        rng = SplitMix64(seed)
        reached = float("inf")
        while opt.oracle_calls <= budget:
            opt.step(rng)
            if opt.k % 20 == 0 and compute_phi(opt, ref, oracle)["phi"] <= target:
                reached = opt.oracle_calls
                break
        calls.append(reached)

    median = float(np.median(calls))
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "gradient calls to phi <= 1e-6 phi0 within 4(n + 6L/mu)ln(1e6)",
        median <= budget and elapsed < 30.0,
        f"median={median:.0f}, budget={budget:.0f}, {elapsed:.1f}s",
    )


def _epochs_to_distance(opt, rng, x_star, threshold, cap_steps):
    steps = 0
    while steps < cap_steps:
        opt.step(rng)
        steps += 1
        if steps % 20 == 0:
            delta = opt.tracked_point - x_star
            if float(delta @ delta) <= threshold:
                return opt.epoch
    return float("inf")


def test_criterion_6_probability_robustness():
    ds, x_star = synthesize_quadratic(
        100, 20, 1e4, seed=CRIT6_DATA_SEED, mu=CRIT6_MU
    )
    oracle = make_oracle(ds, "ridge", CRIT6_MU)
    assert oracle.L / oracle.mu == pytest.approx(1e4, rel=1e-12)
    eta = 1.0 / (6.0 * oracle.L)
    grid = [100, 316, 1000, 3162, 10000]  # n .. kappa, log-uniform

    lsvrg_median, svrg_median = {}, {}
    for ell in grid:
        lsvrg_runs, svrg_runs = [], []
        for seed in SEEDS:
            lsvrg_runs.append(
                _epochs_to_distance(
                    LSVRG(oracle, np.zeros(20), eta=eta, p=1.0 / ell),
                    SplitMix64(seed), x_star, 1e-4, 3_000_000,
                )
            )
            svrg_runs.append(
                _epochs_to_distance(
                    LoopySVRG(oracle, np.zeros(20), eta=eta, m=ell),
                    SplitMix64(seed), x_star, 1e-4, 3_000_000,
                )
            )
        lsvrg_median[ell] = float(np.median(lsvrg_runs))
        svrg_median[ell] = float(np.median(svrg_runs))

    worst, best = max(lsvrg_median.values()), min(lsvrg_median.values())
    best_loopy = min(svrg_median.values())
    spread = worst / best
    versus = worst / best_loopy
    _report(
        6,
        "robust to p across the grid (x5) and vs loopy SVRG's best (x1.5)",
        spread <= 5.0 and versus <= 1.5,
        f"spread={spread:.3f}, worst/loopy-best={versus:.4f}",
    )


def test_criterion_7_acceleration_ordering(tmp_path):
    t0 = time.perf_counter()
    config = RunConfig(
        algorithm="l-svrg",
        synthetic=(100, 20, 1e5),
        loss="ridge",
        mu=1.0,
        epochs=1500.0,
        checkpoint_every=10.0,
    )
    summary = compare_all(
        config,
        tmp_path,
        seeds=SEEDS,
        algorithms=["l-svrg", "l-katyusha"],
        thresholds=(1e-8,),
    )
    import csv as _csv

    per_alg = {"l-svrg": [], "l-katyusha": []}
    with open(summary, newline="") as fh:
        for row in _csv.DictReader(fh):
            per_alg[row["algorithm"]].append(float(row["epochs_to_threshold"]))
    med_katyusha = float(np.median(per_alg["l-katyusha"]))
    med_lsvrg = float(np.median(per_alg["l-svrg"]))
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "median epochs to 1e-8: L-Katyusha < L-SVRG at kappa=1e5",
        med_katyusha < med_lsvrg and elapsed < 120.0,
        f"katyusha={med_katyusha}, l-svrg={med_lsvrg}, {elapsed:.1f}s",
    )


def test_criterion_8_reductions_and_fixed_points():
    # single-sample L-SVRG is gradient descent, bitwise
    oracle1 = make_oracle(parse_libsvm("+1 1:2 2:-1 3:0.5"), "logistic", 0.5)
    x0 = np.array([0.3, -1.2, 2.0])
    eta = 1.0 / (6.0 * oracle1.L)
    lsvrg = LSVRG(oracle1, x0, eta=eta, p=0.37)
    gd = GradientDescent(oracle1, x0, step_size=eta)
    rng = SplitMix64(1)
    bitwise = True
    for _ in range(1000):
        lsvrg.step(rng)
        gd.step()
        bitwise = bitwise and np.array_equal(lsvrg.x, gd.x)

    # every algorithm stays put when started at the minimizer
    ds, x_star = synthesize_quadratic(20, 5, 10.0, seed=3, mu=1.0)
    oracle = make_oracle(ds, "ridge", 1.0)
    eta = 1.0 / (6.0 * oracle.L)
    optimizers = [
        GradientDescent(oracle, x_star, step_size=eta),
        LSVRG(oracle, x_star, eta=eta, p=0.2),
        LoopySVRG(oracle, x_star, eta=eta, m=7),
        LKatyusha(oracle, x_star, **LKatyusha.theory_params(oracle)),
        LoopyKatyusha(oracle, x_star, theta1=0.4, theta2=0.5, m=7),
    ]
    rng = SplitMix64(5)
    drift = 0.0
    for opt in optimizers:
        for _ in range(1000):
            opt.step(rng)
        drift = max(drift, float(np.linalg.norm(opt.tracked_point - x_star, np.inf)))

    _report(
        8,
        "n=1 L-SVRG == GD bitwise; all algorithms fixed at x* (1e-12)",
        bitwise and drift <= 1e-12,
        f"bitwise={bitwise}, max drift={drift:.2e}",
    )


def test_criterion_9_auxiliary_identities():
    rng = np.random.default_rng(109)
    worst_var = 0.0
    worst_jensen = np.inf
    for _ in range(1000):
        k = int(rng.integers(1, 10))
        d = int(rng.integers(1, 8))
        vectors = rng.normal(size=(k, d)) * rng.choice([0.01, 1.0, 100.0])
        y = rng.normal(size=d)
        mean = vectors.mean(axis=0)
        lhs = float(((vectors - mean) ** 2).sum(axis=1).mean())
        second_moment = float(((vectors - y) ** 2).sum(axis=1).mean())
        rhs = second_moment - float((mean - y) @ (mean - y))
        # relative to the identity's terms, which set the rounding scale
        scale = max(1e-30, second_moment, abs(lhs))
        worst_var = max(worst_var, abs(lhs - rhs) / scale)

        total = vectors.sum(axis=0)
        jensen_slack = k * float((vectors**2).sum()) - float(total @ total)
        worst_jensen = min(worst_jensen, jensen_slack / max(1.0, k * float((vectors**2).sum())))

    _report(
        9,
        "variance decomposition (rel 1e-12) and the k-term norm bound",
        worst_var <= 1e-12 and worst_jensen >= -1e-15,
        f"worst var dev={worst_var:.2e}, worst jensen slack={worst_jensen:.2e}",
    )


def test_criterion_10_parser_round_trip_and_errors():
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(1000):
        ds = random_dataset(rng)
        ok = ok and parse_libsvm(write_libsvm(ds)) == ds

    corpus = [
        ("+1 1:1\n-1 2:1 2:3", 2),        # repeated index
        ("+1 1:1\n+1 1:1\n-1 3:1 2:3", 3),  # decreasing index
        ("+1 0:1", 1),                     # 0-based index in file
        ("+1 1:abc", 1),                   # non-numeric value
        ("nope 1:1", 1),                   # non-numeric label
        ("+1 1", 1),                       # malformed token
        ("0 1:1\n1 1:1\n2 1:1", None),     # three distinct labels
        ("", None),                        # empty dataset
    ]
    errors_ok = True
    for text, lineno in corpus:
        try:
            parse_libsvm(text)
            errors_ok = False
        except ParseError as err:
            if lineno is not None and err.line != lineno:
                errors_ok = False

    _report(
        10,
        "LIBSVM round trip on 1000 random datasets; errors carry line numbers",
        ok and errors_ok,
        f"round_trip={ok}, errors={errors_ok}",
    )


def test_criterion_11_trace_determinism(tmp_path):
    def strip_wall(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    ok = True
    for algorithm, diagnostics in (("l-svrg", "lemmas"), ("l-katyusha", "lyapunov")):
        config = RunConfig(
            algorithm=algorithm,
            synthetic=(10, 4, 25.0),
            loss="ridge",
            mu=1.0,
            epochs=5.0,
            seed=7,
            diagnostics=diagnostics,
        )
        a = run_experiment(config, tmp_path / "a" / algorithm)
        b = run_experiment(config, tmp_path / "b" / algorithm)
        ok = ok and strip_wall(a) == strip_wall(b)
        ok = ok and a.with_suffix(".json").read_text() == b.with_suffix(
            ".json"
        ).read_text()

    _report(
        11,
        "same (config, seed) reproduces byte-identical traces modulo wall_ns",
        ok,
    )
