import tracemalloc

import numpy as np
import pytest

from loopless.data import Dataset, SparseRow, normalize_rows, parse_libsvm, synthesize_quadratic
from loopless.diagnostics import (
    ReferenceSolution,
    ReferenceSolveError,
    coefficients,
    compute_phi,
    compute_psi,
    report,
    solve_reference,
    verify_lemma_bounds,
)
from loopless import diagnostics as diagnostics_module, oracle as oracle_module
from loopless.oracle import Oracle, make_oracle
from loopless.optimizers import (
    LKatyusha,
    LSVRG,
)
from loopless.rng import SplitMix64

from conftest import dense_rows, quarter_rule_oracle, ridge_instance, serial_step


def phi_contraction(state, ref, oracle):
    """E[phi at the next step] (lhs) and its one-step bound (rhs)."""
    return verify_lemma_bounds(state, ref, oracle)["phi_contraction"]


def psi_contraction(state, ref, oracle):
    """E[psi at the next step] (lhs) and its one-step bound (rhs)."""
    return verify_lemma_bounds(state, ref, oracle)["psi_contraction"]


def random_lsvrg_state(oracle, rng, eta=None, p=None):
    params = LSVRG.theory_params(oracle)
    state = LSVRG(
        oracle,
        rng.normal(size=oracle.d),
        eta=eta if eta is not None else params["eta"],
        p=p if p is not None else params["p"],
    )
    state.w = rng.normal(size=oracle.d)
    state.grad_w = oracle.full_grad(state.w)
    return state


def random_lkatyusha_state(oracle, rng):
    state = LKatyusha(oracle, rng.normal(size=oracle.d), **LKatyusha.theory_params(oracle))
    state.y = rng.normal(size=oracle.d)
    state.z = rng.normal(size=oracle.d)
    state.w = rng.normal(size=oracle.d)
    state.grad_w = oracle.full_grad(state.w)
    return state


# ---------------------------------------------------------------- reference


def test_solve_reference_matches_closed_form_ridge():
    ds, x_star = synthesize_quadratic(20, 5, 8.0, seed=3, mu=1.0)
    oracle = make_oracle(ds, "ridge", 1.0)
    ref = solve_reference(oracle, tolerance=1e-12, max_epochs=100_000)
    assert np.linalg.norm(ref.x_star - x_star) < 1e-8
    assert ref.grad_norm <= 1e-12
    assert ref.x_star.shape == (5,)


def test_solve_reference_returns_immediately_for_loose_tolerance():
    oracle, _ = ridge_instance(10, 4, 25.0, seed=2)
    ref = solve_reference(oracle, tolerance=1e9)
    assert np.array_equal(ref.x_star, np.zeros(4))


def test_solve_reference_budget_exhaustion():
    oracle, _ = ridge_instance(10, 4, 25.0, seed=2)
    with pytest.raises(ReferenceSolveError) as err:
        solve_reference(oracle, tolerance=1e-18, max_epochs=5)
    best = err.value.best
    assert np.isfinite(best.grad_norm) and best.grad_norm > best.tolerance == 1e-18
    # the passes made: the start's and one after each of the 5 steps
    assert best.epochs == 6
    assert "made 6 full-gradient passes" in str(err.value)


def test_solve_reference_logistic_binary_features():
    # 50-sample sparse binary-feature instance, mu = 1e-2
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(50):
        nnz = int(rng.integers(3, 9))
        idx = np.sort(rng.choice(20, size=nnz, replace=False)).astype(np.int64)
        rows.append(SparseRow(idx, np.ones(nnz)))
    ds = Dataset(rows, rng.choice([-1.0, 1.0], size=50), 20)
    oracle = make_oracle(ds, "logistic", 1e-2)
    ref = solve_reference(oracle, tolerance=1e-10, max_epochs=100_000)
    assert ref.grad_norm <= 1e-10
    assert np.linalg.norm(oracle.full_grad(ref.x_star)) <= 1e-10


def a9a_like_logistic(n, d, nnz, seed, mu, build=make_oracle):
    """A logistic oracle, made by `build`, on normalized a9a-shaped rows: nnz
    distinct binary features per row, low columns favoured (uniform draw /
    (j + 1)), labels from a planted model; built from uniform draws and basic
    float arithmetic."""
    rng = np.random.default_rng(seed)
    scores = rng.random((n, d)) / np.arange(1.0, d + 1.0)
    idx = np.sort(np.argsort(-scores, axis=1, kind="stable")[:, :nnz], axis=1)
    theta = rng.random(d) - 0.5
    margins = theta[idx].sum(axis=1) + (rng.random(n) - 0.5)
    labels = np.where(margins > np.median(margins), 1.0, -1.0)
    indptr = np.arange(0, n * nnz + 1, nnz)
    ones = np.ones(n * nnz)
    return build(normalize_rows(Dataset.from_csr(indptr, idx.ravel(), ones, labels, d)),
                 "logistic", mu)


def test_a_reference_records_its_full_gradient_passes(monkeypatch):
    calls = []
    full_grad = Oracle.full_grad

    def counted(self, x):
        calls.append(1)
        return full_grad(self, x)

    monkeypatch.setattr(Oracle, "full_grad", counted)
    # gradient descent's pass count on this instance, pinned for CSR and for
    # the dense rows production storage takes: a full-data kernel whose
    # rounding changes how long the solve takes fails here
    for build, dense in [(quarter_rule_oracle, False), (make_oracle, True)]:
        oracle = a9a_like_logistic(800, 123, 14, seed=1, mu=1e-2, build=build)
        assert (oracle._dense is not None) == dense
        calls.clear()
        ref = solve_reference(oracle)
        assert ref.epochs == len(calls) == 426, build
        assert ref.grad_norm <= ref.tolerance


def csr_ridge_5000x1000():
    """CSR ridge data whose (n, d) table of per-sample gradients would take
    40 MB against 0.36 MB of data: three entries a row, n = 5000, d = 1000."""
    n, d = 5000, 1000
    rng = np.random.default_rng(5)
    columns = np.sort((rng.integers(0, d, size=(n, 1)) + [0, 333, 666]) % d, axis=1)
    dataset = Dataset.from_csr(np.arange(0, 3 * n + 1, 3), columns.ravel(),
                               rng.normal(size=3 * n), rng.choice([-1.0, 1.0], size=n), d)
    oracle = make_oracle(dataset, "ridge", 1.0)
    assert oracle._dense is None
    return oracle


def test_a_reference_holds_nothing_n_by_d():
    oracle = csr_ridge_5000x1000()
    d = oracle.d
    x_star = solve_reference(oracle).x_star
    tracemalloc.start()
    try:
        ref = ReferenceSolution.from_point(oracle, x_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    for name in ReferenceSolution.__dataclass_fields__:
        assert np.size(getattr(ref, name)) <= d, name
    # dk's per-sample scalars at x* are made where dk is: the values the
    # sums of per-sample scalars give, bit for bit
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    opt = LSVRG(oracle, np.ones(4), eta=0.05, p=0.3)
    steps = SplitMix64(3)
    for _ in range(7):
        serial_step(opt, steps)
    assert compute_phi(opt, ref, oracle) == {"phi": 11.2248324091079,
                                             "dk": 10.291633728538725}
    bounds = {name: (b.lhs, b.rhs, b.slack)
              for name, b in verify_lemma_bounds(opt, ref, oracle).items()}
    assert bounds == {
        "iterate_distance": (0.6078816645907061, 0.8101429764123579, 0.20226131182165175),
        "estimator_second_moment": (69.01019028870067, 866.4192695624341, 797.4090792737335),
        "grad_learning_decay": (8.265234418255389, 8.448749839227661, 0.18351542097227203),
        "phi_contraction": (8.873116082846094, 9.634427415798633, 0.7613113329525394),
    }


def test_svrg_family_diagnostics_hold_nothing_n_by_d():
    # past the enumeration guard: sums of per-sample scalars need a few
    # (n,) arrays and a gather of each row's entries, 1.25 MB at peak on
    # numpy 2.4, where one (n, d) table takes 40 MB
    oracle = csr_ridge_5000x1000()
    ref = solve_reference(oracle)
    rng = np.random.default_rng(8)
    opt = random_lsvrg_state(oracle, rng, p=0.5)
    tracemalloc.start()
    try:
        phi = compute_phi(opt, ref, oracle)
        bounds = verify_lemma_bounds(opt, ref, oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak
    assert np.isfinite(list(phi.values())).all()
    for check in bounds.values():
        assert check.rel_slack >= -1e-10, (check.name, check.rel_slack)


def test_reference_from_point_rejects_non_minimizer():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    with pytest.raises(ValueError, match="not a minimizer"):
        ReferenceSolution.from_point(oracle, ref.x_star + 1.0)
    with pytest.raises(ValueError, match=r"not a minimizer: \|\|grad\|\| = nan"):
        ReferenceSolution.from_point(oracle, np.full(4, np.nan))


@pytest.mark.parametrize("loss", ["ridge", "logistic"])
@pytest.mark.parametrize("density", [0.1, 0.9], ids=["csr", "dense"])
def test_from_point_is_a_solve_of_no_epochs_from_the_point(loss, density):
    rng = np.random.default_rng(21)
    A = rng.normal(size=(30, 6)) * (rng.random((30, 6)) < density)
    rows = [SparseRow(np.flatnonzero(a), a[a != 0.0]) for a in A]
    oracle = quarter_rule_oracle(Dataset(rows, rng.choice([-1.0, 1.0], size=30), 6), loss, 0.5)
    assert (oracle._dense is None) == (density < 0.25)
    x = solve_reference(oracle).x_star
    got = ReferenceSolution.from_point(oracle, x)
    want = solve_reference(oracle, max_epochs=0, x0=x)
    for name in ReferenceSolution.__dataclass_fields__:
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(
            getattr(want, name)).tobytes(), name
    # the values a point's reference has always held
    assert got.x_star is x
    assert got.epochs == 1
    assert got.f_star == oracle.full_loss(x)
    assert got.grad_norm == float(np.linalg.norm(oracle.full_grad(x)))
    assert got.tolerance == 1e-10 * oracle.L * (1.0 + float(np.linalg.norm(x)))


def test_solve_reference_continues_from_a_start_that_is_not_a_minimizer():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    start = ref.x_star + 1.0
    solved = solve_reference(oracle, tolerance=1e-12, x0=start)
    assert solved.grad_norm <= 1e-12
    assert np.linalg.norm(solved.x_star - ref.x_star) < 1e-10
    assert np.array_equal(start, ref.x_star + 1.0)  # the start is not changed
    with pytest.raises(ReferenceSolveError) as err:
        solve_reference(oracle, tolerance=1e-30, max_epochs=1, x0=ref.x_star)
    assert err.value.best.epochs == 2


def test_an_infinite_tolerance_certifies_nothing():
    # an L that is not finite makes the default tolerance 1e-10 L (1 + ||x||)
    # infinite, which every gradient norm, even an infinite one, would pass
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    oracle.L = np.inf
    with pytest.raises(ValueError, match="not a minimizer"):
        ReferenceSolution.from_point(oracle, ref.x_star)
    with pytest.raises(ReferenceSolveError):
        solve_reference(oracle, max_epochs=3)
    with pytest.raises(ReferenceSolveError):
        solve_reference(ridge_instance(10, 4, 25.0, seed=2)[0], tolerance=np.inf,
                        max_epochs=3)


# ---------------------------------------------------------------- potentials


def test_phi_zero_at_minimizer():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    state = LSVRG(oracle, ref.x_star, eta=0.01, p=0.3)
    assert compute_phi(state, ref, oracle) == {"phi": 0.0, "dk": 0.0}


def test_phi_matches_hand_computed_scalar():
    # single-sample 1-d ridge: a=2, b=1, mu=0.5
    oracle = make_oracle(parse_libsvm("+1 1:2"), "ridge", 0.5)
    a, b, mu = 2.0, 1.0, 0.5
    xs = a * b / (a * a + mu)
    ref = ReferenceSolution.from_point(oracle, np.array([xs]))
    state = LSVRG(oracle, np.array([1.5]), eta=0.1, p=0.3)
    state.w = np.array([-0.5])
    state.grad_w = oracle.full_grad(state.w)

    g_w = (a * a + mu) * -0.5 - a * b
    g_star = (a * a + mu) * xs - a * b
    dk_hand = (4 * 0.1**2 / (0.3 * 1)) * (g_w - g_star) ** 2
    phi_hand = (1.5 - xs) ** 2 + dk_hand

    report = compute_phi(state, ref, oracle)
    assert report["dk"] == pytest.approx(dk_hand, rel=1e-12)
    assert report["phi"] == pytest.approx(phi_hand, rel=1e-12)


def test_phi_dominates_distance():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = random_lsvrg_state(oracle, rng)
        report = compute_phi(state, ref, oracle)
        assert report["phi"] >= float((state.x - ref.x_star) @ (state.x - ref.x_star))
        assert report["dk"] >= 0.0


def test_psi_zero_at_minimizer():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    state = LKatyusha(oracle, ref.x_star, **LKatyusha.theory_params(oracle))
    report = compute_psi(state, ref, oracle)
    assert report["psi"] == pytest.approx(0.0, abs=1e-15)
    assert report["zk"] == 0.0


def test_psi_matches_hand_computed_scalar():
    oracle = make_oracle(parse_libsvm("+1 1:2"), "ridge", 0.5)
    a, b, mu = 2.0, 1.0, 0.5
    L = a * a + mu
    xs = a * b / L
    ref = ReferenceSolution.from_point(oracle, np.array([xs]))
    theta1, theta2, p = 0.4, 0.5, 0.3
    state = LKatyusha(oracle, np.array([0.2]), theta1=theta1, theta2=theta2, p=p)
    state.z = np.array([-1.0])
    state.w = np.array([2.0])
    state.grad_w = oracle.full_grad(state.w)

    def f(v):
        return 0.5 * (a * v - b) ** 2 + 0.5 * mu * v * v

    sigma = mu / L
    eta = theta2 / ((1 + theta2) * theta1)
    zk = L * (1 + eta * sigma) / (2 * eta) * (-1.0 - xs) ** 2
    yk = (f(0.2) - f(xs)) / theta1
    wk = theta2 * (1 + theta1) / (p * theta1) * (f(2.0) - f(xs))

    report = compute_psi(state, ref, oracle)
    assert report["zk"] == pytest.approx(zk, rel=1e-12)
    assert report["yk"] == pytest.approx(yk, rel=1e-12)
    assert report["wk"] == pytest.approx(wk, rel=1e-12)
    assert report["psi"] == pytest.approx(zk + yk + wk, rel=1e-12)


def test_psi_components_nonnegative_at_random_states():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    rng = np.random.default_rng(6)
    for _ in range(20):
        state = random_lkatyusha_state(oracle, rng)
        report = compute_psi(state, ref, oracle)
        assert report["zk"] >= 0.0 and report["yk"] >= 0.0 and report["wk"] >= 0.0


def test_dimension_mismatch_rejected():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    other, _ = ridge_instance(10, 5, 25.0, seed=2)
    state = LSVRG(other, np.zeros(5), eta=0.01, p=0.3)
    with pytest.raises(ValueError, match="dimension"):
        compute_phi(state, ref, other)


# ------------------------------------------------------ exact expectations


def test_expected_phi_next_zero_at_fixed_point():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    state = LSVRG(oracle, ref.x_star, **LSVRG.theory_params(oracle))
    assert phi_contraction(state, ref, oracle).lhs < 1e-25


def test_expected_phi_next_respects_contraction_bound():
    ds, x_star = synthesize_quadratic(5, 3, 15.0, seed=8, mu=1.0)
    oracle = make_oracle(ds, "ridge", 1.0)
    ref = ReferenceSolution.from_point(oracle, x_star)
    rng = np.random.default_rng(9)
    for _ in range(100):
        state = random_lsvrg_state(oracle, rng)
        bound = phi_contraction(state, ref, oracle)
        assert bound.lhs <= bound.rhs + 1e-12 * max(1.0, abs(bound.rhs))


def test_expected_phi_next_agrees_with_monte_carlo():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    rng = np.random.default_rng(10)
    state = random_lsvrg_state(oracle, rng, p=0.4)
    exact = phi_contraction(state, ref, oracle).lhs

    coef = 4 * state.eta**2 / (state.p * oracle.n)
    table_star = oracle.grad_table(ref.x_star)
    dk_w = coef * float(((oracle.grad_table(state.w) - table_star) ** 2).sum())
    dk_x = coef * float(((oracle.grad_table(state.x) - table_star) ** 2).sum())
    smp = SplitMix64(77)
    draws = np.empty(100_000)
    for t in range(draws.size):
        i = smp.randbelow(oracle.n)
        g = oracle.grad_i(i, state.x) - (oracle.grad_i(i, state.w) - state.grad_w)
        x_next = state.x - state.eta * g
        delta = x_next - ref.x_star
        dk = dk_x if smp.bernoulli(state.p) else dk_w
        draws[t] = float(delta @ delta) + dk
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - exact) <= 3.0 * se


def test_expected_psi_next_zero_at_fixed_point():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    state = LKatyusha(oracle, ref.x_star, **LKatyusha.theory_params(oracle))
    assert abs(psi_contraction(state, ref, oracle).lhs) < 1e-14


def test_expected_psi_next_respects_contraction_bound():
    ds, x_star = synthesize_quadratic(5, 3, 15.0, seed=8, mu=1.0)
    oracle = make_oracle(ds, "ridge", 1.0)
    ref = ReferenceSolution.from_point(oracle, x_star)
    rng = np.random.default_rng(11)
    for _ in range(100):
        state = random_lkatyusha_state(oracle, rng)
        bound = psi_contraction(state, ref, oracle)
        assert bound.lhs <= bound.rhs + 1e-12 * max(1.0, abs(bound.rhs))


def test_expected_psi_next_single_branch_when_deterministic():
    # p = 1 and n = 1: the next state is deterministic
    oracle = make_oracle(parse_libsvm("+1 1:2"), "ridge", 0.5)
    xs = 2.0 / (4.0 + 0.5)
    ref = ReferenceSolution.from_point(oracle, np.array([xs]))
    state = LKatyusha(oracle, np.array([1.0]), theta1=0.4, theta2=0.5, p=1.0)
    state.z = np.array([0.3])
    state.w = np.array([-0.7])
    state.grad_w = oracle.full_grad(state.w)

    x = state.point()
    g = oracle.full_grad(x)
    es = state.eta * state.sigma
    z_next = (es * x + state.z - (state.eta / oracle.L) * g) / (1 + es)
    y_next = x + state.theta1 * (z_next - state.z)
    cz = oracle.L * (1 + es) / (2 * state.eta)
    cw = state.theta2 * (1 + state.theta1) / (state.p * state.theta1)
    single = (
        cz * float((z_next[0] - xs) ** 2)
        + (oracle.full_loss(y_next) - ref.f_star) / state.theta1
        + cw * (oracle.full_loss(state.y) - ref.f_star)
    )
    assert psi_contraction(state, ref, oracle).lhs == pytest.approx(
        single, rel=1e-12
    )


def test_contraction_holds_along_real_runs():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    state = LSVRG(oracle, np.zeros(4), **LSVRG.theory_params(oracle))
    rng = SplitMix64(30)
    for _ in range(200):
        bound = phi_contraction(state, ref, oracle)
        assert bound.lhs <= bound.rhs + 1e-10
        serial_step(state, rng)

    kstate = LKatyusha(oracle, np.zeros(4), **LKatyusha.theory_params(oracle))
    for _ in range(200):
        bound = psi_contraction(kstate, ref, oracle)
        assert bound.lhs <= bound.rhs + 1e-10
        serial_step(kstate, rng)


def test_psi_controls_tracked_distance():
    # strong convexity turns the y-component into a distance bound
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    state = LKatyusha(oracle, np.zeros(4), **LKatyusha.theory_params(oracle))
    rng = SplitMix64(31)
    for _ in range(300):
        serial_step(state, rng)
        report = compute_psi(state, ref, oracle)
        dist = float((state.y - ref.x_star) @ (state.y - ref.x_star))
        assert dist <= 2.0 * state.theta1 * report["yk"] / oracle.mu + 1e-12


# ------------------------------------------------------------- bound slacks


def test_lemma_bounds_hold_at_random_states():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    rng = np.random.default_rng(12)
    for _ in range(50):
        svrg = verify_lemma_bounds(random_lsvrg_state(oracle, rng), ref, oracle)
        assert set(svrg) == {
            "iterate_distance",
            "estimator_second_moment",
            "grad_learning_decay",
            "phi_contraction",
        }
        for check in svrg.values():
            assert check.rel_slack >= -1e-10, f"{check.name}: {check.rel_slack}"

        katy = verify_lemma_bounds(random_lkatyusha_state(oracle, rng), ref, oracle)
        assert set(katy) == {
            "estimator_variance",
            "z_update",
            "y_progress",
            "reference_recursion",
            "psi_contraction",
        }
        for check in katy.values():
            assert check.rel_slack >= -1e-10, f"{check.name}: {check.rel_slack}"
        assert abs(katy["reference_recursion"].rel_slack) <= 1e-12


@pytest.mark.parametrize("cls", [LSVRG, LKatyusha])
def test_family_trace_columns_are_what_the_diagnostics_fill(cls):
    # the lemma and potential names live in optimizers, the values in
    # diagnostics: a name the diagnostics do not fill fails write_trace
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    state = cls(oracle, np.ones(4), **cls.theory_params(oracle))
    assert tuple(verify_lemma_bounds(state, ref, oracle)) == cls.lemmas
    compute = {"phi": compute_phi, "psi": compute_psi}[cls.potential[0]]
    assert tuple(compute(state, ref, oracle)) == cls.potential


def test_every_public_name_resolves():
    import loopless

    for name in loopless.__all__:
        assert getattr(loopless, name) is not None, name


def test_lemma_bounds_trivial_at_minimizer():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    state = LSVRG(oracle, ref.x_star, **LSVRG.theory_params(oracle))
    checks = verify_lemma_bounds(state, ref, oracle)
    second = checks["estimator_second_moment"]
    assert abs(second.lhs) < 1e-25 and abs(second.rhs) < 1e-25


def test_enumeration_guard():
    # only the Katyusha-family report on logistic data evaluates f at all n
    # next points; every other report runs past the guard
    n = 1001
    rows = [SparseRow(np.array([0]), np.array([1.0])) for _ in range(n)]
    ds = Dataset(rows, np.ones(n), 1)
    oracles = {loss: make_oracle(ds, loss, 1.0) for loss in ("ridge", "logistic")}
    refs = {loss: solve_reference(oracle) for loss, oracle in oracles.items()}
    state = LKatyusha(oracles["logistic"], np.zeros(1), theta1=0.5, theta2=0.5, p=0.5)
    with pytest.raises(ValueError, match="enumerate all n samples"):
        verify_lemma_bounds(state, refs["logistic"], oracles["logistic"])
    for loss, cls in [("ridge", LSVRG), ("logistic", LSVRG), ("ridge", LKatyusha)]:
        oracle = oracles[loss]
        state = cls(oracle, np.zeros(1), **cls.theory_params(oracle))
        for check in verify_lemma_bounds(state, refs[loss], oracle).values():
            assert check.rel_slack >= -1e-10, (loss, cls.name, check.name)


# ------------------------------------------------------------- table forms
#
# The specification of the reports: every per-draw quantity written as an
# (n, d) table with one row per sample draw, from grad_table, momentum_step on
# each row and full_loss_many, as the reports once computed them.  The reports
# sum per-sample scalars instead, a different order of rounding.  Each entry
# is (lhs, rhs, slack).

# |report - table form| / max(1, |lhs|, |rhs|) over the grid of
# test_lemma_reports_are_their_table_forms, measured on numpy 2.4: 1.1e-14 at
# worst (y_progress's slack on dense logistic rows), 6e-16 or less for every
# SVRG-family entry, and 4.4e-16 or less (relative to max(1, |column|)) for
# f_gap and the potential columns.  The tolerance is ten times that worst.
TABLE_TOLERANCE = 1e-13


def table_dk(state, oracle, v, ref):
    diff = oracle.grad_table(v) - oracle.grad_table(ref.x_star)
    return 4.0 * state.eta**2 / (state.p * oracle.n) * float((diff * diff).sum())


def table_columns(state, ref, oracle):
    """dist_sq and f_gap at the tracked point and the potential columns, f by
    full_loss at each point and dk from grad_table."""
    point = state.tracked_point
    dist_sq = float((point - ref.x_star) @ (point - ref.x_star))
    gap = oracle.full_loss(point) - ref.f_star
    if state.potential[0] == "phi":
        dk = table_dk(state, oracle, state.w, ref)
        return {"dist_sq": dist_sq, "f_gap": gap, "phi": dist_sq + dk, "dk": dk}
    eta, p, theta1, theta2 = state.eta, state.p, state.theta1, state.theta2
    zk = (oracle.L * (1.0 + eta * state.sigma) / (2.0 * eta)
          * float((state.z - ref.x_star) @ (state.z - ref.x_star)))
    yk = gap / theta1
    wk = theta2 * (1.0 + theta1) / (p * theta1) * (oracle.full_loss(state.w) - ref.f_star)
    return {"dist_sq": dist_sq, "f_gap": gap, "psi": zk + yk + wk, "zk": zk, "yk": yk,
            "wk": wk}


def _upper(lhs, rhs):
    return lhs, rhs, rhs - lhs


def table_svrg_bounds(state, ref, oracle):
    n, mu, L, eta, p = oracle.n, oracle.mu, oracle.L, state.eta, state.p
    gap = oracle.full_loss(state.x) - ref.f_star
    g = oracle.grad_table(state.x) - (oracle.grad_table(state.w) - state.grad_w)
    diff = state.x - eta * g - ref.x_star  # x_next - x* for every draw
    mean_dist_next = float((diff * diff).sum()) / n
    second_moment = float((g * g).sum()) / n
    dist_sq = float((state.x - ref.x_star) @ (state.x - ref.x_star))
    dk, dk_heads = table_dk(state, oracle, state.w, ref), table_dk(state, oracle, state.x, ref)
    return {
        "iterate_distance": _upper(mean_dist_next, (1.0 - eta * mu) * dist_sq
                                   - 2.0 * eta * gap + eta**2 * second_moment),
        "estimator_second_moment": _upper(second_moment,
                                          4.0 * L * gap + p / (2.0 * eta**2) * dk),
        "grad_learning_decay": _upper((1.0 - p) * dk + p * dk_heads,
                                      (1.0 - p) * dk + 8.0 * L * eta**2 * gap),
        "phi_contraction": _upper(mean_dist_next + p * dk_heads + (1.0 - p) * dk,
                                  (1.0 - eta * mu) * dist_sq + (1.0 - p / 2.0) * dk),
    }


def table_katyusha_bounds(state, ref, oracle):
    n, mu, L = oracle.n, oracle.mu, oracle.L
    eta, p, theta1, theta2, sigma = state.eta, state.p, state.theta1, state.theta2, state.sigma
    cz = L * (1.0 + eta * sigma) / (2.0 * eta)
    cy, cw = 1.0 / theta1, theta2 * (1.0 + theta1) / (p * theta1)
    x = state.point()
    g = oracle.grad_table(x) - (oracle.grad_table(state.w) - state.grad_w)
    z_next, y_next = map(np.stack, zip(*(state.momentum_step(x, row.copy()) for row in g)))
    f_y_next = oracle.full_loss_many(y_next)
    f_x, f_y, f_w = (oracle.full_loss(v) for v in (x, state.y, state.w))
    grad_x = oracle.full_grad(x)
    zk = cz * float((state.z - ref.x_star) @ (state.z - ref.x_star))
    yk, wk = cy * (f_y - ref.f_star), cw * (f_w - ref.f_star)

    def rowdot(a, b):
        return (a * b).sum(axis=1)

    dz_next, dz_step, dev = z_next - ref.x_star, z_next - state.z, g - grad_x
    step_sq = rowdot(dz_step, dz_step)
    z_lhs = rowdot(g, ref.x_star - z_next) + 0.5 * mu * float((x - ref.x_star) @ (x - ref.x_star))
    z_rhs = L / (2.0 * eta) * step_sq + cz * rowdot(dz_next, dz_next) - zk / (1.0 + eta * sigma)
    y_lhs = (f_y_next - f_x) / theta1 - theta2 / (2.0 * L * theta1) * rowdot(dev, dev)
    y_rhs = L / (2.0 * eta) * step_sq + rowdot(g, dz_step)
    iz, iy = np.argmin(z_lhs - z_rhs), np.argmin(y_rhs - y_lhs)
    expected_psi_next = (cz * float(rowdot(dz_next, dz_next).sum()) / n
                         + cy * float((f_y_next - ref.f_star).sum()) / n
                         + p * cw * (f_y - ref.f_star) + (1.0 - p) * wk)
    recursion = ((1.0 - p) * wk + p * cw * (f_y - ref.f_star),
                 (1.0 - p) * wk + theta2 * (1.0 + theta1) * yk)
    return {
        "estimator_variance": _upper(float(rowdot(dev, dev).sum()) / n,
                                     2.0 * L * (f_w - f_x - float(grad_x @ (state.w - x)))),
        "z_update": (z_lhs[iz], z_rhs[iz], z_lhs[iz] - z_rhs[iz]),
        "y_progress": (y_lhs[iy], y_rhs[iy], y_rhs[iy] - y_lhs[iy]),
        "reference_recursion": (*recursion, -abs(recursion[1] - recursion[0])),
        "psi_contraction": _upper(expected_psi_next, zk / (1.0 + eta * sigma)
                                  + (1.0 - theta1 * (1.0 - theta2)) * yk
                                  + (1.0 - p * theta1 / (1.0 + theta1)) * wk),
    }


def table_instance(loss, storage):
    """n = 12, d = 5 rows, about 15% nonzero on CSR storage (some rows empty),
    all nonzero on dense, with a certified reference."""
    rng = np.random.default_rng(len(loss) + len(storage))
    A = rng.normal(size=(12, 5)) * (rng.random((12, 5)) < {"csr": 0.15, "dense": 1.0}[storage])
    rows = [SparseRow(np.flatnonzero(a), a[a != 0.0]) for a in A]
    oracle = quarter_rule_oracle(Dataset(rows, rng.choice([-1.0, 1.0], size=12), 5), loss, 0.3)
    assert (oracle._dense is None) == (storage == "csr")
    return oracle, solve_reference(oracle)


def table_form_cases(cls, oracle, ref, rng):
    """States of cls at p = 1/n, 0.5 and 1: the fixed point (every state
    array at x*), then three near x* (offsets of scale 1e-3) and three far
    from it (scale 10), each consistent (grad_w = full_grad(w))."""
    for p in (1.0 / oracle.n, 0.5, 1.0):
        for scale in (0.0, 1e-3, 1e-3, 1e-3, 10.0, 10.0, 10.0):
            state = cls(oracle, ref.x_star, **{**cls.theory_params(oracle), "p": p})
            for name in cls.lane_state[:-1]:
                setattr(state, name, ref.x_star + scale * rng.normal(size=oracle.d))
            state.grad_w = oracle.full_grad(state.w)
            yield state


def assert_table_close(got: float, want: float, scale: float, what):
    assert abs(got - want) <= TABLE_TOLERANCE * scale, (what, got, want)


@pytest.mark.parametrize("cls", [LSVRG, LKatyusha], ids=lambda c: c.name)
@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("loss", ["ridge", "logistic"])
def test_lemma_reports_are_their_table_forms(loss, storage, cls):
    oracle, ref = table_instance(loss, storage)
    table = {LSVRG: table_svrg_bounds, LKatyusha: table_katyusha_bounds}[cls]
    for state in table_form_cases(cls, oracle, ref, np.random.default_rng(3)):
        got = verify_lemma_bounds(state, ref, oracle)
        for name, (lhs, rhs, slack) in table(state, ref, oracle).items():
            scale = max(1.0, abs(lhs), abs(rhs))
            for part, want in zip(("lhs", "rhs", "slack"), (lhs, rhs, slack)):
                assert_table_close(getattr(got[name], part), want, scale, (name, part))
        # the trace columns of the report at both levels, and the potential view
        columns = {level: report(state, ref, oracle, level) for level in ("lyapunov", "lemmas")}
        columns["view"] = compute_phi(state, ref, oracle)
        for name, want in table_columns(state, ref, oracle).items():
            for level, got_columns in columns.items():
                if name in got_columns:
                    assert_table_close(got_columns[name], want, max(1.0, abs(want)),
                                       (level, name))
        assert [columns["lemmas"].pop(f"slack_{name}") for name in cls.lemmas] == [
            got[name].rel_slack for name in cls.lemmas]
        assert list(columns["lemmas"]) == list(columns["lyapunov"])


def past_the_guard(cls, oracle, monkeypatch) -> bool:
    """Whether cls's lemma report on oracle is refused once n is past the
    enumeration guard (set here to n - 1)."""
    state = cls(oracle, np.zeros(oracle.d), **cls.theory_params(oracle))
    with monkeypatch.context() as patch:
        patch.setattr(diagnostics_module, "ENUMERATION_GUARD", oracle.n - 1)
        try:
            coefficients(state, oracle, lemmas=True)
        except ValueError as exc:
            assert "enumerate all n samples" in str(exc)
            return True
    return False


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_ridge_loss_along_rows_is_full_loss_at_every_moved_point(storage, monkeypatch):
    # f(y + gamma_i a_i) in closed form from the Gram matrix of dense rows,
    # made on first use, against f at every moved point; on CSR rows and
    # past _GRAM_DIM columns the enumeration itself, which puts the Katyusha
    # report under the guard
    oracle, _ = table_instance("ridge", storage)
    assert "_row_curvatures" not in vars(oracle) and "row_norms_sq" not in vars(oracle)
    closed = storage == "dense"
    assert oracle.enumerates_along_rows is not closed
    assert past_the_guard(LKatyusha, oracle, monkeypatch) is not closed
    assert not past_the_guard(LSVRG, oracle, monkeypatch)
    rng = np.random.default_rng(4)
    for scale in (1e-3, 1.0, 10.0):
        y, gamma = scale * rng.normal(size=oracle.d), scale * rng.normal(size=oracle.n)
        want = oracle.full_loss_many(y + gamma[:, np.newaxis] * dense_rows(oracle.dataset))
        got = oracle.loss_along_rows(y, gamma)
        assert np.abs(got - want).max() <= TABLE_TOLERANCE * max(1.0, np.abs(want).max())
        monkeypatch.setattr(oracle_module, "_GRAM_DIM", oracle.d - 1)
        assert oracle.enumerates_along_rows and past_the_guard(LKatyusha, oracle, monkeypatch)
        assert np.array_equal(oracle.loss_along_rows(y, gamma),
                              oracle.full_loss_many(oracle._spread(gamma, y)))
        monkeypatch.undo()
    assert ("_row_curvatures" in vars(oracle)) is closed


# ------------------------------------------------------- auxiliary identities


def test_variance_decomposition_identity():
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.normal(size=4)
        w = rng.normal(size=4)
        v = np.stack([oracle.grad_i(i, x) - oracle.grad_i(i, w) for i in range(10)])
        y = rng.normal(size=4)
        mean = v.mean(axis=0)
        lhs = float(((v - mean) ** 2).sum(axis=1).mean())
        rhs = float(((v - y) ** 2).sum(axis=1).mean()) - float((mean - y) @ (mean - y))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_jensen_sum_inequality():
    rng = np.random.default_rng(14)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        vectors = rng.normal(size=(k, int(rng.integers(1, 6))))
        total = vectors.sum(axis=0)
        lhs = float(total @ total)
        rhs = k * float((vectors**2).sum())
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)
