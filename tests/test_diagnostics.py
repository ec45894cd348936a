import tracemalloc

import numpy as np
import pytest

from loopless.data import Dataset, SparseRow, normalize_rows, parse_libsvm, synthesize_quadratic
from loopless.diagnostics import (
    ReferenceSolution,
    ReferenceSolveError,
    compute_phi,
    compute_psi,
    solve_reference,
    verify_lemma_bounds,
)
from loopless.oracle import Oracle, make_oracle
from loopless.optimizers import (
    LKatyusha,
    LSVRG,
)
from loopless.rng import SplitMix64

from conftest import quarter_rule_oracle, ridge_instance, serial_step


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


def test_a_reference_holds_nothing_n_by_d():
    # CSR ridge data whose (n, d) table of per-sample gradients would take
    # 40 MB against 0.36 MB of data
    n, d = 5000, 1000
    rng = np.random.default_rng(5)
    columns = np.sort((rng.integers(0, d, size=(n, 1)) + [0, 333, 666]) % d, axis=1)
    dataset = Dataset.from_csr(np.arange(0, 3 * n + 1, 3), columns.ravel(),
                               rng.normal(size=3 * n), rng.choice([-1.0, 1.0], size=n), d)
    oracle = make_oracle(dataset, "ridge", 1.0)
    assert oracle._dense is None
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
    # the table dk needs is made where dk is: the parent's values, bit for bit
    oracle, ref = ridge_instance(10, 4, 25.0, seed=2)
    opt = LSVRG(oracle, np.ones(4), eta=0.05, p=0.3)
    steps = SplitMix64(3)
    for _ in range(7):
        serial_step(opt, steps)
    assert compute_phi(opt, ref, oracle) == {"phi": 11.224832409107899,
                                             "dk": 10.291633728538724}
    bounds = {name: (b.lhs, b.rhs, b.slack)
              for name, b in verify_lemma_bounds(opt, ref, oracle).items()}
    assert bounds == {
        "iterate_distance": (0.6078816645907062, 0.8101429764123579, 0.20226131182165163),
        "estimator_second_moment": (69.01019028870067, 866.419269562434, 797.4090792737334),
        "grad_learning_decay": (8.265234418255387, 8.448749839227661, 0.1835154209722738),
        "phi_contraction": (8.873116082846094, 9.634427415798632, 0.7613113329525376),
    }


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
    # diagnostics: a name the diagnostics do not fill is a blank column
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
    n = 1001
    rows = [SparseRow(np.array([0]), np.array([1.0])) for _ in range(n)]
    ds = Dataset(rows, np.ones(n), 1)
    oracle = make_oracle(ds, "ridge", 1.0)
    ref = ReferenceSolution.from_point(oracle, np.array([1.0 / (1.0 + oracle.mu)]))
    state = LSVRG(oracle, np.zeros(1), eta=0.01, p=0.5)
    with pytest.raises(ValueError, match="enumeration"):
        verify_lemma_bounds(state, ref, oracle)


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
