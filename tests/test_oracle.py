import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from loopless import data
from loopless import oracle as oracle_module
from loopless.data import (Dataset, SparseRow, _dense_to_csr, normalize_rows, parse_libsvm,
                           synthesize_quadratic)
from loopless.diagnostics import solve_reference
from loopless.oracle import LogisticOracle, RidgeOracle, make_oracle

from conftest import dense_rows, quarter_rule_oracle, random_dataset, spy_windows


def grad_many(oracle, idx, X) -> np.ndarray:
    """grad_i(idx[s], X[s]) for every row s, (S,) and (S, d) -> (S, d), as a
    lane step takes it: Oracle.grad_rows on the rows idx, gathered as one
    step of one window."""
    return oracle.grad_rows(X, *next(oracle.gathered(idx[np.newaxis])), np.empty_like(X))


def grad_i_rows(oracle, idx, X) -> np.ndarray:
    """grad_i(idx[s], X[s]) for every row s, one grad_i call each."""
    return np.stack([oracle.grad_i(i, x) for i, x in zip(idx.tolist(), X)])


def assert_corrections_are_grad_i(oracle, idx, w):
    """Row s of corrections(idx, w, grad_w) is grad_i(idx[s], w) - grad_w, bitwise."""
    grad_w = oracle.full_grad(w)
    want = np.stack([oracle.grad_i(i, w) - grad_w for i in idx.tolist()])
    assert oracle.corrections(idx, w, grad_w).tobytes() == want.tobytes()


def finite_diff_grads(oracle, x):
    """Central differences of every f_i (scalar_reference's losses), (n, d)."""
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    out = np.empty((oracle.n, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[:, j] = (scalar_reference(oracle, x + e)[0]
                     - scalar_reference(oracle, x - e)[0]) / (2 * h)
    return out


def test_logistic_loss_at_origin_is_log_two():
    rng = np.random.default_rng(1)
    oracle = make_oracle(random_dataset(rng), "logistic", 0.2)
    x = np.zeros(oracle.d)
    np.testing.assert_allclose(scalar_reference(oracle, x)[0], math.log(2.0), rtol=1e-15)
    assert oracle.full_loss(x) == pytest.approx(math.log(2.0), rel=1e-15)


def test_logistic_large_margin_asymptote():
    # b=+1, a=(50,), x=(1,): margin b a^T x = 50; at n = 1, f = f_0
    oracle = make_oracle(parse_libsvm("+1 1:50"), "logistic", 0.3)
    x = np.array([1.0])
    expected = 0.5 * 0.3 * 1.0 + math.exp(-50.0)
    assert abs(scalar_reference(oracle, x)[0][0] - expected) < 1e-12
    assert abs(oracle.full_loss(x) - expected) < 1e-12
    # and no overflow far beyond double's exp range
    oracle2 = make_oracle(parse_libsvm("-1 1:1000"), "logistic", 0.3)
    assert np.isfinite(scalar_reference(oracle2, np.array([1.0]))[0][0])
    assert np.isfinite(oracle2.full_loss(np.array([1.0])))
    assert np.isfinite(oracle2.grad_i(0, np.array([1.0]))).all()


def test_ridge_loss_at_minimizer_matches_closed_form():
    n, d, mu = 25, 6, 0.7
    ds, x_star = synthesize_quadratic(n, d, 12.0, seed=4, mu=mu)
    oracle = make_oracle(ds, "ridge", mu)
    A = dense_rows(oracle.dataset)
    r = A @ x_star - ds.labels
    expected = 0.5 * float(r @ r) / n + 0.5 * mu * float(x_star @ x_star)
    assert oracle.full_loss(x_star) == pytest.approx(expected, rel=1e-12)


def test_logistic_grad_at_origin():
    rng = np.random.default_rng(2)
    oracle = make_oracle(random_dataset(rng), "logistic", 0.4)
    x = np.zeros(oracle.d)
    A = dense_rows(oracle.dataset)
    for i in range(oracle.n):
        expected = -oracle.labels[i] * A[i] / 2.0
        assert np.allclose(oracle.grad_i(i, x), expected, atol=1e-15)
    assert np.allclose(
        oracle.full_grad(x), (-oracle.labels[:, None] * A / 2.0).mean(axis=0),
        atol=1e-14,
    )


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    for loss in ("logistic", "ridge"):
        for trial in range(5):
            oracle = make_oracle(random_dataset(rng), loss, 0.5)
            x = rng.normal(size=oracle.d)
            for i, fd in enumerate(finite_diff_grads(oracle, x)):
                g = oracle.grad_i(i, x)
                assert np.allclose(g, fd, rtol=1e-5, atol=1e-6 * (1 + abs(fd).max()))


def test_ridge_average_gradient_vanishes_at_minimizer():
    ds, x_star = synthesize_quadratic(30, 5, 20.0, seed=6, mu=1.0)
    oracle = make_oracle(ds, "ridge", 1.0)
    mean_grad = oracle.grad_table(x_star).mean(axis=0)
    assert np.linalg.norm(mean_grad) < 1e-10
    assert np.linalg.norm(oracle.full_grad(x_star)) < 1e-10


def test_full_grad_is_mean_of_sample_grads():
    rng = np.random.default_rng(7)
    for loss in ("logistic", "ridge"):
        oracle = make_oracle(random_dataset(rng, max_n=20), loss, 0.2)
        for _ in range(100):
            x = rng.normal(size=oracle.d)
            mean = oracle.grad_table(x).mean(axis=0)
            full = oracle.full_grad(x)
            assert np.linalg.norm(mean - full) <= 1e-12 * max(
                1e-30, np.linalg.norm(full)
            )


def test_single_sample_full_grad_is_bitwise_grad_i():
    oracle = make_oracle(parse_libsvm("+1 1:2 3:-0.25"), "logistic", 0.5)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(size=oracle.d)
        assert np.array_equal(oracle.full_grad(x), oracle.grad_i(0, x))


# -- the vectorized full-data paths against a per-row scalar reference -------


def scalar_reference(oracle, x):
    """Per-row losses and gradients of f_i at x, row by row in Python floats."""
    x = x.tolist()
    losses, grads = [], []
    for row, b in zip(oracle.dataset.rows, oracle.labels.tolist()):
        pairs = list(zip(row.indices.tolist(), row.values.tolist()))
        m = math.fsum(v * x[j] for j, v in pairs)
        if isinstance(oracle, LogisticOracle):
            t = -b * m
            phi = max(t, 0.0) + math.log1p(math.exp(-abs(t)))
            e = math.exp(-abs(t))
            dphi = -b * (1.0 / (1.0 + e) if t >= 0.0 else e / (1.0 + e))
        else:
            phi, dphi = 0.5 * (m - b) ** 2, m - b
        losses.append(phi + 0.5 * oracle.mu * math.fsum(xj * xj for xj in x))
        g = [oracle.mu * xj for xj in x]
        for j, v in pairs:
            g[j] += dphi * v
        grads.append(g)
    return np.array(losses), np.array(grads).reshape(oracle.n, oracle.d)


def property_dataset(rng, n, d, density, pad):
    """Every fourth row (from the second on) empty, d padded by `pad` unused
    columns; the other rows hold about density * d entries, at least one."""
    rows = []
    for i in range(n):
        mask = rng.random(d) < density
        if i % 4 == 1:
            mask[:] = False
        elif not mask.any():
            mask[rng.integers(d)] = True
        idx = np.flatnonzero(mask)
        val = rng.normal(size=idx.size)
        val[val == 0.0] = 1.0
        rows.append(SparseRow(idx, val))
    return Dataset(rows, rng.choice([-1.0, 1.0], size=n), d + pad)


def assert_close(got, want):
    """Relative agreement to 1e-12, norm-wise over the last axis (per gradient)."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape
    err = np.linalg.norm(np.atleast_2d(got - want), axis=-1)
    scale = np.linalg.norm(np.atleast_2d(want), axis=-1)
    assert (err <= 1e-12 * scale).all(), (err, scale)


@pytest.mark.parametrize("n", [1, 2, 30])
@pytest.mark.parametrize("density", [0.1, 0.6])
@pytest.mark.parametrize("loss", ["logistic", "ridge"])
@pytest.mark.parametrize("margin", [None, 800.0])
def test_full_data_paths_match_scalar_reference(loss, density, n, margin):
    rng = np.random.default_rng([n, int(10 * density), len(loss), int(margin or 0)])
    dataset = property_dataset(rng, n, d=12, density=density, pad=3)
    oracle = quarter_rule_oracle(dataset, loss, 0.3)
    # the storage actually taken on each side of the 0.25 density threshold
    assert (oracle._dense is not None) == (dataset.nnz >= 0.25 * n * dataset.d)
    points = rng.normal(size=(4, oracle.d))
    if margin is not None:
        # scale each point so its largest |a_i^T x| is the given margin
        A = dense_rows(dataset)
        top = np.abs(points @ A.T).max(axis=1, keepdims=True)
        points *= margin / np.where(top > 0.0, top, 1.0)
    x = points[0]
    losses_x, table_x = scalar_reference(oracle, x)
    with np.errstate(all="raise"):
        full_loss = oracle.full_loss(x)
        full_grad = oracle.full_grad(x)
        grad_table = oracle.grad_table(x)
        many = oracle.full_loss_many(points)
    np.testing.assert_allclose(full_loss, losses_x.mean(), rtol=1e-12)
    many_want = [scalar_reference(oracle, y)[0].mean() for y in points]
    np.testing.assert_allclose(many, many_want, rtol=1e-12)
    assert_close(full_grad, table_x.mean(axis=0))
    assert_close(grad_table, table_x)


@pytest.mark.parametrize("density", [0.1, 0.6])
@pytest.mark.parametrize("loss", ["logistic", "ridge"])
@pytest.mark.parametrize("margin", [None, 800.0])
def test_grad_many_matches_grad_i(loss, density, margin):
    rng = np.random.default_rng([int(10 * density), len(loss), int(margin or 0)])
    dataset = property_dataset(rng, 30, d=12, density=density, pad=3)
    oracle = quarter_rule_oracle(dataset, loss, 0.3)
    assert (oracle._dense is not None) == (density > 0.25)
    # every row once (every fourth is empty), then repeats
    idx = np.concatenate([np.arange(oracle.n), rng.integers(oracle.n, size=10)])
    X = rng.normal(size=(idx.size, oracle.d))
    if margin is not None:
        # scale each point so its sample's |a_i^T x| is the given margin
        top = np.abs(np.einsum("ij,ij->i", dense_rows(dataset)[idx], X))[:, np.newaxis]
        X *= margin / np.where(top > 0.0, top, 1.0)
    with np.errstate(all="raise"):
        got = grad_many(oracle, idx, X)
    assert got.tobytes() == grad_i_rows(oracle, idx, X).tobytes()


def assert_within_ulps(got, want, ulps=4):
    """Elementwise: a few ulp relative where want is a normal double, at most
    the smallest normal double (about 2.2e-308) absolute where it is
    subnormal or zero."""
    tiny = np.finfo(np.float64).tiny
    err = np.abs(got - want)
    normal = np.abs(want) >= tiny
    assert (err[normal] <= ulps * np.finfo(np.float64).eps * np.abs(want[normal])).all()
    assert (err[~normal] <= 2.3e-308).all()


# |b m| across the regimes of the logistic weight's e^{-|b m|}: 1 at 0, about
# 1e-13 at 30, a normal double at 700, subnormal at 709.8, the smallest
# subnormal at 745, and 0 at 800
EXP_EDGES = (0.0, 30.0, 700.0, 709.8, 745.0, 800.0)


@pytest.mark.parametrize("filler", [0, 20], ids=["csr", "dense"])
def test_logistic_weights_match_the_scalar_kernel_at_extreme_margins(filler):
    """full_grad and grad_table take the one-exp weight, grad_i the scalar
    one; each row reads its weight out in a column of its own, where x is
    0, so the gradient entry there is phi'(m_i) itself (full_grad:
    phi'(m_i) / n)."""
    rng = np.random.default_rng(filler)
    special = np.array(EXP_EDGES)
    bm = np.concatenate([special, -special[1:], rng.normal(scale=50.0, size=20),
                         rng.uniform(-800.0, 800.0, size=20)])
    n = bm.size
    b = rng.choice([-1.0, 1.0], size=n)
    # row i: the margin b_i bm_i in column 0 (x_0 = 1), a 1 in its readout
    # column 1 + i, and `filler` ones in shared columns past those (x = 0)
    A = np.zeros((n, 1 + n + filler))
    A[:, 0] = b * bm
    A[np.arange(n), 1 + np.arange(n)] = 1.0
    A[:, 1 + n:] = 1.0
    oracle = quarter_rule_oracle(Dataset.from_csr(*_dense_to_csr(A), b, A.shape[1]),
                                 "logistic", 0.3)
    assert (oracle._dense is not None) == (filler > 0)
    x = np.zeros(oracle.d)
    x[0] = 1.0
    with np.errstate(all="raise"):
        full_grad = oracle.full_grad(x)
        grad_table = oracle.grad_table(x)
    table = np.stack([oracle.grad_i(i, x) for i in range(n)])
    readout = 1 + np.arange(n)
    weights = table[np.arange(n), readout]
    assert np.array_equal(weights, [oracle._dphi(b_i * m, b_i) for b_i, m in zip(b, bm)])
    assert_within_ulps(grad_table[np.arange(n), readout], weights)
    assert_within_ulps(full_grad[readout], table.mean(axis=0)[readout])
    assert_close(grad_table, table)
    assert_close(full_grad, table.mean(axis=0))


def scalar_row_reference(oracle, i, x):
    """grad_i as the scalar kernel computed it with `@` row dots:
    mu*x + dphi(a @ x, b)*a on a dense row, the same on a CSR row's entries."""
    b = oracle.labels[i]
    if oracle._dense is not None:
        a = oracle._dense[i]
        return oracle.mu * x + oracle._dphi(float(a @ x), b) * a
    lo, hi = oracle.dataset.indptr[i], oracle.dataset.indptr[i + 1]
    idx, val = oracle.dataset.indices[lo:hi], oracle.dataset.values[lo:hi]
    grad = oracle.mu * x
    if idx.size:
        grad[idx] += oracle._dphi(float(val @ x[idx]), b) * val
    return grad


@pytest.mark.parametrize("loss", ["logistic", "ridge"])
@pytest.mark.parametrize("density", [0.1, 0.6])
@pytest.mark.parametrize("n, d", [(1, 3), (1, 40), (9, 3), (30, 17), (12, 300)])
def test_grad_i_and_loss_i_are_bitwise_the_scalar_reference(loss, density, n, d):
    rng = np.random.default_rng([n, d, int(10 * density), len(loss)])
    dataset = property_dataset(rng, n, d=d, density=density, pad=2)
    oracle = quarter_rule_oracle(dataset, loss, 0.3)
    assert (oracle._dense is not None) == (dataset.nnz >= 0.25 * n * dataset.d)
    for _ in range(20):
        x = rng.normal(size=oracle.d) * rng.choice([1e-3, 1.0, 50.0])
        for i in range(n):
            want = scalar_row_reference(oracle, i, x)
            assert oracle.grad_i(i, x).tobytes() == want.tobytes()


WINDOWS = (1, 3, 7)


def many_row_oracle(rng, data, loss):
    """A random oracle of one data kind: one row in one draw of eight, else
    2 to 12.  Dense rows have 1 to 299 columns, every fourth row empty.  CSR
    rows hold 0 to 48 real-valued entries among 200 columns (20,000 in one
    draw of eight); most take one of three lengths, or 0, so that rows of
    one length come in runs beside empty rows and rows alone at theirs."""
    n = 1 if rng.random() < 1 / 8 else int(rng.integers(2, 13))
    if data == "dense":
        dataset = property_dataset(rng, n, int(rng.integers(1, 300)), density=1.0, pad=0)
    else:
        d = 20_000 if rng.random() < 1 / 8 else 200
        counts = np.where(rng.random(n) < 0.3, rng.integers(0, 49, size=n),
                          rng.choice([0, *rng.integers(1, 49, size=3)], size=n))
        indices = [np.sort(rng.choice(d, size=c, replace=False)) for c in counts]
        dataset = Dataset.from_csr(np.concatenate([[0], np.cumsum(counts)]),
                                   np.concatenate(indices), rng.normal(size=counts.sum()),
                                   rng.choice([-1.0, 1.0], size=n), d)
    oracle = quarter_rule_oracle(dataset, loss, float(rng.uniform(1e-3, 2.0)))
    assert (oracle._dense is None) == (data == "csr")
    return oracle


def margin_targets(rng, size):
    """|a_i^T x| to scale points to: one of EXP_EDGES, or 800 u^4 (u uniform)."""
    return np.where(rng.random(size) < 0.5, rng.choice(EXP_EDGES, size),
                    800.0 * rng.random(size) ** 4)


def many_row_features(oracle, idx, margins):
    """What one grad_rows step on the rows idx, at these margins |a_i^T x|,
    holds that no hand-picked test below gives grad_rows: each exp edge a
    nonempty row's margin is at, n = 1, d = 20,000; and on CSR rows two
    distinct rows of one length and a row alone at its length."""
    counts = oracle._counts.take(idx).tolist()
    nonempty = [m for m, c in zip(margins.tolist(), counts) if c]
    rows = Counter(c for c in counts if c)  # of each length
    distinct = Counter(c for c in dict(zip(idx.tolist(), counts)).values() if c)
    csr = oracle._dense is None
    features = {
        **{f"margin {edge}": any(abs(m - edge) <= 1e-9 * edge for m in nonempty)
           for edge in EXP_EDGES},
        "n = 1": oracle.n == 1, "d = 20,000": oracle.d == 20_000,
        "a run of one length": csr and max(distinct.values(), default=0) > 1,
        "a row alone at its length": csr and 1 in rows.values()}
    return {name for name, hit in features.items() if hit}


@pytest.mark.parametrize("loss", ["ridge", "logistic"])
@pytest.mark.parametrize("data", ["dense", "csr"])
def test_grad_many_is_grad_i_bitwise(monkeypatch, data, loss):
    """Both many-row forms of the per-sample gradient are grad_i's bits on
    seeded random instances (many_row_oracle), so lanes and run() step
    alike on every data kind: grad_rows on every step of gathered(samples),
    each sample row at a point of its own, with the window cap at 1, 3 or
    7 steps, which no window passes; and corrections(idx, w, grad_w), whose
    row s is grad_i(idx[s], w) - grad_w.  Samples repeat, and margins
    |a_i^T x| reach 800, each of EXP_EDGES among them, where the logistic
    weight's exp gives 1, a subnormal or 0."""
    rng = np.random.default_rng([2465, len(data), len(loss)])
    windows = spy_windows(monkeypatch)
    seen = set()
    for _ in range(60):
        oracle = many_row_oracle(rng, data, loss)
        A = dense_rows(oracle.dataset)
        steps = int(rng.integers(1, 16 if oracle.d < 20_000 else 4))
        samples = rng.integers(oracle.n, size=(steps, int(rng.integers(1, 9))))
        X = rng.normal(size=samples.shape + (oracle.d,))
        m = np.abs(np.einsum("tsj,tsj->ts", A[samples], X))
        scale = margin_targets(rng, m.shape) / np.where(m > 0.0, m, 1.0)
        X *= scale[..., np.newaxis]
        # the cap holds `window` of the largest step's cells, so every window
        # but the last holds `window` steps, or one when no step has a cell
        cells = int(oracle._counts.take(samples).sum(axis=1).max() if oracle._dense is None
                    else samples.shape[1] * oracle.d)
        window = int(rng.choice(WINDOWS))
        monkeypatch.setattr(oracle_module, "_WINDOW_CELLS", window * cells)
        windows.clear()
        got = [oracle.grad_rows(x, labels, rows, np.empty_like(x))
               for x, (labels, rows) in zip(X, oracle.gathered(samples))]
        assert len(got) == steps and all(c.size <= window * cells for _, c, _ in windows)
        per = window if cells else 1
        assert [taken for _, _, taken in windows] == [per] * (steps // per) + [steps % per] * (
            steps % per > 0)
        for idx, xs, g, step_margins in zip(samples, X, got, m * scale):
            assert g.tobytes() == grad_i_rows(oracle, idx, xs).tobytes()
            seen |= many_row_features(oracle, idx, step_margins)
        # corrections at one w, scaled so that the stretch's largest margin is a target
        idx = rng.integers(oracle.n, size=int(rng.integers(1, 40)))
        w = rng.normal(size=oracle.d)
        m = np.abs(A[idx] @ w)
        w *= margin_targets(rng, 1)[0] / (m.max() if m.max() > 0.0 else 1.0)
        assert_corrections_are_grad_i(oracle, idx, w)
    csr = ["d = 20,000", "a run of one length", "a row alone at its length"]
    assert seen == {f"margin {edge}" for edge in EXP_EDGES} | {"n = 1"} | (
        set(csr) if data == "csr" else set())


@pytest.mark.parametrize("loss", ["logistic", "ridge"])
@pytest.mark.parametrize("density", [0.1, 0.6])
@pytest.mark.parametrize("n, d", [(1, 3), (1, 40), (9, 3), (30, 17), (12, 300)])
def test_corrections_are_grad_i_less_grad_w_bitwise(loss, density, n, d):
    """Each row of corrections(idx, w, grad_w) is grad_i(idx[s], w) - grad_w
    bit for bit, on dense and CSR rows (every fourth row empty), with
    repeated indices and at n = 1."""
    rng = np.random.default_rng([n, d, int(10 * density), len(loss), 23])
    dataset = property_dataset(rng, n, d=d, density=density, pad=2)
    oracle = quarter_rule_oracle(dataset, loss, 0.3)
    assert (oracle._dense is not None) == (dataset.nnz >= 0.25 * n * dataset.d)
    for _ in range(10):
        w = rng.normal(size=oracle.d) * rng.choice([1e-3, 1.0, 50.0])
        idx = rng.integers(n, size=int(rng.integers(1, 3 * n + 2)))
        assert_corrections_are_grad_i(oracle, idx, w)


@pytest.mark.parametrize("loss", ["logistic", "ridge"])
@pytest.mark.parametrize("d", [3, 123, 20_000])
def test_csr_corrections_by_row_length_are_grad_i_less_grad_w_bitwise(loss, d):
    """CSR stretches that mix empty rows, rows alone at their length and long
    runs of rows of one length (lengths 1 to min(d, 200)), in shuffled order
    and with repeated indices, keep every row of corrections bitwise
    grad_i(idx[s], w) - grad_w."""
    rng = np.random.default_rng([d, len(loss), 29])
    top = min(d, 200)
    long_runs = rng.choice(np.arange(1, top + 1), size=min(top - 1, 3), replace=False)
    counts = np.concatenate([np.arange(1, top + 1), np.repeat(long_runs, 12)])
    # enough empty rows to keep the data under a quarter nonzero: CSR storage
    counts = np.concatenate([counts, np.zeros(4 * int(counts.sum()) // d + 8, dtype=int)])
    rng.shuffle(counts)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate([np.sort(rng.choice(d, size=c, replace=False)) for c in counts])
    dataset = Dataset.from_csr(indptr, indices, rng.normal(size=indices.size),
                               rng.choice([-1.0, 1.0], size=counts.size), d)
    oracle = quarter_rule_oracle(dataset, loss, 0.3)
    assert oracle._dense is None
    rows_of = {c: np.flatnonzero(counts == c) for c in range(top + 1)}
    others = np.setdiff1d(np.arange(1, top + 1), long_runs)
    for _ in range(4):
        w = rng.normal(size=d) * rng.choice([1e-3, 1.0, 50.0])
        # every long run's rows (some twice), empty rows, and rows alone at
        # their length, at most 80 rows in all
        alone = rng.choice(others, size=min(others.size, 20), replace=False)
        idx = np.concatenate([*(rows_of[c] for c in long_runs), rows_of[long_runs[0]][:4],
                              rows_of[0][:5], [rows_of[c][0] for c in alone]])
        rng.shuffle(idx)
        assert_corrections_are_grad_i(oracle, idx, w)


@pytest.mark.parametrize("filler", [0, 20], ids=["csr", "dense"])
def test_corrections_take_the_scalar_kernel_at_extreme_margins(filler):
    """Margins where the scalar kernel's math.exp gives 1, a subnormal or 0
    (|b m| at each of EXP_EDGES and up to 800) keep corrections bitwise
    grad_i's."""
    rng = np.random.default_rng(filler + 1)
    special = np.array(EXP_EDGES)
    bm = np.concatenate([special, -special[1:], rng.uniform(-800.0, 800.0, size=20)])
    n = bm.size
    b = rng.choice([-1.0, 1.0], size=n)
    # row i: the margin b_i bm_i in column 0 (w_0 = 1), a 1 in column 1 + i,
    # and `filler` ones in shared columns past those
    A = np.zeros((n, 1 + n + filler))
    A[:, 0] = b * bm
    A[np.arange(n), 1 + np.arange(n)] = 1.0
    A[:, 1 + n:] = 1.0
    A[3] = 0.0  # an empty row
    oracle = quarter_rule_oracle(Dataset.from_csr(*_dense_to_csr(A), b, A.shape[1]),
                                 "logistic", 0.3)
    assert (oracle._dense is not None) == (filler > 0)
    w = np.zeros(oracle.d)
    w[0] = 1.0
    idx = np.concatenate([np.arange(n), rng.integers(n, size=10)])
    assert_corrections_are_grad_i(oracle, idx, w)


def test_full_loss_many_spans_several_blocks():
    rng = np.random.default_rng(9)
    for density in (0.1, 0.6):
        dataset = property_dataset(rng, 30, 12, density, pad=3)
        oracle = quarter_rule_oracle(dataset, "logistic", 0.3)
        assert (oracle._dense is None) == (density < 0.25)
        # more points than two blocks of 2**14 margins hold at n = 30
        points = rng.normal(size=(1200, oracle.d))
        want = [scalar_reference(oracle, y)[0].mean() for y in points]
        np.testing.assert_allclose(oracle.full_loss_many(points), want, rtol=1e-12)


@pytest.mark.parametrize("block", [7, 50, 1 << 14])
def test_ridge_row_curvatures_are_each_rows_hessian_form(block, monkeypatch):
    # a_i^T H a_i, H = A^T A / n + mu I, made on first use and kept; blocks
    # of 1, 7 and all 40 rows
    monkeypatch.setattr(oracle_module, "_MARGINS_PER_BLOCK", block)
    rng = np.random.default_rng(6)
    A = rng.normal(size=(40, 7)) * (rng.random((40, 7)) < 0.9)
    rows = [SparseRow(np.flatnonzero(a), a[a != 0.0]) for a in A]
    oracle = quarter_rule_oracle(Dataset(rows, rng.choice([-1.0, 1.0], size=40), 7),
                                 "ridge", 0.5)
    assert oracle._dense is not None and not oracle.enumerates_along_rows
    assert "_row_curvatures" not in vars(oracle)
    H = A.T @ A / 40 + 0.5 * np.eye(7)
    np.testing.assert_allclose(oracle._row_curvatures, np.einsum("ij,jk,ik->i", A, H, A),
                               rtol=1e-13)
    assert oracle._row_curvatures is oracle._row_curvatures


def test_oracle_shares_the_dataset_csr_arrays():
    rng = np.random.default_rng(5)
    for density in (0.1, 0.6):
        dataset = property_dataset(rng, 20, 10, density, pad=0)
        oracle = make_oracle(dataset, "logistic", 0.1)
        assert np.shares_memory(oracle._indptr, dataset.indptr)
        assert np.shares_memory(oracle._indices, dataset.indices)
        assert np.shares_memory(oracle._values, dataset.values)
        assert np.shares_memory(oracle.labels, dataset.labels)


def traced_peak(call):
    """call()'s result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("loss", ["logistic", "ridge"])
def test_csr_full_data_passes_hold_one_row_block_at_a_time(loss):
    rng = np.random.default_rng(6)
    n, d = 4000, 2000
    counts = rng.integers(0, 200, size=n)  # empty rows among them
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate([np.sort(rng.choice(d, size=c, replace=False)) for c in counts])
    dataset = Dataset.from_csr(indptr, indices, rng.normal(size=indices.size),
                               rng.choice([-1.0, 1.0], size=n), d)
    assert len(dataset.row_blocks) >= 10
    # one block's per-entry temporary, 8 bytes an entry, and at most four
    # per-row and four per-column arrays of 8-byte numbers at once: the row
    # counts and norms at construction; the margins, the weights or the loss
    # kernel's temporaries in a pass; x and the gradient.  A pass over all
    # entries at once holds 8 * nnz bytes (2.7 MB), np.bincount's copy of
    # the indices as many
    allowance = 8 * data._BLOCK_ENTRIES + 4 * 8 * n + 4 * 8 * d
    oracle, peak = traced_peak(lambda: make_oracle(dataset, loss, 0.1))
    assert oracle._dense is None and peak <= allowance, peak
    x = rng.normal(size=d)
    for method in (oracle.full_grad, oracle.full_loss):
        assert traced_peak(lambda: method(x))[1] <= allowance, method


@pytest.mark.parametrize("loss", ["logistic", "ridge"])
def test_csr_full_grad_sums_as_bincount_does(loss):
    # np.add.at and np.bincount both sum the entries in entry order
    rng = np.random.default_rng(8)
    for case in range(20):
        dataset = property_dataset(rng, int(rng.integers(2, 60)), 40, 0.1, pad=2)
        oracle = quarter_rule_oracle(dataset, loss, 0.1)
        assert oracle._dense is None
        x = rng.normal(size=oracle.d) * 3.0
        per_entry = np.repeat(oracle._weights(x), oracle._counts) * oracle._values
        data = np.bincount(oracle._indices, weights=per_entry, minlength=oracle.d)
        want = data / oracle.n + oracle.mu * x
        assert oracle.full_grad(x).tobytes() == want.tobytes()


# -- row blocks: a full-data pass against one pass over every entry -------------


def one_pass_row_sums(dataset, entries):
    """Each row's sum of per-entry values (along the last axis) by one
    np.add.reduceat over every entry: the row sums before row blocks."""
    nonempty = np.diff(dataset.indptr) > 0
    out = np.zeros(entries.shape[:-1] + (dataset.n,))
    out[..., nonempty] = np.add.reduceat(entries, dataset.indptr[:-1][nonempty], axis=-1)
    return out


def one_pass_losses(oracle, Y):
    """f at every row of Y (k, d), from margins taken in one pass."""
    margins = one_pass_row_sums(oracle.dataset, Y[:, oracle._indices] * oracle._values)
    return (oracle._phis(margins, oracle.labels).sum(axis=1) / oracle.n
            + 0.5 * oracle.mu * np.einsum("ij,ij->i", Y, Y))


def one_pass_grad(oracle, x):
    """full_grad at x with its margins and its sum over rows each taken in
    one pass; grad_i itself at n == 1."""
    if oracle.n == 1:
        return oracle.grad_i(0, x)
    margins = one_pass_row_sums(oracle.dataset, x[oracle._indices] * oracle._values)
    per_entry = np.repeat(oracle._dphis(margins, oracle.labels), oracle._counts)
    grad = np.zeros(oracle.d)
    np.add.at(grad, oracle._indices, per_entry * oracle._values)
    grad /= oracle.n
    grad += oracle.mu * x
    return grad


@pytest.mark.parametrize("block", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 30])
@pytest.mark.parametrize("loss", ["logistic", "ridge"])
def test_row_blocks_are_bitwise_one_pass(monkeypatch, loss, n, block):
    # rows of about 9 entries, every fourth empty: a block of 1 or 4 entries
    # holds a row or two, or one row longer than a block
    monkeypatch.setattr(data, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng([n, block, len(loss)])
    dataset = property_dataset(rng, n, d=60, density=0.15, pad=2)
    oracle = quarter_rule_oracle(dataset, loss, 0.3)
    assert oracle._dense is None and len(dataset.row_blocks) > n // 2
    assert max(np.diff(dataset.indptr)) > block
    # a margin of about 1e3 overflows the logistic weight's exp
    points = rng.normal(size=(4, oracle.d)) * np.array([[1.0], [3.0], [1e2], [0.0]])
    gamma = rng.normal(size=n)
    values, counts = dataset.values, np.diff(dataset.indptr)
    rows = np.repeat(np.arange(n), counts)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        row_norms_sq = one_pass_row_sums(dataset, values * values)
        scaled = values / np.repeat(np.sqrt(row_norms_sq), counts)
        for x in points:
            assert oracle.full_grad(x).tobytes() == one_pass_grad(oracle, x).tobytes()
            assert oracle.full_loss(x) == one_pass_losses(oracle, x[np.newaxis])[0]
            moved = np.tile(x, (n, 1))  # x + gamma_i a_i in row i
            moved[rows, dataset.indices] += gamma[rows] * values
            assert (oracle.loss_along_rows(x, gamma).tobytes()
                    == one_pass_losses(oracle, moved).tobytes())
        assert (oracle.full_loss_many(points).tobytes()
                == one_pass_losses(oracle, points).tobytes())
    assert oracle.row_norms_sq.tobytes() == row_norms_sq.tobytes()
    assert normalize_rows(dataset).values.tobytes() == scaled.tobytes()


def rows_of(counts, d):
    """A Dataset whose row i holds ones in columns 0 .. counts[i] - 1."""
    counts = np.asarray(counts)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.arange(indptr[-1]) - np.repeat(indptr[:-1], counts)
    return Dataset.from_csr(indptr, indices, np.ones(indptr[-1]), np.ones(counts.size), d)


def test_storage_is_dense_when_a_quarter_is_nonzero_or_a_sixteenth_fits_the_budget():
    assert oracle_module._DENSE_CELLS == 1024 * 128 == 1 << 17
    cases = [
        # (rows, columns, entries per row, one row's entries), dense?
        ((1024, 128, 8, 8), True),  # at the budget, at 1/16
        ((1024, 128, 8, 7), False),  # at the budget, one entry short of 1/16
        ((1025, 128, 8, 8), False),  # one row past the budget, at 1/16
        ((1024, 129, 9, 9), False),  # one column past the budget, above 1/16
        ((1025, 128, 32, 32), True),  # past the budget, at 1/4
        ((1025, 128, 32, 31), False),  # past the budget, one entry short of 1/4
        ((1, 1, 1, 1), True),
        ((3, 48, 3, 3), True),  # tiny, at 1/16
        ((3, 48, 3, 2), False),
    ]
    for (n, d, k, last), dense in cases:
        oracle = make_oracle(rows_of([k] * (n - 1) + [last], d), "ridge", 1.0)
        assert (oracle._dense is not None) == dense, (n, d, k, last)
        if dense:
            assert np.array_equal(oracle._dense, dense_rows(oracle.dataset))
    # an a9a-shaped matrix, 14 of 123 features per row, is 4.0M cells: CSR
    oracle = make_oracle(rows_of(np.full(32561, 14), 123), "logistic", 1e-2)
    assert oracle._dense is None


def test_dense_storage_agrees_with_csr_to_rounding():
    """Random sparse data under the budget, dense in production: every
    full-data and per-sample call agrees with the CSR kernels' to rounding,
    and a reference solve makes as many passes."""
    rng = np.random.default_rng(1717)
    cases = 0
    while cases < 12:
        n, d = int(rng.integers(2, 120)), int(rng.integers(2, 200))
        dataset = normalize_rows(property_dataset(rng, n, d, float(rng.uniform(0.1, 0.3)),
                                                  pad=int(rng.integers(0, 4))))
        loss = ("logistic", "ridge")[cases % 2]
        mu = float(rng.uniform(0.05, 0.5))
        dense, csr = make_oracle(dataset, loss, mu), quarter_rule_oracle(dataset, loss, mu)
        if dense._dense is None or csr._dense is not None:
            continue
        cases += 1
        points = rng.normal(size=(5, dense.d)) * rng.choice([0.1, 1.0, 20.0])
        x = points[0]
        for i in range(n):
            assert_close(dense.grad_i(i, x), csr.grad_i(i, x))
        idx = rng.integers(n, size=2 * n)
        X = rng.normal(size=(idx.size, dense.d))
        assert_close(grad_many(dense, idx, X), grad_many(csr, idx, X))
        assert_close(dense.full_grad(x), csr.full_grad(x))
        assert_close(dense.grad_table(x), csr.grad_table(x))
        np.testing.assert_allclose(dense.full_loss_many(points), csr.full_loss_many(points),
                                   rtol=1e-12)
        assert solve_reference(dense).epochs == solve_reference(csr).epochs


def test_smoothness_constant_formulas():
    # logistic, single row a=(2,0), mu=0.1: L = (1/4)*4 + 0.1
    oracle = make_oracle(Dataset.from_csr([0, 1], [0], [2.0], [1.0], 2), "logistic", 0.1)
    assert oracle.L == pytest.approx(1.1, rel=1e-15)
    # zero rows: regularizer only, both losses
    empty = Dataset.from_csr([0, 0, 0], [], [], [1.0, -1.0], 1)
    for loss in ("logistic", "ridge"):
        assert make_oracle(empty, loss, 1.0).L == 1.0


def test_smoothness_upper_bounds_hessian_spectrum():
    ds, _ = synthesize_quadratic(50, 8, 40.0, seed=9, mu=0.5)
    oracle = make_oracle(ds, "ridge", 0.5)
    A = dense_rows(oracle.dataset)
    top = np.linalg.eigvalsh(A.T @ A / oracle.n + 0.5 * np.eye(8))[-1]
    assert oracle.L >= top - 1e-12


def test_per_sample_smoothness_inequality():
    rng = np.random.default_rng(10)
    for loss in ("logistic", "ridge"):
        oracle = make_oracle(random_dataset(rng), loss, 0.3)
        L = oracle.L
        for _ in range(1000):
            i = int(rng.integers(oracle.n))
            x = rng.normal(size=oracle.d)
            y = rng.normal(size=oracle.d)
            lhs = scalar_reference(oracle, y)[0][i]
            rhs = (
                scalar_reference(oracle, x)[0][i]
                + float(oracle.grad_i(i, x) @ (y - x))
                + 0.5 * L * float((y - x) @ (y - x))
            )
            assert lhs <= rhs + 1e-9 * max(1.0, abs(lhs))


def test_strong_convexity_inequality():
    rng = np.random.default_rng(12)
    for loss in ("logistic", "ridge"):
        oracle = make_oracle(random_dataset(rng), loss, 0.6)
        mu = oracle.mu
        for _ in range(1000):
            x = rng.normal(size=oracle.d)
            y = rng.normal(size=oracle.d)
            gap = float((y - x) @ (y - x))
            lhs = oracle.full_loss(y)
            rhs = oracle.full_loss(x) + float(oracle.full_grad(x) @ (y - x)) + 0.5 * mu * gap
            assert lhs >= rhs - 1e-9 * (1.0 + gap)


def test_index_out_of_range():
    oracle = make_oracle(parse_libsvm("+1 1:1"), "ridge", 1.0)
    for i in (-1, 1):
        with pytest.raises(IndexError):
            oracle.grad_i(i, np.zeros(1))


def test_oracle_rejects_degenerate_mu():
    ds = parse_libsvm("+1 1:1")
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError, match="mu must be positive"):
            make_oracle(ds, "logistic", bad)


@pytest.mark.parametrize("loss", ["logistic", "ridge"])
def test_oracle_rejects_a_row_norm_that_overflows(loss):
    # 1e200 squared overflows float64, so no finite L bounds the smoothness;
    # the filterwarnings setting turns any numpy warning into a failure
    ds = parse_libsvm("1 1:1e200 2:1\n-1 1:2 2:3\n")
    with pytest.raises(ValueError, match="L = inf is not finite"):
        make_oracle(ds, loss, 1.0)


def test_make_oracle_unknown_loss():
    with pytest.raises(ValueError, match="unknown loss"):
        make_oracle(parse_libsvm("+1 1:1"), "hinge", 1.0)


def test_oracle_kinds():
    ds = parse_libsvm("+1 1:1")
    assert isinstance(make_oracle(ds, "logistic", 1.0), LogisticOracle)
    assert isinstance(make_oracle(ds, "ridge", 1.0), RidgeOracle)
