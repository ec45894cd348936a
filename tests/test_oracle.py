import math
import tracemalloc

import numpy as np
import pytest

from loopless.data import Dataset, SparseRow, parse_libsvm, synthesize_quadratic
from loopless.oracle import LogisticOracle, RidgeOracle, make_oracle

from conftest import random_dataset


def finite_diff_grad(oracle, i, x):
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    out = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = (oracle.loss_i(i, x + e) - oracle.loss_i(i, x - e)) / (2 * h)
    return out


def dense_matrix(oracle):
    return np.stack([row.to_dense(oracle.d) for row in oracle.dataset.rows])


def test_logistic_loss_at_origin_is_log_two():
    rng = np.random.default_rng(1)
    oracle = make_oracle(random_dataset(rng), "logistic", 0.2)
    x = np.zeros(oracle.d)
    for i in range(oracle.n):
        assert oracle.loss_i(i, x) == pytest.approx(math.log(2.0), rel=1e-15)


def test_logistic_large_margin_asymptote():
    # b=+1, a=(50,), x=(1,): margin b a^T x = 50
    oracle = make_oracle(parse_libsvm("+1 1:50"), "logistic", 0.3)
    x = np.array([1.0])
    expected = 0.5 * 0.3 * 1.0 + math.exp(-50.0)
    assert abs(oracle.loss_i(0, x) - expected) < 1e-12
    # and no overflow far beyond double's exp range
    oracle2 = make_oracle(parse_libsvm("-1 1:1000"), "logistic", 0.3)
    assert np.isfinite(oracle2.loss_i(0, np.array([1.0])))
    assert np.isfinite(oracle2.grad_i(0, np.array([1.0]))).all()


def test_ridge_loss_at_minimizer_matches_closed_form():
    n, d, mu = 25, 6, 0.7
    ds, x_star = synthesize_quadratic(n, d, 12.0, seed=4, mu=mu)
    oracle = make_oracle(ds, "ridge", mu)
    A = dense_matrix(oracle)
    r = A @ x_star - ds.labels
    expected = 0.5 * float(r @ r) / n + 0.5 * mu * float(x_star @ x_star)
    assert oracle.full_loss(x_star) == pytest.approx(expected, rel=1e-12)


def test_logistic_grad_at_origin():
    rng = np.random.default_rng(2)
    oracle = make_oracle(random_dataset(rng), "logistic", 0.4)
    x = np.zeros(oracle.d)
    A = dense_matrix(oracle)
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
            for i in range(oracle.n):
                g = oracle.grad_i(i, x)
                fd = finite_diff_grad(oracle, i, x)
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
    oracle = make_oracle(dataset, loss, 0.3)
    # the storage actually taken on each side of the 0.25 density threshold
    assert (oracle._dense is not None) == (dataset.nnz >= 0.25 * n * dataset.d)
    points = rng.normal(size=(4, oracle.d))
    if margin is not None:
        # scale each point so its largest |a_i^T x| is the given margin
        A = np.stack([row.to_dense(oracle.d) for row in dataset.rows])
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
    oracle = make_oracle(dataset, loss, 0.3)
    assert (oracle._dense is not None) == (density > 0.25)
    # every row once (every fourth is empty), then repeats
    idx = np.concatenate([np.arange(oracle.n), rng.integers(oracle.n, size=10)])
    X = rng.normal(size=(idx.size, oracle.d))
    if margin is not None:
        # scale each point so its sample's |a_i^T x| is the given margin
        A = np.stack([row.to_dense(oracle.d) for row in dataset.rows])
        top = np.abs(np.einsum("ij,ij->i", A[idx], X))[:, np.newaxis]
        X *= margin / np.where(top > 0.0, top, 1.0)
    with np.errstate(all="raise"):
        got = oracle.grad_many(idx, X)
    want = np.stack([oracle.grad_i(i, x) for i, x in zip(idx, X)])
    assert_close(got, want)
    if loss == "ridge" and oracle._dense is not None:
        assert got.tobytes() == want.tobytes()


def test_dense_ridge_grad_many_is_grad_i_bitwise():
    """np.vecdot takes ndarray.dot's row dots, so dense ridge lanes step as
    run() does, on every shape."""
    rng = np.random.default_rng(2465)
    for _ in range(300):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 300))
        dataset = property_dataset(rng, n, d, density=1.0, pad=0)
        oracle = make_oracle(dataset, "ridge", float(rng.uniform(1e-3, 2.0)))
        idx = rng.integers(n, size=int(rng.integers(1, 9)))
        X = rng.normal(size=(idx.size, oracle.d)) * 10.0 ** rng.integers(-3, 4)
        want = np.stack([oracle.grad_i(i, x) for i, x in zip(idx, X)])
        assert oracle.grad_many(idx, X).tobytes() == want.tobytes()


def scalar_row_reference(oracle, i, x):
    """(loss_i, grad_i) as the scalar kernel computed them with `@` row
    dots: mu*x + dphi(a @ x, b)*a on a dense row, the same on a CSR row's
    entries."""
    b = oracle.labels[i]
    if oracle._dense is not None:
        a = oracle._dense[i]
        m = float(a @ x)
        grad = oracle.mu * x + oracle._dphi(m, b) * a
    else:
        lo, hi = oracle.dataset.indptr[i], oracle.dataset.indptr[i + 1]
        idx, val = oracle.dataset.indices[lo:hi], oracle.dataset.values[lo:hi]
        m = float(val @ x[idx]) if idx.size else 0.0
        grad = oracle.mu * x
        if idx.size:
            grad[idx] += oracle._dphi(m, b) * val
    return oracle._phi(m, b) + 0.5 * oracle.mu * float(x @ x), grad


@pytest.mark.parametrize("loss", ["logistic", "ridge"])
@pytest.mark.parametrize("density", [0.1, 0.6])
@pytest.mark.parametrize("n, d", [(1, 3), (1, 40), (9, 3), (30, 17), (12, 300)])
def test_grad_i_and_loss_i_are_bitwise_the_scalar_reference(loss, density, n, d):
    rng = np.random.default_rng([n, d, int(10 * density), len(loss)])
    dataset = property_dataset(rng, n, d=d, density=density, pad=2)
    oracle = make_oracle(dataset, loss, 0.3)
    assert (oracle._dense is not None) == (dataset.nnz >= 0.25 * n * dataset.d)
    for _ in range(20):
        x = rng.normal(size=oracle.d) * rng.choice([1e-3, 1.0, 50.0])
        for i in range(n):
            want_loss, want_grad = scalar_row_reference(oracle, i, x)
            got_grad = oracle.grad_i(i, x)
            assert got_grad.tobytes() == want_grad.tobytes()
            assert oracle.loss_i(i, x) == want_loss


def test_full_loss_many_spans_several_blocks():
    rng = np.random.default_rng(9)
    for density in (0.1, 0.6):
        dataset = property_dataset(rng, 30, 12, density, pad=3)
        oracle = make_oracle(dataset, "logistic", 0.3)
        # more points than two blocks of 2**14 margins hold at n = 30
        points = rng.normal(size=(1200, oracle.d))
        want = [scalar_reference(oracle, y)[0].mean() for y in points]
        np.testing.assert_allclose(oracle.full_loss_many(points), want, rtol=1e-12)


def test_oracle_shares_the_dataset_csr_arrays():
    rng = np.random.default_rng(5)
    for density in (0.1, 0.6):
        dataset = property_dataset(rng, 20, 10, density, pad=0)
        oracle = make_oracle(dataset, "logistic", 0.1)
        assert np.shares_memory(oracle._indptr, dataset.indptr)
        assert np.shares_memory(oracle._indices, dataset.indices)
        assert np.shares_memory(oracle._values, dataset.values)
        assert np.shares_memory(oracle.labels, dataset.labels)


def test_csr_full_grad_does_not_copy_the_dataset_arrays():
    rng = np.random.default_rng(6)
    dataset = property_dataset(rng, 400, 2000, 0.2, pad=0)
    oracle = make_oracle(dataset, "logistic", 0.1)
    x = rng.normal(size=oracle.d)
    oracle.full_grad(x)
    tracemalloc.start()
    try:
        oracle.full_grad(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one per-entry temporary; np.bincount would add a copy of the indices
    assert peak < 1.5 * dataset.nnz * 8


@pytest.mark.parametrize("loss", ["logistic", "ridge"])
def test_csr_full_grad_sums_as_bincount_does(loss):
    # np.add.at and np.bincount both sum the entries in entry order
    rng = np.random.default_rng(8)
    for case in range(20):
        dataset = property_dataset(rng, int(rng.integers(2, 60)), 40, 0.1, pad=2)
        oracle = make_oracle(dataset, loss, 0.1)
        assert oracle._dense is None
        x = rng.normal(size=oracle.d) * 3.0
        per_entry = np.repeat(oracle._weights(x), oracle._counts) * oracle._values
        data = np.bincount(oracle._indices, weights=per_entry, minlength=oracle.d)
        want = data / oracle.n + oracle.mu * x
        assert oracle.full_grad(x).tobytes() == want.tobytes()


def test_smoothness_constant_formulas():
    # logistic, single row a=(2,0), mu=0.1: L = (1/4)*4 + 0.1
    oracle = make_oracle(parse_libsvm("+1 1:2", dim=2), "logistic", 0.1)
    assert oracle.L == pytest.approx(1.1, rel=1e-15)
    # zero rows: regularizer only, both losses
    empty = parse_libsvm("+1 1:0\n-1 1:0", dim=1)
    for loss in ("logistic", "ridge"):
        assert make_oracle(empty, loss, 1.0).L == 1.0


def test_smoothness_upper_bounds_hessian_spectrum():
    ds, _ = synthesize_quadratic(50, 8, 40.0, seed=9, mu=0.5)
    oracle = make_oracle(ds, "ridge", 0.5)
    A = dense_matrix(oracle)
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
            lhs = oracle.loss_i(i, y)
            rhs = (
                oracle.loss_i(i, x)
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
    with pytest.raises(IndexError):
        oracle.loss_i(1, np.zeros(1))
    with pytest.raises(IndexError):
        oracle.grad_i(-1, np.zeros(1))


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
