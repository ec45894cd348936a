import numpy as np
import pytest

from loopless import oracle as oracle_module
from loopless.data import Dataset, SparseRow, synthesize_quadratic
from loopless.diagnostics import ReferenceSolution
from loopless.oracle import make_oracle


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
