"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) with per-sample gradients.

Two losses over a sparse dataset (a_i, b_i), both carrying the ridge term
inside every f_i so each f_i is mu-strongly convex:

    logistic:  f_i(x) = log(1 + exp(-b_i a_i^T x)) + (mu/2)||x||^2
    ridge:     f_i(x) = (1/2)(a_i^T x - b_i)^2     + (mu/2)||x||^2

L is a cheap upper bound on every f_i's smoothness constant (max squared row
norm, scaled by the loss curvature bound, plus mu).  An oracle is not built
when L is not finite (a squared row norm past float64).

Per-sample calls (grad_i, loss_i) run one row through a scalar kernel on
Python floats, which is the optimizers' per-step hot path.  They take the
row dot with ndarray.dot, which gives the bits of `a @ x` at about half its
call cost, read the label and the CSR row bounds as Python scalars (.item),
and gather a CSR row's entries of x with take.  Full-data calls
(full_grad, full_loss, grad_table and their batched forms) run all rows at
once with numpy: A @ x and r @ A on a dense copy, reduceat and add.at on
the dataset's CSR arrays otherwise.  Their sums are ordered
differently from a row-by-row loop, so they agree with it to rounding, not
bitwise; only at n == 1 does full_grad take the scalar kernel, so that
full_grad(x) equals grad_i(0, x) bitwise there (np.exp and math.exp can
differ in the last bit).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .data import Dataset


def _softplus(t: float) -> float:
    # log(1 + e^t) without overflow
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


# full_loss_many computes at most this many margins at once: about 128 KB per
# temporary, so a lemma report's n x n evaluations do not raise peak memory
_MARGINS_PER_BLOCK = 1 << 14


def _quiet_underflow(method):
    """Run a full-data method with numpy underflow ignored: the scalar kernel's
    math.exp and float arithmetic flush to 0 silently, and so must the same
    sums over all rows, whatever np.errstate the caller has set."""

    @functools.wraps(method)
    def quiet(*args, **kwargs):
        with np.errstate(under="ignore"):
            return method(*args, **kwargs)

    return quiet


class Oracle:
    """Shared machinery; subclasses define the per-sample loss, as a scalar
    kernel (_phi, _dphi) and an elementwise numpy one (_phis, _dphis)."""

    def __init__(self, dataset: Dataset, mu: float):
        if mu <= 0.0:
            raise ValueError(f"mu must be positive (strong convexity), got {mu}")
        self.dataset = dataset
        self.mu = float(mu)
        self.n = dataset.n
        self.d = dataset.d
        self.labels = dataset.labels
        # the dataset's CSR arrays, shared rather than copied
        self._indptr = dataset.indptr
        self._indices = dataset.indices
        self._values = dataset.values
        self._counts = np.diff(self._indptr)
        # mostly-dense data gets dense row storage; per-sample ops then skip
        # the index gather, which matters in the per-step hot path
        self._dense = None
        if dataset.nnz / max(1, self.n * self.d) >= 0.25:
            self._dense = np.zeros((self.n, self.d))
            self._dense[self._row_ids(), self._indices] = self._values
        # a squared row norm past float64 is reported below, not warned about
        with np.errstate(over="ignore"):
            row_sq = dataset.row_sums(self._values * self._values)
        self._max_row_sq = float(row_sq.max())
        self.L = self._curvature_bound() * self._max_row_sq + self.mu
        if not self.L < math.inf:
            raise ValueError(f"smoothness bound L = {self.L} is not finite: "
                             "a squared row norm overflows float64")
        if self.L < self.mu:
            raise AssertionError("L >= mu must hold by construction")

    # per-sample scalar pieces, in terms of the margin m = a_i^T x
    def _phi(self, m: float, b: float) -> float:
        raise NotImplementedError

    def _dphi(self, m: float, b: float) -> float:
        raise NotImplementedError

    # the same pieces elementwise on arrays of margins (labels broadcast)
    def _phis(self, m: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dphis(self, m: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _curvature_bound(self) -> float:
        """Upper bound on phi'' over all margins."""
        raise NotImplementedError

    def _row_ids(self) -> np.ndarray:
        """The row of every stored entry (nnz,)."""
        return np.repeat(np.arange(self.n), self._counts)

    def loss_i(self, i: int, x: np.ndarray) -> float:
        if not 0 <= i < self.n:
            raise IndexError(f"sample index {i} out of range [0, {self.n})")
        if self._dense is not None:
            m = float(self._dense[i].dot(x))
        else:
            lo, hi = self._indptr.item(i), self._indptr.item(i + 1)
            m = float(self._values[lo:hi].dot(x.take(self._indices[lo:hi])))
        return self._phi(m, self.labels.item(i)) + 0.5 * self.mu * float(x.dot(x))

    def grad_i(self, i: int, x: np.ndarray) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"sample index {i} out of range [0, {self.n})")
        out = self.mu * x
        if self._dense is not None:
            a = self._dense[i]
            out += self._dphi(float(a.dot(x)), self.labels.item(i)) * a
            return out
        lo, hi = self._indptr.item(i), self._indptr.item(i + 1)
        if lo < hi:
            idx, val = self._indices[lo:hi], self._values[lo:hi]
            m = float(val.dot(x.take(idx)))
            out[idx] += self._dphi(m, self.labels.item(i)) * val
        return out

    def grad_many(self, idx: np.ndarray, X: np.ndarray) -> np.ndarray:
        """grad_i(idx[s], X[s]) for every row s, (S,) and (S, d) -> (S, d).

        The batched per-sample gradient of lane-batched runs.  On dense rows
        the row dots (np.vecdot, numpy's kernel behind ndarray.dot) and the
        update are grad_i's, so ridge gradients equal grad_i's bitwise; the
        logistic kernel (np.exp, not math.exp) and CSR row dots (bincount
        over the gathered entries) agree with grad_i's to rounding.
        """
        out = self.mu * X
        labels = self.labels.take(idx)
        if self._dense is not None:
            rows = self._dense.take(idx, axis=0)
            rows *= self._dphis(np.vecdot(rows, X), labels)[:, np.newaxis]
            out += rows
            return out
        starts, counts = self._indptr.take(idx), self._counts.take(idx)
        lane = np.repeat(np.arange(len(idx)), counts)
        # position of each gathered entry in the CSR arrays
        entry = np.arange(lane.size) + np.repeat(starts - np.cumsum(counts) + counts,
                                                 counts)
        cols, vals = self._indices.take(entry), self._values.take(entry)
        margins = np.bincount(lane, weights=vals * X[lane, cols], minlength=len(idx))
        # a row's indices are distinct, so no (lane, col) pair repeats
        out[lane, cols] += self._dphis(margins, labels)[lane] * vals
        return out

    def _margins(self, X: np.ndarray) -> np.ndarray:
        """a_i^T x for every row i, for x of shape (d,) or a stack (k, d)."""
        if self._dense is not None:
            return X @ self._dense.T
        # a 1-d gather is about 3x faster than the same gather through X[:, idx]
        entries = X[self._indices] if X.ndim == 1 else X[:, self._indices]
        entries *= self._values
        return self.dataset.row_sums(entries)

    def _weights(self, x: np.ndarray) -> np.ndarray:
        """phi'(a_i^T x, b_i) for every row i, (d,) -> (n,)."""
        return self._dphis(self._margins(x), self.labels)

    def full_loss(self, x: np.ndarray) -> float:
        return float(self.full_loss_many(x[np.newaxis])[0])

    @_quiet_underflow
    def full_loss_many(self, Y: np.ndarray) -> np.ndarray:
        """f at every row of Y, (k, d) -> (k,).  Points go through the data a
        block at a time, so the (block, n) margin temporaries stay small."""
        Y = np.asarray(Y, dtype=np.float64)
        data = np.empty(len(Y))
        step = max(1, _MARGINS_PER_BLOCK // self.n)
        for lo in range(0, len(Y), step):
            block = self._margins(Y[lo : lo + step])
            data[lo : lo + step] = self._phis(block, self.labels).sum(axis=1)
        return data / self.n + 0.5 * self.mu * np.einsum("ij,ij->i", Y, Y)

    @_quiet_underflow
    def full_grad(self, x: np.ndarray) -> np.ndarray:
        """(1/n) sum_i grad_i(i, x); costs n gradient calls in the accounting."""
        if self.n == 1:
            return self.grad_i(0, x)
        r = self._weights(x)
        if self._dense is not None:
            data = r @ self._dense
        else:
            per_entry = np.repeat(r, self._counts)
            per_entry *= self._values
            # unlike np.bincount, add.at does not copy the read-only indices
            data = np.zeros(self.d)
            np.add.at(data, self._indices, per_entry)
        return data / self.n + self.mu * x

    @_quiet_underflow
    def grad_table(self, x: np.ndarray) -> np.ndarray:
        """All per-sample gradients as an (n, d) array (diagnostics helper)."""
        r = self._weights(x)
        if self._dense is not None:
            return r[:, np.newaxis] * self._dense + self.mu * x
        out = np.tile(self.mu * x, (self.n, 1))
        rows = self._row_ids()
        out[rows, self._indices] += r[rows] * self._values
        return out


class LogisticOracle(Oracle):
    def _phi(self, m, b):
        return _softplus(-b * m)

    def _dphi(self, m, b):
        return -b * _sigmoid(-b * m)

    def _phis(self, m, b):
        t = -b * m
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))

    def _dphis(self, m, b):
        t = -b * m
        e = np.exp(-np.abs(t))
        return -b * np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def _curvature_bound(self):
        return 0.25

    # np.exp underflows where grad_i's math.exp flushes to 0 silently
    grad_many = _quiet_underflow(Oracle.grad_many)


class RidgeOracle(Oracle):
    def _phi(self, m, b):
        r = m - b
        return 0.5 * r * r

    def _dphi(self, m, b):
        return m - b

    # the scalar expressions are already elementwise
    _phis = _phi
    _dphis = _dphi

    def _curvature_bound(self):
        return 1.0


_ORACLES = {"logistic": LogisticOracle, "ridge": RidgeOracle}


def make_oracle(dataset: Dataset, loss: str, mu: float) -> Oracle:
    try:
        cls = _ORACLES[loss]
    except KeyError:
        raise ValueError(f"unknown loss {loss!r}; expected one of {sorted(_ORACLES)}")
    return cls(dataset, mu)
