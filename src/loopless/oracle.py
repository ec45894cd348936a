"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) with per-sample gradients.

Two losses over a sparse dataset (a_i, b_i), both carrying the ridge term
inside every f_i so each f_i is mu-strongly convex:

    logistic:  f_i(x) = log(1 + exp(-b_i a_i^T x)) + (mu/2)||x||^2
    ridge:     f_i(x) = (1/2)(a_i^T x - b_i)^2     + (mu/2)||x||^2

Each loss is three kernels of the margin m = a_i^T x and a constant: the
scalar phi'(m, b) (_dphi) of grad_i's per-step path, phi and phi'
elementwise on arrays of margins (_phis, _dphis) for full-data calls, and
`curvature`, a bound on phi''.  L = curvature * max_i ||a_i||^2 + mu bounds
every f_i's smoothness; an oracle is not built when L is not finite (a
squared row norm past float64).

An oracle keeps a dense copy of the rows when at least a quarter of the
entries are nonzero, or when the copy fits _DENSE_CELLS (1 MiB) and at
least 1/16 of them are: on such data two BLAS gemv calls make a full pass
faster than the CSR kernels do.  Otherwise it works on the dataset's CSR
arrays, shared rather than copied.

grad_i runs one row through the scalar kernel on Python floats, which is
the optimizers' per-step hot path.  It takes the row dot with ndarray.dot,
which gives the bits of `a @ x` at about half its call cost, reads the
label and the CSR row bounds as Python scalars (.item), and gathers a CSR
row's entries of x with take.  corrections makes the variance-reduction
corrections grad_i(w) - grad_w of many steps in one call with grad_i's
arithmetic, so each row is bitwise grad_i's less grad_w: dense row dots
through np.vecdot (ndarray.dot's kernel), CSR row dots one by one as
grad_i takes them, and the scalar kernel for the weights.  Full-data calls
(full_grad, full_loss, grad_table and their batched forms) run all rows at
once with numpy: A @ x and r @ A on the dense copy, reduceat and add.at on
the CSR arrays.  Their logistic weight phi'(m) = -b / (1 + e^{b m}) takes
one in-place exp per margin, with no branch on the margin's sign: where
e^{b m} overflows to inf the weight is -0, its limit, and where the scalar
kernel's e/(1 + e) is subnormal it may be 0 instead.
Their sums are ordered differently from a row-by-row loop, so they agree
with it to rounding, not bitwise; only at n == 1 does full_grad take the
scalar kernel, so that full_grad(x) equals grad_i(0, x) bitwise there
(np.exp and math.exp can differ in the last bit).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .data import Dataset


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


# an oracle keeps a dense row copy of data with at most this many cells
# (1 MiB) and at least 1/16 of them nonzero.  full_grad in microseconds, CSR /
# dense (single-threaded, min of 25, 2-core Xeon):
#
#     shape      density 1/32   1/16      1/8
#     800x123        37 / 42   47 / 41   71 / 44
#     256x512        48 / 67   74 / 67  116 / 76
#     64x2048        31 / 58   45 / 59  107 / 75
#
# Below about 1/20 the dense pass costs up to 2-3x the CSR one.  a9a itself
# (32561 x 123, 4.0M cells) stays CSR.
_DENSE_CELLS = 1 << 17

# full_loss_many computes at most this many margins at once: about 128 KB per
# temporary, so a lemma report's n x n evaluations do not raise peak memory
_MARGINS_PER_BLOCK = 1 << 14


def _quiet_range(method):
    """Run a full-data method with numpy overflow and underflow ignored,
    whatever np.errstate the caller has set: the scalar kernel's math.exp and
    float arithmetic flush to 0 silently, and so must the same sums over all
    rows; the logistic weight's e^{b m} overflows to inf by design."""

    @functools.wraps(method)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", under="ignore"):
            return method(*args, **kwargs)

    return quiet


class Oracle:
    """Shared machinery; subclasses define the loss as three kernels of the
    margin, the scalar _dphi and the elementwise _phis and _dphis, and the
    constant `curvature` (an upper bound on phi'')."""

    curvature: float

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
        # dense rows for data at least a quarter nonzero, and for data whose
        # copy fits _DENSE_CELLS unless under 1/16 is nonzero (see there):
        # per-sample ops then skip the index gather, and full-data ops take
        # two BLAS gemv calls, not a gather, reduceat and add.at
        self._dense = None
        cells = self.n * self.d
        density = dataset.nnz / max(1, cells)
        if density >= 0.25 or (cells <= _DENSE_CELLS and density >= 1 / 16):
            self._dense = np.zeros((self.n, self.d))
            self._dense[self._row_ids(), self._indices] = self._values
        # a squared row norm past float64 is reported below, not warned about
        with np.errstate(over="ignore"):
            row_sq = dataset.row_sums(self._values * self._values)
        self._max_row_sq = float(row_sq.max())
        self.L = self.curvature * self._max_row_sq + self.mu
        if not self.L < math.inf:
            raise ValueError(f"smoothness bound L = {self.L} is not finite: "
                             "a squared row norm overflows float64")
        if self.L < self.mu:
            raise AssertionError("L >= mu must hold by construction")

    # phi'(m, b) of one margin m = a_i^T x, in Python floats
    def _dphi(self, m: float, b: float) -> float:
        raise NotImplementedError

    # phi and phi' elementwise on arrays of margins (labels broadcast)
    def _phis(self, m: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dphis(self, m: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _row_ids(self) -> np.ndarray:
        """The row of every stored entry (nnz,)."""
        return np.repeat(np.arange(self.n), self._counts)

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
        _, _, lane, entry = self._row_entries(idx)
        cols, vals = self._indices.take(entry), self._values.take(entry)
        margins = np.bincount(lane, weights=vals * X[lane, cols], minlength=len(idx))
        # a row's indices are distinct, so no (lane, col) pair repeats
        out[lane, cols] += self._dphis(margins, labels)[lane] * vals
        return out

    def corrections(self, idx: np.ndarray, w: np.ndarray,
                    grad_w: np.ndarray) -> np.ndarray:
        """grad_i(idx[s], w) - grad_w for every s, (S,) -> (S, d): the
        variance-reduction corrections of steps that share the reference
        point w.  Row s is grad_i's arithmetic, so it equals
        grad_i(idx[s], w) - grad_w bitwise: the same row dot (np.vecdot on
        dense rows, grad_i's per-row val.dot on CSR rows), the scalar _dphi,
        and mu*w plus the row term, less grad_w."""
        labels = self.labels.take(idx).tolist()
        if self._dense is not None:
            out = self._dense.take(idx, axis=0)
            weights = map(self._dphi, np.vecdot(out, w).tolist(), labels)
            out *= np.fromiter(weights, float, len(idx))[:, np.newaxis]
            out += self.mu * w
            out -= grad_w
            return out
        out = np.tile(self.mu * w, (len(idx), 1))
        starts, counts, lane, entry = self._row_entries(idx)
        values, indices = self._values, self._indices
        weights = [
            self._dphi(float(values[lo:lo + c].dot(w.take(indices[lo:lo + c]))), b)
            if c else 0.0
            for lo, c, b in zip(starts.tolist(), counts.tolist(), labels)
        ]
        out[lane, indices.take(entry)] += np.array(weights)[lane] * values.take(entry)
        out -= grad_w
        return out

    def _row_entries(self, idx: np.ndarray):
        """(starts, counts, lane, entry) of the CSR rows idx: each row's
        start and entry count, and for every stored entry of those rows, in
        order, its row's position s in idx and its position in the CSR
        arrays."""
        starts, counts = self._indptr.take(idx), self._counts.take(idx)
        lane = np.repeat(np.arange(len(idx)), counts)
        entry = np.arange(lane.size) + np.repeat(starts - np.cumsum(counts) + counts,
                                                 counts)
        return starts, counts, lane, entry

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

    @_quiet_range
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

    @_quiet_range
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
        data /= self.n
        data += self.mu * x
        return data

    @_quiet_range
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
    curvature = 0.25

    def _dphi(self, m, b):
        return -b * _sigmoid(-b * m)

    def _phis(self, m, b):
        t = -b * m
        return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))

    def _dphis(self, m, b):
        # -b sigmoid(-b m) = -b / (1 + e^{b m}), in place
        w = np.multiply(b, m)
        np.exp(w, out=w)
        w += 1.0
        np.divide(b, w, out=w)
        return np.negative(w, out=w)

    # np.exp overflows by design, and underflows where grad_i's math.exp
    # flushes to 0 silently
    grad_many = _quiet_range(Oracle.grad_many)


class RidgeOracle(Oracle):
    curvature = 1.0

    def _phis(self, m, b):
        r = m - b
        return 0.5 * r * r

    def _dphi(self, m, b):
        return m - b

    # the scalar expression is already elementwise
    _dphis = _dphi


_ORACLES = {"logistic": LogisticOracle, "ridge": RidgeOracle}


def make_oracle(dataset: Dataset, loss: str, mu: float) -> Oracle:
    try:
        cls = _ORACLES[loss]
    except KeyError:
        raise ValueError(f"unknown loss {loss!r}; expected one of {sorted(_ORACLES)}")
    return cls(dataset, mu)
