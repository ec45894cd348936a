"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) with per-sample gradients.

Two losses over a sparse dataset (a_i, b_i), both carrying the ridge term
inside every f_i so each f_i is mu-strongly convex:

    logistic:  f_i(x) = log(1 + exp(-b_i a_i^T x)) + (mu/2)||x||^2
    ridge:     f_i(x) = (1/2)(a_i^T x - b_i)^2     + (mu/2)||x||^2

Each loss is three kernels of the margin m = a_i^T x and a constant: the
scalar phi'(m, b) (_dphi) of every per-sample gradient, phi and phi'
elementwise on arrays of margins (_phis, _dphis) for full-data calls, and
`curvature`, a bound on phi''.  L = curvature * max_i ||a_i||^2 + mu bounds
every f_i's smoothness; an oracle is not built when L is not finite (a
squared row norm past float64).

An oracle keeps a dense copy of the rows when at least a quarter of the
entries are nonzero, or when the copy fits _DENSE_CELLS (1 MiB) and at
least 1/16 of them are: on such data two BLAS gemv calls make a full pass
faster than the CSR kernels do.  Otherwise it works on the dataset's CSR
arrays, shared rather than copied.

Every per-sample gradient is grad_i's arithmetic, bit for bit: grad_i of
one row, run()'s per-step path; corrections, the variance-reduction
corrections grad_i(w) - grad_w of many steps in one call, which run()
takes a stretch at a time; and grad_rows, one step of a run_lanes stack.
grad_i takes the row dot with ndarray.dot, which gives the bits of `a @ x`
at about half its call cost, reads the label and the CSR row bounds as
Python scalars (.item), gathers a CSR row's entries of x by indexing
(x[idx], cheaper than take for one row), and scales x by mu held as a 0-d
float64 array (_mu, cheaper than a Python float), as grad_rows scales its
rows.  The many-row forms take dense row dots through np.vecdot
(ndarray.dot's kernel), CSR row dots as one np.vecdot per run of rows of
one length (_row_dots), and _dphi for the weights (_dphi_rows; ridge's
m - b gives the same bits elementwise in numpy).

Full-data calls (full_grad, full_loss, grad_table and their batched forms)
run with numpy: A @ x and r @ A on the dense copy, all rows at once; on the
CSR arrays a row block at a time (data.RowBlock, at most data._BLOCK_ENTRIES
entries) by reduceat, add.at and, for grad_table's (n, d) table, one indexed
add, so none holds a temporary of the data's size beside its result, and
each row sum, add.at accumulation and table cell keeps the order, and the
bits, of one pass over every entry.
Their logistic weight phi'(m) = -b / (1 + e^{b m}) takes one in-place exp
per margin, with no branch on the margin's sign: where e^{b m} overflows to
inf the weight is -0, its limit, and where the scalar kernel's e/(1 + e)
is subnormal it may be 0 instead.  Their sums are ordered differently from
a row-by-row loop, so they agree with it to rounding, not bitwise; only at
n == 1 does full_grad take the scalar kernel, so that full_grad(x) equals
grad_i(0, x) bitwise there (np.exp and math.exp can differ in the last bit).

For the lemma reports an oracle also gives row_norms_sq, every ||a_i||^2,
and loss_along_rows(y, gamma), f(y + gamma_i a_i) for every row i; both
are made only when called, so an oracle without diagnostics does not
build them.  loss_along_rows evaluates all n points (O(n nnz)), except on
ridge with dense rows up to _GRAM_DIM columns: there it is exact from f(y),
the slopes a_i^T grad f(y) and the curvatures a_i^T H a_i, which come from
a d x d Gram matrix built once per oracle (O(d^2) memory).
"""

from __future__ import annotations

import functools
import itertools
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

# RidgeOracle.loss_along_rows builds a d x d Gram matrix from dense rows, 8 MB
# at this d; past it, and on CSR rows, the loss along rows is enumerated as
# for every other loss
_GRAM_DIM = 1000

# Oracle.gathered gathers at most this many cells (64 KiB) of a lane stack's
# steps at once: 20 steps of 10 lanes at d = 20.  Longer windows add peak
# memory and no speed
_WINDOW_CELLS = 1 << 13

# full_loss_many computes at most this many margins at once, and
# RidgeOracle._row_curvatures this many cells of rows @ gram: about 128 KB per
# temporary, so a lemma report's n x n evaluations do not raise peak memory.
# On CSR rows each pass also takes at most data._BLOCK_ENTRIES entries at once
_MARGINS_PER_BLOCK = 1 << 14


def _quiet_range(method):
    """Run a full-data method with numpy overflow, underflow and invalid
    values ignored, whatever np.errstate the caller has set: sums over all
    rows flush to 0 silently as the scalar kernels do, the logistic weight's
    e^{b m} overflows to inf by design, and callers check results for NaN."""

    @functools.wraps(method)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return method(*args, **kwargs)

    return quiet


def _row_dots(counts: list, vals: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The dot of each CSR row's entries vals with the point's entries at
    under them, counts the rows' entry counts: one np.vecdot per run of
    adjacent rows of one length, a row alone included, which gives each dot
    ndarray.dot's bits, grad_i's.  Rows ordered by length make the fewest
    runs."""
    dots, lo = [], 0
    for c, run in itertools.groupby(counts):
        k = len(list(run))
        hi = lo + k * c
        dots.append(np.vecdot(vals[lo:hi].reshape(k, c), at[lo:hi].reshape(k, c)))
        lo = hi
    return np.concatenate(dots)


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
        self._mu = np.array(self.mu)  # grad_i's and grad_rows' factor
        self.n = dataset.n
        self.d = dataset.d
        self.labels = dataset.labels
        # the dataset's CSR arrays, shared rather than copied
        self._indptr = dataset.indptr
        self._indices = dataset.indices
        self._values = dataset.values
        self._counts = np.diff(self._indptr)
        self._blocks = dataset.row_blocks  # full-data passes take a row block at a time
        # dense rows for data at least a quarter nonzero, and for data whose
        # copy fits _DENSE_CELLS unless under 1/16 is nonzero (see there):
        # per-sample ops then skip the index gather, and full-data ops take
        # two BLAS gemv calls, not a gather, reduceat and add.at
        self._dense = None
        cells = self.n * self.d
        density = dataset.nnz / max(1, cells)
        if density >= 0.25 or (cells <= _DENSE_CELLS and density >= 1 / 16):
            self._dense = np.zeros((self.n, self.d))
            rows = np.repeat(np.arange(self.n), self._counts)
            self._dense[rows, self._indices] = self._values
        self._max_row_sq = float(dataset.row_norms_sq().max())
        self.L = self.curvature * self._max_row_sq + self.mu
        if not self.L < math.inf:
            raise ValueError(f"smoothness bound L = {self.L} is not finite: "
                             "a squared row norm overflows float64")

    @functools.cached_property
    def row_norms_sq(self) -> np.ndarray:
        """||a_i||^2 for every row i (n,), made on first use."""
        return self.dataset.row_norms_sq()

    # phi'(m, b) of one margin m = a_i^T x, in Python floats
    def _dphi(self, m: float, b: float) -> float:
        raise NotImplementedError

    # phi and phi' elementwise on arrays of margins (labels broadcast)
    def _phis(self, m: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dphis(self, m: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dphi_rows(self, m: np.ndarray, b: np.ndarray) -> np.ndarray:
        """_dphi of each margin, bitwise: the per-sample weights."""
        return np.fromiter(map(self._dphi, m.tolist(), b.tolist()), float, len(m))

    def grad_i(self, i: int, x: np.ndarray) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"sample index {i} out of range [0, {self.n})")
        out = self._mu * x
        if self._dense is not None:
            a = self._dense[i]
            out += self._dphi(float(a.dot(x)), self.labels.item(i)) * a
            return out
        lo, hi = self._indptr.item(i), self._indptr.item(i + 1)
        if lo < hi:
            idx, val = self._indices[lo:hi], self._values[lo:hi]
            m = float(val.dot(x[idx]))
            out[idx] += self._dphi(m, self.labels.item(i)) * val
        return out

    def grad_rows(self, X: np.ndarray, labels: np.ndarray, rows,
                  out: np.ndarray) -> np.ndarray:
        """grad_i at X[s] of the s-th sample row of one step of gathered(),
        written into out (the shape of X) and returned: its labels, and its
        rows as an (S, d) array, which it writes over, or as CSR (lane,
        cols, vals, counts) entries.  Its row dots, weights and update are
        grad_i's, so each row is grad_i's bitwise."""
        np.multiply(self._mu, X, out=out)
        if self._dense is not None:
            rows *= self._dphi_rows(np.vecdot(rows, X), labels)[:, np.newaxis]
            out += rows
            return out
        lane, cols, vals, counts = rows
        weights = self._dphi_rows(_row_dots(counts, vals, X[lane, cols]), labels)
        # a row's indices are distinct, so no (lane, col) pair repeats
        out[lane, cols] += np.repeat(weights, counts) * vals
        return out

    def gathered(self, samples: np.ndarray):
        """grad_rows' (labels, rows) of each step of a (T, S) block of sample
        indices, gathered by one take (dense) or _row_entries call (CSR) per
        window of steps: as many as _WINDOW_CELLS cells hold at the block's
        largest step, or one.  A step's CSR rows come shortest first, for
        _row_dots, with their labels in that order; lane is each entry's
        sample position s."""
        width, dense = samples.shape[1], self._dense is not None
        cells = None if dense else self._counts.take(samples)
        largest = width * self.d if dense else int(cells.sum(axis=1).max(initial=0))
        steps = max(1, _WINDOW_CELLS // max(1, largest))
        for lo in range(0, len(samples), steps):
            window = samples[lo:lo + steps]
            if dense:
                yield from zip(self.labels.take(window), self._dense.take(window, axis=0))
                continue
            order = np.argsort(cells[lo:lo + steps], axis=1, kind="stable")
            window = np.take_along_axis(window, order, axis=1)
            counts, lane, cols, vals = self._row_entries(window.ravel())
            lane = order.ravel().take(lane)
            counts = counts.reshape(window.shape).tolist()
            stops = list(itertools.accumulate(map(sum, counts)))  # each step's entries end
            yield from zip(self.labels.take(window),
                           ((lane[a:b], cols[a:b], vals[a:b], c)
                            for a, b, c in zip([0, *stops], stops, counts)))

    def corrections(self, idx: np.ndarray, w: np.ndarray,
                    grad_w: np.ndarray) -> np.ndarray:
        """grad_i(idx[s], w) - grad_w for every s, (S,) -> (S, d): the
        variance-reduction corrections of steps that share the reference
        point w.  Row s is grad_i's arithmetic, so it equals
        grad_i(idx[s], w) - grad_w bitwise: the same row dot and weight, and
        mu*w plus the row term, less grad_w."""
        if self._dense is not None:
            out = self._dense.take(idx, axis=0)
            out *= self._dphi_rows(np.vecdot(out, w), self.labels.take(idx))[:, np.newaxis]
            out += self.mu * w
            out -= grad_w
            return out
        # the rows by length, so that rows of one length have adjacent entries
        order = np.argsort(self._counts.take(idx), kind="stable")
        rows = idx.take(order)
        counts, lane, cols, vals = self._row_entries(rows)
        weights = self._dphi_rows(_row_dots(counts.tolist(), vals, w.take(cols)),
                                  self.labels.take(rows))
        # a row's entries are (mu w + weight * a) - grad_w, as grad_i's less
        # grad_w; its other cells mu w - grad_w, the same in every row
        np.multiply(weights[lane], vals, out=vals)
        mu_w = self.mu * w
        np.add(mu_w.take(cols), vals, out=vals)
        vals -= grad_w.take(cols)
        out = np.tile(mu_w - grad_w, (len(idx), 1))
        out[order.take(lane), cols] = vals
        return out

    def _row_entries(self, idx: np.ndarray):
        """(counts, lane, cols, vals) of the CSR rows idx: each row's entry
        count, and for every stored entry of those rows, in order, its row's
        position s in idx, its column and its value."""
        starts, counts = self._indptr.take(idx), self._counts.take(idx)
        lane = np.repeat(np.arange(len(idx)), counts)
        entry = np.arange(lane.size) + np.repeat(starts - np.cumsum(counts) + counts,
                                                 counts)
        return counts, lane, self._indices.take(entry), self._values.take(entry)

    def _margins(self, X: np.ndarray) -> np.ndarray:
        """a_i^T x for every row i, for x of shape (d,) or a stack (k, d)."""
        if self._dense is not None:
            return X @ self._dense.T
        out = np.empty(X.shape[:-1] + (self.n,))
        for block in self._blocks:
            idx = self._indices[block.entries]
            # a 1-d gather is about 3x faster than the same gather through X[:, idx]
            entries = X[idx] if X.ndim == 1 else X[:, idx]
            entries *= self._values[block.entries]
            block.sums(entries, out)
            del entries  # freed before the next block's gather
        return out

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
            block = Y[lo : lo + step]
            data[lo : lo + step] = self._losses(self._margins(block), block)
        return data

    def _losses(self, margins: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """f at every row of Y from its margins, (k, n) and (k, d) -> (k,)."""
        return (self._phis(margins, self.labels).sum(axis=1) / self.n
                + 0.5 * self.mu * np.einsum("ij,ij->i", Y, Y))

    @_quiet_range
    def full_grad(self, x: np.ndarray) -> np.ndarray:
        """(1/n) sum_i grad_i(i, x); costs n gradient calls in the accounting."""
        if self.n == 1:
            return self.grad_i(0, x)
        data = self._sum_rows(self._weights(x))
        data /= self.n
        data += self.mu * x
        return data

    def _sum_rows(self, r: np.ndarray) -> np.ndarray:
        """sum_i r_i a_i, (n,) -> (d,)."""
        if self._dense is not None:
            return r @ self._dense
        # unlike np.bincount, add.at does not copy the read-only indices, and
        # it adds a block's entries after the last block's, in entry order
        data = np.zeros(self.d)
        for block in self._blocks:
            per_entry = np.repeat(r[block.rows], self._counts[block.rows])
            per_entry *= self._values[block.entries]
            np.add.at(data, self._indices[block.entries], per_entry)
            del per_entry  # freed before the next block's
        return data

    def _spread(self, r: np.ndarray, base: np.ndarray) -> np.ndarray:
        """base + r_i a_i for every row i, (n,) and (d,) -> (n, d); CSR rows
        a row block at a time, each cell written once."""
        if self._dense is not None:
            return r[:, np.newaxis] * self._dense + base
        out = np.tile(base, (self.n, 1))
        for block in self._blocks:
            counts = self._counts[block.rows]
            per_entry = np.repeat(r[block.rows], counts)
            per_entry *= self._values[block.entries]
            rows = np.repeat(np.arange(block.rows.start, block.rows.stop), counts)
            out[rows, self._indices[block.entries]] += per_entry
        return out

    @_quiet_range
    def grad_table(self, x: np.ndarray) -> np.ndarray:
        """All per-sample gradients as an (n, d) array."""
        return self._spread(self._weights(x), self.mu * x)

    # loss_along_rows evaluates f at all n points, O(n nnz) work and an
    # (n, d) table, unless a loss has it in closed form
    enumerates_along_rows = True

    @_quiet_range
    def loss_along_rows(self, y: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        """f(y + gamma_i a_i) for every row i, (d,) and (n,) -> (n,): f at y
        moved along each row.  Here by evaluating all n points through
        full_loss_many."""
        return self.full_loss_many(self._spread(gamma, y))


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


class RidgeOracle(Oracle):
    curvature = 1.0

    def _phis(self, m, b):
        r = m - b
        return 0.5 * r * r

    def _dphi(self, m, b):
        return m - b

    # the scalar expression is already elementwise, with the same bits
    _dphis = _dphi_rows = _dphi

    @property
    def enumerates_along_rows(self) -> bool:
        return self._dense is None or self.d > _GRAM_DIM

    @_quiet_range
    def loss_along_rows(self, y, gamma):
        """f(y + gamma_i a_i) for every row i, exact for a quadratic:
        f(y) + gamma_i a_i^T grad f(y) + gamma_i^2 a_i^T H a_i / 2, from one
        pass at y, one at grad f(y) and the cached a_i^T H a_i.  On CSR rows
        or past _GRAM_DIM columns it evaluates all n points, as Oracle's does."""
        if self.enumerates_along_rows:
            return super().loss_along_rows(y, gamma)
        # f(y) and grad f(y) inline, not through full_loss and full_grad:
        # those calls are counted by traces, and a report makes them only
        # where its table form did
        r = self._weights(y)
        f_y = 0.5 * float(r @ r) / self.n + 0.5 * self.mu * float(y @ y)
        grad = self._sum_rows(r)
        grad /= self.n
        grad += self.mu * y
        slope = self._margins(grad)
        return f_y + gamma * slope + 0.5 * gamma * gamma * self._row_curvatures

    @functools.cached_property
    def _row_curvatures(self) -> np.ndarray:
        """a_i^T H a_i for every row i (n,) of dense rows, H = A^T A / n + mu I
        the Hessian of f, from the d x d Gram matrix A^T A.  Rows go through
        it a block at a time, so no temporary is the size of the data.  Made
        on first use, and kept."""
        rows = self._dense
        gram = rows.T @ rows
        step = max(1, _MARGINS_PER_BLOCK // self.d)
        quad = np.concatenate([np.vecdot(rows[lo:lo + step] @ gram, rows[lo:lo + step])
                               for lo in range(0, self.n, step)])
        quad /= self.n
        quad += self.mu * self.row_norms_sq
        return quad


LOSSES = {"logistic": LogisticOracle, "ridge": RidgeOracle}


def make_oracle(dataset: Dataset, loss: str, mu: float) -> Oracle:
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}; expected one of {sorted(LOSSES)}")
    return LOSSES[loss](dataset, mu)
