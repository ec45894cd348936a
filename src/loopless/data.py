"""Sparse datasets: LIBSVM text parsing/writing and synthetic instances.

A dataset is n sparse feature rows with labels in {-1, +1}, stored once in
CSR form: ``indptr`` (row i owns entries indptr[i]:indptr[i+1]), ``indices``
(0-based, strictly increasing within a row) and ``values`` (nonzero).  File
indices are 1-based (LIBSVM convention) and are shifted to 0-based when
parsed.  ``Dataset.rows`` hands out ``SparseRow`` views into those arrays.
"""

from __future__ import annotations

import io
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np


class ParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class SparseRow:
    """One sample: strictly increasing 0-based indices with nonzero values."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ValueError("indices and values must be 1-d and equally long")
        if self.indices.size:
            if (np.diff(self.indices) <= 0).any():
                raise ValueError("indices must be strictly increasing")
            if self.indices[0] < 0:
                raise ValueError("indices must be nonnegative")
        if (self.values == 0.0).any():
            raise ValueError("stored values must be nonzero")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseRow):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )

    def to_dense(self, d: int) -> np.ndarray:
        out = np.zeros(d)
        out[self.indices] = self.values
        return out


def _frozen(a, dtype) -> np.ndarray:
    """A read-only view (the caller's array itself stays writable)."""
    view = np.asarray(a, dtype=dtype).view()
    view.flags.writeable = False
    return view


class Dataset:
    """n sparse rows in CSR arrays, their labels and the dimension d.

    ``Dataset(rows, labels, d)`` builds the arrays from a list of SparseRow;
    ``Dataset.from_csr`` wraps ready arrays (int64 and float64 ones are not
    copied).  The arrays are read-only, so oracles share them instead of
    copying, and ``rows`` hands out SparseRow views into them.
    """

    def __init__(self, rows: Iterable[SparseRow], labels, d: int):
        rows = list(rows)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([row.nnz for row in rows], out=indptr[1:])
        indices = np.concatenate([r.indices for r in rows] + [np.empty(0, np.int64)])
        values = np.concatenate([r.values for r in rows] + [np.empty(0)])
        self._init_csr(indptr, indices, values, labels, d)

    @classmethod
    def from_csr(cls, indptr, indices, values, labels, d: int) -> "Dataset":
        dataset = cls.__new__(cls)
        dataset._init_csr(indptr, indices, values, labels, d)
        return dataset

    def _init_csr(self, indptr, indices, values, labels, d):
        self.indptr = _frozen(indptr, np.int64)
        self.indices = _frozen(indices, np.int64)
        self.values = _frozen(values, np.float64)
        self.labels = _frozen(labels, np.float64)
        self.d = int(d)
        self.n = self.indptr.size - 1
        if self.n < 1:
            raise ValueError("dataset needs at least one row")
        if self.labels.shape != (self.n,):
            raise ValueError("labels and rows must have equal length")
        if not np.isin(self.labels, (-1.0, 1.0)).all():
            raise ValueError("labels must be -1 or +1")
        nnz = self.indices.size
        counts = np.diff(self.indptr)
        if (self.indptr[0] != 0 or (counts < 0).any() or self.indptr[-1] != nnz
                or self.values.shape != (nnz,)):
            raise ValueError("indptr, indices and values do not describe CSR rows")
        within_row = np.ones(max(nnz - 1, 0), dtype=bool)
        boundaries = self.indptr[1:-1]
        within_row[boundaries[(boundaries > 0) & (boundaries < nnz)] - 1] = False
        if (np.diff(self.indices)[within_row] <= 0).any():
            raise ValueError("indices must be strictly increasing within a row")
        if nnz and self.indices.min() < 0:
            raise ValueError("indices must be nonnegative")
        if (self.values == 0.0).any():
            raise ValueError("stored values must be nonzero")
        max_index = int(self.indices.max()) if nnz else -1
        if self.d < max_index + 1:
            raise ValueError(f"d={self.d} smaller than max feature index {max_index}")
        # row sums skip empty rows: reduceat cannot express an empty segment
        self._nonempty = counts > 0
        self._starts = self.indptr[:-1][self._nonempty]

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def rows(self) -> "_Rows":
        return _Rows(self)

    def row_sums(self, entries: np.ndarray) -> np.ndarray:
        """Sum per-entry values over each row, along the last axis (nnz -> n).

        Empty rows sum to 0.  ``entries`` may carry leading batch axes.
        """
        if self._starts.size == self.n:
            return np.add.reduceat(entries, self._starts, axis=-1)
        out = np.zeros(entries.shape[:-1] + (self.n,))
        out[..., self._nonempty] = np.add.reduceat(entries, self._starts, axis=-1)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.d == other.d
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d}, nnz={self.nnz})"


class _Rows(Sequence):
    """A dataset's rows as SparseRow views, made on access and never stored."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return self._dataset.n

    def __getitem__(self, i: int) -> SparseRow:
        ds = self._dataset
        if i < 0:
            i += ds.n
        if not 0 <= i < ds.n:
            raise IndexError(f"row {i} out of range [0, {ds.n})")
        lo, hi = ds.indptr[i], ds.indptr[i + 1]
        # a view over arrays the dataset validated: skip SparseRow's checks
        row = SparseRow.__new__(SparseRow)
        row.indices, row.values = ds.indices[lo:hi], ds.values[lo:hi]
        return row


def _as_lines(source: str | TextIO | Iterable[str]) -> Iterable[str]:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def _remap_labels(raw: np.ndarray) -> np.ndarray:
    distinct = sorted(set(raw.tolist()))
    if all(v in (-1.0, 1.0) for v in distinct):
        return raw
    if len(distinct) == 2:
        return np.where(raw == distinct[0], -1.0, 1.0)
    raise ParseError(
        f"cannot map labels {distinct} onto {{-1,+1}}: need two distinct values "
        "(or values already in {-1,+1})"
    )


def parse_libsvm(source: str | TextIO | Iterable[str], dim: int | None = None) -> Dataset:
    """Parse LIBSVM text ("label idx:val idx:val ...", 1-based indices).

    Blank lines and ``#`` comments (whole-line or trailing) are skipped.
    Labels are remapped onto {-1,+1}: a two-class raw label set maps its
    smaller value to -1; raw labels already in {-1,+1} are kept as-is.
    Explicit zero values are dropped.  ``dim`` pads the feature dimension
    beyond the largest index seen (it must not truncate).

    Raises ParseError (with the offending line number) on malformed tokens,
    non-increasing indices within a line, unmappable labels, or empty input.
    """
    # typed arrays grow in place: 16 bytes per stored entry, no per-row objects
    indptr = array("q", [0])
    indices = array("q")
    values = array("d")
    raw_labels = array("d")

    for lineno, line in enumerate(_as_lines(source), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad label {tokens[0]!r}", lineno) from None

        prev = 0
        for tok in tokens[1:]:
            part = tok.split(":")
            if len(part) != 2:
                raise ParseError(f"bad feature token {tok!r}", lineno)
            try:
                j = int(part[0])
                v = float(part[1])
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", lineno) from None
            if j < 1:
                raise ParseError(f"feature index {j} not 1-based", lineno)
            if j <= prev:
                raise ParseError(
                    f"feature index {j} not increasing (previous {prev})", lineno
                )
            prev = j
            if v == 0.0:
                continue
            indices.append(j - 1)
            values.append(v)
        indptr.append(len(indices))
        raw_labels.append(label)

    if not raw_labels:
        raise ParseError("empty dataset")
    labels = _remap_labels(np.frombuffer(raw_labels))
    indices = np.frombuffer(indices, dtype=np.int64)

    d = int(indices.max()) + 1 if indices.size else 0
    if dim is not None:
        if dim < d:
            raise ParseError(f"dim override {dim} smaller than max index + 1 = {d}")
        d = dim
    return Dataset.from_csr(
        np.frombuffer(indptr, dtype=np.int64), indices, np.frombuffer(values), labels, d
    )


def load_libsvm(path, dim: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        return parse_libsvm(fh, dim=dim)


def _format_value(v: float) -> str:
    # repr is the shortest exact round-trip form; integral values drop ".0"
    # so already-normalized files survive a round trip byte-identically.
    s = repr(float(v))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def write_libsvm(dataset: Dataset) -> str:
    """Serialize to LIBSVM text (1-based indices, labels as +1/-1).

    parse_libsvm(write_libsvm(ds)) == ds whenever ds.d is the tight dimension;
    a padded dimension must be re-applied via parse_libsvm(..., dim=ds.d).
    """
    indptr = dataset.indptr.tolist()
    indices = (dataset.indices + 1).tolist()
    values = dataset.values.tolist()
    lines = []
    for i, label in enumerate(dataset.labels.tolist()):
        lo, hi = indptr[i], indptr[i + 1]
        parts = ["+1" if label > 0 else "-1"]
        parts.extend(
            f"{j}:{_format_value(v)}" for j, v in zip(indices[lo:hi], values[lo:hi])
        )
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def save_libsvm(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_libsvm(dataset))


def normalize_rows(dataset: Dataset) -> Dataset:
    """Scale every nonempty row to unit Euclidean norm (new dataset)."""
    norms = np.sqrt(dataset.row_sums(dataset.values * dataset.values))
    counts = np.diff(dataset.indptr)
    values = dataset.values / np.repeat(norms, counts)
    return Dataset.from_csr(
        dataset.indptr, dataset.indices, values, dataset.labels, dataset.d
    )


def _dense_to_csr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, indices = np.nonzero(A)
    indptr = np.zeros(A.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=A.shape[0]), out=indptr[1:])
    return indptr, indices, A[rows, indices]


def synthesize_quadratic(
    n: int, d: int, condition_number: float, seed: int, mu: float = 1.0
) -> tuple[Dataset, np.ndarray]:
    """Deterministic ridge instance with a prescribed condition number.

    Returns (dataset, minimizer) where the minimizer solves the ridge problem
    f(x) = (1/2n)||Ax - b||^2 + (mu/2)||x||^2 exactly (d x d linear solve).

    Every row has squared norm (condition_number - 1) * mu, so the ridge
    oracle's L/mu equals condition_number exactly.  Half of each row's mass
    lies along one shared direction (keeping the top Hessian eigenvalue at
    least half the per-row bound), the rest is spread over directions whose
    weights decay log-uniformly down to the mu scale (so the minimizer
    excites genuinely slow modes), and one direction stays empty (pinning
    the smallest Hessian eigenvalue to mu).  The measured spectral condition
    therefore lands in [(condition_number + 1)/2, condition_number] for
    d >= 2.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if condition_number < 1:
        raise ValueError(f"condition_number must be >= 1, got {condition_number}")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")

    rng = np.random.default_rng(seed)
    rho_sq = (condition_number - 1.0) * mu
    rho = np.sqrt(rho_sq)

    if d == 1 or rho == 0.0:
        A = np.full((n, d), 0.0)
        A[:, 0] = rho
    elif d == 2:
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        signs = rng.choice([-1.0, 1.0], size=n)
        A = np.outer(signs * rho, V[:, 0])
    else:
        V, _ = np.linalg.qr(rng.standard_normal((d, d)))
        # per-direction weights for v_2 .. v_{d-1}, log-spaced from the row
        # scale down to the regularizer scale; v_d stays empty
        scales = np.sqrt(
            np.geomspace(rho_sq / 2.0, min(mu, rho_sq / 2.0), d - 2)
        )
        G = rng.standard_normal((n, d - 2)) * scales
        G /= np.linalg.norm(G, axis=1, keepdims=True)
        A = rho * (
            np.sqrt(0.5) * np.tile(V[:, 0], (n, 1))
            + np.sqrt(0.5) * G @ V[:, 1 : d - 1].T
        )

    b = rng.choice([-1.0, 1.0], size=n)
    H = A.T @ A / n + mu * np.eye(d)
    x_star = np.linalg.solve(H, A.T @ b / n)

    dataset = Dataset.from_csr(*_dense_to_csr(A), b, d)
    return dataset, x_star
