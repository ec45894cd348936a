"""Sparse datasets: LIBSVM text parsing/writing and synthetic instances.

A dataset is n sparse feature rows with labels in {-1, +1}, stored once in
CSR form: ``indptr`` (row i owns entries indptr[i]:indptr[i+1]), ``indices``
(0-based, strictly increasing within a row) and ``values`` (nonzero).  File
indices are 1-based (LIBSVM convention) and are shifted to 0-based when
parsed.  ``Dataset.rows`` is a list of ``SparseRow`` views into those
arrays.  No module here reads rows: the row model stays for building a
dataset from a list of rows and counting entries row by row, as the
benchmark's a9a builder and tracer do.

Every way of building a Dataset (parsing, ``Dataset.from_csr``, the
row-list constructor) ends in one check of these invariants over the whole
arrays; a ``SparseRow`` converts its two arrays and checks only that they
are equally long.

``parse_libsvm`` sizes the CSR arrays from the text's newline and colon
counts and fills them a chunk of whole lines at a time: in bulk, or with
the line-by-line scalar parser (the specification) where a chunk is not plain.
A file is read twice, once to count and once a chunk at a time, so its
text is never held whole.

Passes over every stored entry (the oracle's margins and gradient sums,
squared row norms, ``normalize_rows``) go through the rows a block at a
time (``Dataset.row_blocks``): at most _BLOCK_ENTRIES entries, or one
longer row, so their per-entry temporaries stay small at any size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, TextIO

import numpy as np


class ParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(eq=False)
class SparseRow:
    """One sample: 0-based indices and their values, as equally long 1-d
    arrays.  A Dataset checks that the indices strictly increase and are
    nonnegative and that the values are nonzero, for all rows at once."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        # checked here: the concatenated arrays no longer show a row's length
        if self.indices.shape != self.values.shape or self.indices.ndim != 1:
            raise ValueError("indices and values must be 1-d and equally long")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def _frozen(a, dtype) -> np.ndarray:
    """A read-only view (the caller's array itself stays writable)."""
    view = np.asarray(a, dtype=dtype).view()
    view.flags.writeable = False
    return view


# stored entries per row block: a full-data pass's per-entry temporaries then
# hold 256 KB each, not 8 bytes per entry (3.6 MB at a9a's 455,854 entries).
# On a9a's shape a CSR full_grad took 2.56 ms at this size, 2.68 ms at 1 << 14
# and 2.86 ms in one block (median of 15, 2-core Xeon)
_BLOCK_ENTRIES = 1 << 15


class RowBlock(NamedTuple):
    """Consecutive rows of a Dataset that hold at most _BLOCK_ENTRIES stored
    entries between them, or one row that holds more."""

    rows: slice
    entries: slice
    starts: np.ndarray  # each nonempty row's first entry, from entries.start
    nonempty: np.ndarray | None  # the rows that hold entries; None: all do

    def sums(self, entries: np.ndarray, out: np.ndarray) -> None:
        """Sum the block's per-entry values along the last axis of entries
        over each row, into out[..., rows]; an empty row sums to 0.  Each
        row's sum is np.add.reduceat's over that row's entries alone."""
        if self.nonempty is None:
            np.add.reduceat(entries, self.starts, axis=-1, out=out[..., self.rows])
            return
        view = out[..., self.rows]
        view[...] = 0.0
        view[..., self.nonempty] = np.add.reduceat(entries, self.starts, axis=-1)


def _row_blocks(indptr: np.ndarray) -> list[RowBlock]:
    """The rows of CSR bounds indptr as RowBlocks, in order."""
    blocks, lo, n = [], 0, indptr.size - 1
    while lo < n:
        first = int(indptr[lo])
        # the most rows from lo whose entries fit, and at least one
        hi = max(lo + 1, int(np.searchsorted(indptr, first + _BLOCK_ENTRIES, "right")) - 1)
        starts = indptr[lo:hi]
        nonempty = starts < indptr[lo + 1:hi + 1]
        if nonempty.all():
            nonempty = None
        else:
            starts = starts[nonempty]
        blocks.append(RowBlock(slice(lo, hi), slice(first, int(indptr[hi])),
                               starts - first, nonempty))
        lo = hi
    return blocks


class Dataset:
    """n sparse rows in CSR arrays, their labels and the dimension d.

    ``Dataset(rows, labels, d)`` builds the arrays from a list of SparseRow;
    ``Dataset.from_csr`` wraps ready arrays (int64 and float64 ones are not
    copied).  The arrays are read-only, so oracles share them instead of
    copying, and ``rows`` hands out SparseRow views into them.
    ``row_blocks`` cuts the rows into RowBlocks once, for full-data passes.
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
        # one nnz-sized temporary: flag j is indices[j] <= indices[j - 1], and
        # the flags at row starts, which compare across rows, are cleared in place
        unordered = np.zeros(nnz + 1, dtype=bool)
        np.less_equal(self.indices[1:], self.indices[:-1], out=unordered[1:nnz])
        unordered[self.indptr] = False
        if unordered.any():
            raise ValueError("indices must be strictly increasing within a row")
        del unordered  # freed before the values check makes its own mask
        if nnz and self.indices.min() < 0:
            raise ValueError("indices must be nonnegative")
        if (self.values == 0.0).any():
            raise ValueError("stored values must be nonzero")
        # min and max propagate NaN: no nnz-sized temporary
        if nnz and not np.isfinite([self.values.min(), self.values.max()]).all():
            raise ValueError("values must be finite")
        max_index = int(self.indices.max()) if nnz else -1
        if self.d < max_index + 1:
            raise ValueError(f"d={self.d} smaller than max feature index {max_index}")
        self.row_blocks = _row_blocks(self.indptr)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def rows(self) -> list[SparseRow]:
        """One SparseRow per row, viewing the read-only arrays; made on each
        access and never stored."""
        bounds = self.indptr.tolist()
        return [SparseRow(self.indices[lo:hi], self.values[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])]

    def row_norms_sq(self) -> np.ndarray:
        """||a_i||^2 for every row i (n,), a row block at a time.  A square
        past float64 is inf, not warned about: callers report it."""
        out = np.empty(self.n)
        with np.errstate(over="ignore"):
            for block in self.row_blocks:
                values = self.values[block.entries]
                block.sums(values * values, out)
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


def _remap_labels(raw: np.ndarray) -> np.ndarray:
    finite = np.isfinite(raw)
    if not finite.all():
        raise ParseError(f"labels must be finite, got {raw[~finite][0]}")
    if (np.abs(raw) == 1.0).all():
        return raw
    # not np.unique: its first call raises peak memory by about 1.5 MB
    distinct = sorted(set(raw.tolist()))
    if len(distinct) == 2:
        return np.where(raw == distinct[0], -1.0, 1.0)
    raise ParseError(
        f"cannot map labels {distinct} onto {{-1,+1}}: need two distinct values "
        "(or values already in {-1,+1})"
    )


# characters per chunk: a chunk's numpy temporaries take 25 (float-heavy
# text) to 40 (a9a's short integers) bytes per character, about 1 MB here.
# 64K-character chunks parse a9a 5-15% faster but double that; 16K ones,
# with twice the numpy calls, are 5-25% slower.
_CHUNK = 1 << 15

# the bytes of a plain chunk: any other byte (``#``, ``e``, other letters,
# other whitespace, ...) sends the chunk to the scalar parser
_PLAIN_BYTES = b" \t\r\n:+-.0123456789"
# Clinger's fast path (PLDI 1990): an integer mantissa m < 2**53 and 10**k
# for k <= 22 are exact doubles, so m / 10**k is float()'s correctly rounded
# value
_EXACT_MANTISSA = 2.0**53
_EXACT_POWERS = 22
# 10**k as doubles; a digit further up than 10**22 only has to make its
# field's sum reach 2**53, which any nonzero one does
_TENS = np.array([10**k for k in range(_EXACT_POWERS + 2)], dtype=np.float64)


def _parse_block(lines: list[str], first: int):
    """Parse lines one token at a time; ``first`` is the first line's number.

    This is the parser's specification and its only error reporter.  Returns
    (labels, ends, indices, values): one label and one running entry count
    per row, then the kept entries' 0-based indices and values.
    """
    ends, indices, values, labels = [], [], [], []

    for lineno, line in enumerate(lines, start=first):
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
            if j > 2**63:  # j - 1 is stored as an int64
                raise ParseError(f"feature index {j} too large", lineno)
            if j <= prev:
                raise ParseError(
                    f"feature index {j} not increasing (previous {prev})", lineno
                )
            prev = j
            if v == 0.0:
                continue
            indices.append(j - 1)
            values.append(v)
        ends.append(len(indices))
        labels.append(label)
    return labels, ends, indices, values


def _parse_chunk_fast(chunk: str):
    """``_parse_block``'s result for the chunk's lines, computed on its
    bytes, then the chunk's newline count; or None.

    Accepts only chunks whose every line is plain: a label, then features
    ``index:value``, each number ``[+-]digits[.digits]`` (no exponent) and
    each index an integer.  The numbers are converted in bulk.  Any other
    chunk, and any failed check, gives None, so the scalar parser decides
    (and reports the error).
    """
    if not chunk.isascii():
        return None
    # "\n" around the chunk gives each field a byte on either side
    text = f"\n{chunk}\n".encode("ascii")
    if text.translate(None, _PLAIN_BYTES):  # a byte that is not plain
        return None
    raw = np.frombuffer(text, dtype=np.uint8)
    # fields are runs of number bytes, the plain bytes from "+" to "9" (uint8
    # wraps below "+"): field f spans [starts[f], stops[f])
    number = raw - ord("+") <= ord("9") - ord("+")
    flips = np.flatnonzero(number[1:] != number[:-1]) + 1
    starts, stops = flips[::2], flips[1::2]
    if not starts.size:
        return None
    # a ":" joins the fields on either side into one feature token
    is_index = raw[stops] == ord(":")
    is_value = raw[starts - 1] == ord(":")
    colons = np.count_nonzero(raw == ord(":"))
    if np.count_nonzero(is_index) != colons or np.count_nonzero(is_value) != colons:
        return None  # a ":" without a number on either side
    # a line's first field is its label: the first field after a "\n"
    newlines = np.flatnonzero(raw == ord("\n"))
    is_label = np.zeros(starts.size + 1, dtype=bool)
    is_label[np.searchsorted(starts, newlines)] = True
    is_label = is_label[:-1]
    # a label stands alone, and every other field is an index or a value:
    # exactly one of the three (a field right after a ":" is never a line's
    # first, as the ":" follows a field, checked above)
    if not (is_label ^ is_index ^ is_value).all():
        return None

    numbers = _plain_numbers(text, starts, stops)
    if numbers is None:
        return None
    numbers, integral = numbers
    if (is_index & ~integral).any():  # an index int() would not read exactly
        return None
    # each index field is followed by its value field, and by the next index
    # two fields on, unless a label comes first
    labels, indices = np.flatnonzero(is_label), np.flatnonzero(is_index)
    j, v = numbers[indices], numbers[indices + 1]
    ascending = (np.diff(j) > 0) | (np.diff(indices) != 2)
    if not (j >= 1).all() or not ascending.all():
        return None
    # row r's entries end at label r + 1, which has r + 1 labels and two
    # fields per entry before it
    ends = (np.append(labels[1:], starts.size) - np.arange(1, labels.size + 1)) // 2
    keep = v != 0.0
    if not keep.all():
        ends = np.cumsum(np.append(0, keep))[ends]
    # the indices stay exact integers in float64; storing them converts them
    return numbers[labels], ends, j[keep] - 1, v[keep], newlines.size - 2


def _plain_numbers(text, starts, stops):
    """Each field's value, as float() reads it, when every field is
    ``[+-]digits[.digits]`` with at least one digit; else None.

    Returns (numbers, integral): ``integral`` marks the fields without a
    point whose value is an exact integer below 2**53, as int() reads them.
    A field's digits, without the point, sum to its mantissa m; with k
    digits after the point, m < 2**53 and k <= 22 give m / 10**k, one
    correctly rounded division of exact doubles.  Any other field goes
    through float() on its own bytes.
    """
    raw = np.frombuffer(text, dtype=np.uint8)
    first = raw[starts]
    signed = (first == ord("+")) | (first == ord("-"))
    points = np.flatnonzero(raw == ord("."))
    field = np.searchsorted(starts, points, side="right") - 1
    pointed = np.zeros(starts.size, dtype=bool)
    pointed[field] = True
    fraction = np.zeros(starts.size, dtype=np.int64)  # k: digits after the point
    fraction[field] = stops[field] - 1 - points
    # the chunk is plain: without its other plain bytes, its digits remain
    digits = np.frombuffer(text.translate(None, b" \t\r\n:+-."), dtype=np.uint8) - ord("0")
    # a field may hold a leading sign, one point and digits; as a field has
    # at least the sign and the point it is marked for, equal totals mean
    # each holds exactly those
    count = stops - starts - signed - pointed  # each field's digits
    if count.min() < 1 or count.sum() != digits.size:
        return None
    # each digit's power of ten: the digits after it in its field (in place:
    # a chunk holds two digit-sized arrays of 8 bytes at a time)
    ends = np.cumsum(count)
    place = np.repeat(ends - 1, count)
    place -= np.arange(digits.size)
    # each term and partial sum below 2**53 is an exact integer, and a sum
    # that reaches 2**53 cannot round back below it, in any order
    np.minimum(place, _EXACT_POWERS + 1, out=place)
    terms = _TENS[place]
    del place
    terms *= digits
    mantissa = np.add.reduceat(terms, ends - count)
    exact = mantissa < _EXACT_MANTISSA
    numbers = mantissa
    if points.size:
        exact &= fraction <= _EXACT_POWERS
        numbers = mantissa / _TENS[np.minimum(fraction, _EXACT_POWERS)]
    for f in np.flatnonzero(~exact).tolist():
        numbers[f] = abs(float(raw[starts[f]:stops[f]].tobytes()))
    np.negative(numbers, out=numbers, where=first == ord("-"))
    return numbers, exact & ~pointed if points.size else exact


def _text_chunks(text: str):
    """text in chunks of whole lines: each ends with the first newline
    _CHUNK or more characters on, or with the text."""
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + _CHUNK) + 1 or len(text)
        yield text[lo:hi]
        lo = hi


def _file_chunks(file: TextIO):
    """_text_chunks of a file's text from where it stands, read a chunk at a
    time: _CHUNK characters, then the rest of the line they end in."""
    while chunk := file.read(_CHUNK) + file.readline():
        yield chunk


# characters per piece when the text's newlines and colons are counted.  For a
# file, besides taking fewer reads, a freed string this long lifts glibc
# malloc's dynamic mmap threshold to 1 MB (and its heap trim threshold to 2
# MB), so that each chunk's temporaries (about 1.3 MB) are then reused from the
# heap: in a fresh process, loading a 162,805-row a9a-shaped file took 66,756
# minor page faults with 32K-character counting reads and 5,813 with these
# (7,678 when the whole text was read at once)
_COUNT_CHARS = 1 << 20


def _count(pieces) -> tuple[int, int]:
    """The newlines and colons in the text of a run of pieces, counted on
    each piece's UTF-8 bytes, where no other character holds their bytes:
    with numpy, about 6x faster than str.count."""
    newlines = colons = 0
    for piece in pieces:
        raw = np.frombuffer(piece.encode("utf-8", "surrogatepass"), dtype=np.uint8)
        newlines += np.count_nonzero(raw == ord("\n"))
        colons += np.count_nonzero(raw == ord(":"))
    return newlines, colons


def parse_libsvm(source: str | TextIO) -> Dataset:
    """Parse LIBSVM text ("label idx:val idx:val ...", 1-based indices),
    given as a string or as a file to read().

    Blank lines and ``#`` comments (whole-line or trailing) are skipped.
    Labels are remapped onto {-1,+1}: a two-class raw label set maps its
    smaller value to -1; raw labels already in {-1,+1} are kept as-is.
    Explicit zero values are dropped, and d is the largest index seen.

    The arrays are sized once from the text's newline and colon counts: no
    row has more than one line and no stored entry is without a ":".  The
    text is then cut into chunks of whole lines, each about _CHUNK
    characters.  A chunk of plain tokens is parsed in bulk; any other chunk
    goes to the scalar parser, which gives the same result, or the error
    with its line number.  A file that can seek is read twice, to count and
    then a chunk at a time, so its text is never held whole; one that cannot
    is read whole first.

    Raises ParseError (with the offending line number) on malformed tokens,
    non-increasing indices within a line, unmappable or non-finite labels,
    or empty input, and ValueError on values that are not finite.
    """
    if isinstance(source, str) or not source.seekable():
        text = source if isinstance(source, str) else source.read()
        newlines, entries = _count(text[lo:lo + _COUNT_CHARS]
                                   for lo in range(0, len(text), _COUNT_CHARS))
        chunks = _text_chunks(text)
    else:
        start = source.tell()
        newlines, entries = _count(iter(functools.partial(source.read, _COUNT_CHARS), ""))
        source.seek(start)
        chunks = _file_chunks(source)
    rows = newlines + 1
    indptr = np.zeros(rows + 1, dtype=np.int64)
    raw_labels = np.empty(rows)
    indices = np.empty(entries, dtype=np.int64)
    values = np.empty(entries)

    n = nnz = 0
    line = 1  # the chunk's first line
    for chunk in chunks:
        parsed = _parse_chunk_fast(chunk)
        if parsed is None:  # the scalar parser numbers the chunk's lines
            parsed = *_parse_block(chunk.split("\n"), line), chunk.count("\n")
        chunk_labels, ends, chunk_indices, chunk_values, chunk_newlines = parsed
        line += chunk_newlines
        k, m = len(chunk_labels), len(chunk_indices)
        raw_labels[n:n + k] = chunk_labels
        indptr[n + 1:n + k + 1] = np.add(ends, nnz)
        indices[nnz:nnz + m] = chunk_indices
        values[nnz:nnz + m] = chunk_values
        n, nnz = n + k, nnz + m

    if not n:
        raise ParseError("empty dataset")
    labels = _remap_labels(raw_labels[:n])
    indices = indices[:nnz]

    d = int(indices.max()) + 1 if nnz else 0
    return Dataset.from_csr(indptr[:n + 1], indices, values[:nnz], labels, d)


def load_libsvm(path) -> Dataset:
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        return parse_libsvm(fh)


def _format_value(v: float) -> str:
    # repr is the shortest exact round-trip form; integral values drop ".0"
    # so already-normalized files survive a round trip byte-identically.
    s = repr(float(v))
    if s.endswith(".0"):
        s = s[:-2]
    return s


# pieces assembled per block: a block's temporaries stay near 1 MB (8 bytes
# of piece id and at most one padded piece per piece) at any file size
_WRITE_PIECES = 1 << 15


def write_libsvm(dataset: Dataset) -> str:
    """Serialize to LIBSVM text (1-based indices, labels as +1/-1).

    parse_libsvm(write_libsvm(ds)) == ds whenever ds.d is the tight dimension:
    the text does not record a padded one.

    Each distinct value is formatted once (_format_value) and each distinct
    column once (" j:"); the text is then assembled from that pool of byte
    pieces, a block of rows at a time: row i is the piece "\n+1" or "\n-1",
    then an index piece and a value piece per entry.
    """
    columns, column_piece = _column_ranks(dataset.indices)
    values, value_piece = np.unique(dataset.values, return_inverse=True)
    pool = np.array(
        ["\n-1", "\n+1"]
        + [f" {j + 1}:" for j in columns.tolist()]
        + list(map(_format_value, values.tolist())),
        dtype=np.bytes_,
    )  # fixed-width bytes: shorter pieces are padded with NUL, dropped below
    column_piece += 2
    value_piece += 2 + columns.size
    label_piece = (dataset.labels > 0).astype(np.int64)
    indptr = dataset.indptr
    # a block starts at the row that holds its first piece
    first_piece = np.arange(dataset.n + 1) + 2 * indptr  # each row's label
    starts = np.searchsorted(first_piece, np.arange(0, first_piece[-1], _WRITE_PIECES),
                             side="right") - 1
    bounds = np.unique(starts).tolist() + [dataset.n]
    chunks = []
    for r0, r1 in zip(bounds, bounds[1:]):
        lo, hi = indptr[r0], indptr[r1]
        entries = np.empty((hi - lo, 2), dtype=np.int64)
        entries[:, 0] = column_piece[lo:hi]
        entries[:, 1] = value_piece[lo:hi]
        pieces = np.insert(entries.ravel(), 2 * (indptr[r0:r1] - lo), label_piece[r0:r1])
        chunks.append(pool[pieces].tobytes().translate(None, b"\0"))
    return b"".join(chunks)[1:].decode("ascii") + "\n"


def _column_ranks(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(indices, return_inverse=True): the distinct columns, sorted,
    and each entry's rank among them.  Taken from one np.bincount table when
    the largest index is below nnz, so the table is no longer than indices;
    np.unique sorts every entry, about twice the time at a9a shape."""
    if indices.size and indices.max() < indices.size:
        present = np.bincount(indices) > 0
        return np.flatnonzero(present), (np.cumsum(present) - 1).take(indices)
    return np.unique(indices, return_inverse=True)


def save_libsvm(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_libsvm(dataset))


def normalize_rows(dataset: Dataset) -> Dataset:
    """Scale every nonempty row to unit Euclidean norm (new dataset).
    ValueError when a squared row norm or a scaled entry leaves float64."""
    norms = np.sqrt(dataset.row_norms_sq())
    counts = np.diff(dataset.indptr)
    values = np.empty(dataset.nnz)
    # such a row is reported below, once, not warned about
    with np.errstate(over="ignore", divide="ignore"):
        for block in dataset.row_blocks:
            rows, entries = block.rows, block.entries
            np.divide(dataset.values[entries], np.repeat(norms[rows], counts[rows]),
                      out=values[entries])
    try:
        return Dataset.from_csr(
            dataset.indptr, dataset.indices, values, dataset.labels, dataset.d
        )
    except ValueError:  # the input is valid CSR, so an entry is 0 or inf
        raise ValueError("a row cannot be scaled to unit norm: its squared norm "
                         "or a scaled entry leaves the float64 range") from None


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
    if not 1 <= condition_number < np.inf:  # NaN fails too
        raise ValueError(
            f"condition_number must be finite and >= 1, got {condition_number}"
        )
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")

    rng = np.random.default_rng(seed)
    rho_sq = (float(condition_number) - 1.0) * float(mu)
    if rho_sq == np.inf:
        raise ValueError(f"squared row norm (condition_number - 1) * mu = "
                         f"({condition_number} - 1) * {mu} overflows float64")
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
        # weights that underflow to 0 (a subnormal mu) leave NaN rows, which
        # are reported below as a Hessian that is not finite
        with np.errstate(divide="ignore", invalid="ignore"):
            G /= np.linalg.norm(G, axis=1, keepdims=True)
            A = rho * (
                np.sqrt(0.5) * np.tile(V[:, 0], (n, 1))
                + np.sqrt(0.5) * G @ V[:, 1 : d - 1].T
            )

    b = rng.choice([-1.0, 1.0], size=n)
    # an overflow is reported below, once, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        H = A.T @ A / n + mu * np.eye(d)
        if not np.isfinite(H).all():
            raise ValueError("the Hessian A^T A / n + mu I overflows float64")
        x_star = np.linalg.solve(H, A.T @ b / n)
    if not np.isfinite(x_star).all():
        raise ValueError("the minimizer overflows float64")

    dataset = Dataset.from_csr(*_dense_to_csr(A), b, d)
    return dataset, x_star
