import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from loopless import data
from loopless.data import (
    Dataset,
    ParseError,
    SparseRow,
    load_libsvm,
    normalize_rows,
    parse_libsvm,
    synthesize_quadratic,
    write_libsvm,
)

from conftest import dense_rows, random_dataset


def test_parse_two_row_example():
    ds = parse_libsvm("+1 1:0.5 3:-2\n-1 2:1")
    assert ds.n == 2 and ds.d == 3
    assert list(ds.labels) == [1.0, -1.0]
    assert list(ds.rows[0].indices) == [0, 2]
    assert list(ds.rows[0].values) == [0.5, -2.0]
    assert list(ds.rows[1].indices) == [1]
    assert list(ds.rows[1].values) == [1.0]


def test_parse_empty_stream_fails():
    with pytest.raises(ParseError, match="empty"):
        parse_libsvm("")
    with pytest.raises(ParseError, match="empty"):
        parse_libsvm("# only a comment\n\n")


def test_parse_remaps_zero_one_labels():
    ds = parse_libsvm("0 1:1\n1 1:2")
    assert list(ds.labels) == [-1.0, 1.0]
    # round trip normalizes to the +1/-1 encoding and survives reparsing
    assert parse_libsvm(write_libsvm(ds)) == ds


def test_parse_remaps_one_two_labels():
    ds = parse_libsvm("2 1:1\n1 1:2\n2 2:3")
    assert list(ds.labels) == [1.0, -1.0, 1.0]


def test_parse_preserves_row_order():
    ds = parse_libsvm("+1 1:10\n-1 1:20\n+1 1:30")
    assert [row.values[0] for row in ds.rows] == [10.0, 20.0, 30.0]


def test_parse_accepts_comments_blank_lines_and_crlf():
    text = "# header\n+1 1:1 # trailing\r\n\r\n-1 2:2\n"
    ds = parse_libsvm(text)
    assert ds.n == 2 and ds.d == 2


def test_parse_drops_explicit_zero_values():
    ds = parse_libsvm("+1 1:0 2:5\n-1 2:1")
    assert ds.rows[0].nnz == 1
    assert list(ds.rows[0].indices) == [1]


@pytest.mark.parametrize(
    "text, lineno, pattern",
    [
        ("+1 1:1\n-1 2:1 2:3", 2, "not increasing"),
        ("+1 1:1\n-1 3:1 2:3", 2, "not increasing"),
        ("+1 0:1", 1, "not 1-based"),
        ("+1 1:abc", 1, "bad feature token"),
        ("+1 1", 1, "bad feature token"),
        ("abc 1:1", 1, "bad label"),
        ("+1 1:1:2", 1, "bad feature token"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, pattern):
    with pytest.raises(ParseError, match=pattern) as err:
        parse_libsvm(text)
    assert err.value.line == lineno


def test_parse_rejects_more_than_two_label_values():
    with pytest.raises(ParseError, match="cannot map labels"):
        parse_libsvm("0 1:1\n1 1:1\n2 1:1")


@pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_labels(label):
    with pytest.raises(ParseError, match="labels must be finite"):
        parse_libsvm(f"1 1:1\n{label} 1:2")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_datasets_reject_non_finite_values(value):
    with pytest.raises(ValueError, match="values must be finite"):
        parse_libsvm(f"1 1:{value} 2:1\n-1 1:2")
    with pytest.raises(ValueError, match="values must be finite"):
        Dataset.from_csr([0, 2], [0, 1], [1.0, float(value)], [1.0], 2)


def test_write_round_trip_two_row_example():
    ds = parse_libsvm("+1 1:0.5 3:-2\n-1 2:1")
    assert parse_libsvm(write_libsvm(ds)) == ds


def test_write_is_idempotent_after_one_round_trip():
    text0 = "+1 1:1\n"
    text1 = write_libsvm(parse_libsvm(text0))
    assert text1 == text0
    assert write_libsvm(parse_libsvm(text1)) == text1


def test_round_trip_random_datasets():
    rng = np.random.default_rng(314)
    for _ in range(200):
        ds = random_dataset(rng)
        assert parse_libsvm(write_libsvm(ds)) == ds


def _with_d(dataset: Dataset, d: int) -> Dataset:
    """The dataset's rows with dimension d: how a padded dataset is built."""
    return Dataset.from_csr(dataset.indptr, dataset.indices, dataset.values,
                            dataset.labels, d)


def test_round_trip_of_a_padded_dataset_gives_its_tight_copy():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng)
    padded = _with_d(ds, ds.d + 5)
    # the text has no dimension: the parse's d is the largest index
    assert write_libsvm(padded) == write_libsvm(ds)
    assert parse_libsvm(write_libsvm(padded)) == ds


def test_round_trip_fifty_by_twenty():
    rng = np.random.default_rng(50)
    ds = random_dataset(rng, max_n=50, max_d=20)
    assert parse_libsvm(write_libsvm(ds)) == ds


def test_sparse_row_invariants():
    row = SparseRow(np.array([0]), np.array([1.0]))
    # the row-list constructor checks its rows' entries on the CSR arrays
    for bad, match in [(([2, 1], [1.0, 1.0]), "strictly increasing"),
                       (([-1], [1.0]), "nonnegative"),
                       (([0], [0.0]), "nonzero")]:
        with pytest.raises(ValueError, match=match):
            Dataset([row, SparseRow(*bad)], np.ones(2), 3)
    # each row's lengths are checked on their own: here the two errors
    # cancel in the concatenated arrays and would shift values silently
    with pytest.raises(ValueError, match="equally long"):
        SparseRow(np.array([0, 1]), np.array([1.0]))
    with pytest.raises(ValueError, match="equally long"):
        Dataset([SparseRow([0, 1], [1.0]), SparseRow([0], [2.0, 3.0])], np.ones(2), 2)


def test_dataset_invariants():
    row = SparseRow(np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError, match="labels must be"):
        Dataset([row], np.array([2.0]), 1)
    with pytest.raises(ValueError, match="smaller than max"):
        Dataset([SparseRow(np.array([3]), np.array([1.0]))], np.array([1.0]), 2)
    with pytest.raises(ValueError, match="at least one row"):
        Dataset([], np.array([]), 1)


def test_dataset_is_csr_with_rows_as_views():
    ds = parse_libsvm("+1 1:0.5 3:-2\n-1 1:0\n-1 2:1")
    assert ds.indptr.tolist() == [0, 2, 2, 3]
    assert ds.indices.tolist() == [0, 2, 1]
    assert ds.values.tolist() == [0.5, -2.0, 1.0]
    assert ds.nnz == 3 and ds.d == 3
    rows = ds.rows
    assert isinstance(rows, list) and len(rows) == 3 and rows[1].nnz == 0
    assert rows[2].indices.tolist() == [1] and rows[2].values.tolist() == [1.0]
    # views into the shared, read-only arrays
    for row in rows:
        assert np.shares_memory(row.indices, ds.indices) or row.nnz == 0
        assert np.shares_memory(row.values, ds.values) or row.nnz == 0
        assert not (row.indices.flags.writeable or row.values.flags.writeable)
    for array in (ds.indptr, ds.indices, ds.values, ds.labels, rows[0].values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # the row-list constructor builds the same arrays
    assert Dataset(list(rows), ds.labels, ds.d) == ds
    assert Dataset.from_csr(ds.indptr, ds.indices, ds.values, ds.labels, ds.d) == ds
    # normalizing keeps the empty row empty
    unit = normalize_rows(ds)
    assert unit.indptr.tolist() == ds.indptr.tolist()
    assert unit.values.tolist() == pytest.approx([0.5 / 4.25**0.5, -2.0 / 4.25**0.5, 1.0])


def test_dataset_keeps_the_callers_arrays_writable():
    labels = np.array([1.0, -1.0])
    ds = Dataset([SparseRow([0], [1.0]), SparseRow([], [])], labels, 1)
    labels[0] = -1.0
    assert ds.labels[0] == -1.0  # shared, not copied
    assert labels.flags.writeable and not ds.labels.flags.writeable


def test_from_csr_invariants():
    labels = np.array([1.0, -1.0])
    # decreasing across a row boundary is fine, within a row it is not
    Dataset.from_csr([0, 1, 2], [3, 0], [1.0, 1.0], labels, 4)
    with pytest.raises(ValueError, match="strictly increasing"):
        Dataset.from_csr([0, 2, 2], [3, 0], [1.0, 1.0], labels, 4)
    with pytest.raises(ValueError, match="CSR"):
        Dataset.from_csr([0, 1, 3], [3, 0], [1.0, 1.0], labels, 4)
    with pytest.raises(ValueError, match="nonzero"):
        Dataset.from_csr([0, 1, 2], [3, 0], [1.0, 0.0], labels, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        Dataset.from_csr([0, 1, 2], [-1, 0], [1.0, 1.0], labels, 4)
    with pytest.raises(ValueError, match="smaller than max"):
        Dataset.from_csr([0, 1, 2], [3, 0], [1.0, 1.0], labels, 3)
    with pytest.raises(ValueError, match="labels and rows must have equal length"):
        Dataset.from_csr([0, 1, 2], [3, 0], [1.0, 1.0], labels[:1], 4)


def test_normalize_rows_unit_norm():
    ds = parse_libsvm("+1 1:3 2:4\n-1 1:1")
    out = normalize_rows(ds)
    assert np.isclose(np.linalg.norm(out.rows[0].values), 1.0)
    assert np.isclose(out.rows[0].values[0], 0.6)
    # original untouched
    assert ds.rows[0].values[0] == 3.0


def test_synthesize_deterministic_in_seed():
    a, xa = synthesize_quadratic(30, 6, 50.0, seed=9)
    b, xb = synthesize_quadratic(30, 6, 50.0, seed=9)
    c, _ = synthesize_quadratic(30, 6, 50.0, seed=10)
    assert a == b and np.array_equal(xa, xb)
    assert a != c


def test_synthesize_single_sample_closed_form():
    ds, x_star = synthesize_quadratic(1, 1, 1.0, seed=0, mu=2.0)
    assert ds.n == 1 and ds.d == 1
    # condition number 1 forces an empty data row, so the minimizer is 0
    assert ds.rows[0].nnz == 0
    assert x_star == pytest.approx([0.0])

    ds2, x2 = synthesize_quadratic(1, 1, 5.0, seed=0, mu=2.0)
    a = ds2.rows[0].values[0]
    b = ds2.labels[0]
    assert x2[0] == pytest.approx(a * b / (a * a + 2.0), rel=1e-12)


def test_synthesize_condition_number_measured_spectrally():
    n, d, kappa, mu = 100, 20, 100.0, 1.0
    ds, _ = synthesize_quadratic(n, d, kappa, seed=21, mu=mu)
    A = dense_rows(ds)
    H = A.T @ A / n + mu * np.eye(d)
    eigs = np.linalg.eigvalsh(H)
    measured = eigs[-1] / eigs[0]
    assert kappa / 2 <= measured <= 2 * kappa
    # max row norm pins the per-sample smoothness bound to kappa exactly
    max_sq = max(float(r.values @ r.values) for r in ds.rows)
    assert (max_sq + mu) / mu == pytest.approx(kappa, rel=1e-12)


def test_synthesize_minimizer_is_ridge_solution():
    n, d = 40, 7
    ds, x_star = synthesize_quadratic(n, d, 30.0, seed=5, mu=0.5)
    A = dense_rows(ds)
    H = A.T @ A / n + 0.5 * np.eye(d)
    expected = np.linalg.solve(H, A.T @ ds.labels / n)
    assert np.allclose(x_star, expected, rtol=1e-12, atol=1e-14)


def test_synthesize_validates_arguments():
    with pytest.raises(ValueError):
        synthesize_quadratic(0, 3, 10.0, seed=0)
    with pytest.raises(ValueError):
        synthesize_quadratic(3, 0, 10.0, seed=0)
    with pytest.raises(ValueError):
        synthesize_quadratic(3, 3, 0.5, seed=0)
    for mu in (0.0, float("nan")):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            synthesize_quadratic(3, 3, 10.0, seed=0, mu=mu)


# -- the block fast path against the scalar parser ---------------------------


def _outcome(source):
    """The parse's result as comparable bytes, or its error; a Path is
    read by load_libsvm."""
    try:
        ds = load_libsvm(source) if isinstance(source, Path) else parse_libsvm(source)
    except ValueError as err:
        return type(err), str(err), getattr(err, "line", None)
    return (ds.d, *(a.tobytes() for a in (ds.indptr, ds.indices, ds.values, ds.labels)))


def _scalar_outcome(source):
    """_outcome from the scalar parser alone: one _parse_block call over
    every line of the source, in one chunk as long as its text or file."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(data, "_parse_chunk_fast", lambda chunk: None)
        m.setattr(data, "_CHUNK", source.stat().st_size if isinstance(source, Path)
                  else len(source))
        return _outcome(source)


def _assert_fast_matches_scalar(source):
    """source: text or a Path."""
    fast = _outcome(source)
    assert fast == _scalar_outcome(source), str(source)[:200]
    return fast


def _fast_path_only(monkeypatch):
    """Fail the test if a chunk leaves the fast path."""
    def scalar(lines, first):
        raise AssertionError(f"the chunk from line {first} left the fast path")
    monkeypatch.setattr(data, "_parse_block", scalar)


def _random_number(rng, digits=None) -> str:
    """A value token; with ``digits``, an integer of at most that many digits."""
    pick = int(rng.choice([0, 1, 2]) if digits else rng.integers(7))
    if pick == 0:
        return str(rng.integers(-5, 6))
    if pick == 1:
        return f"+{rng.integers(0, 100)}"
    if pick == 2:  # about the exact-integer limit of 15 digits
        return str(rng.integers(0, 10 ** int(rng.integers(14, (digits or 18) + 1))))
    if pick == 3:
        return repr(float(rng.normal() * 10.0 ** rng.integers(-30, 30)))
    if pick == 4:  # underflows; overflows: test_datasets_reject_non_finite_values
        return f"{rng.integers(1, 10)}e{rng.integers(-400, 308)}"
    return str(rng.choice(["0", "0.0", "-0", "+0.000", ".5", "5.", "-.25E-1", "1E+2"]))


def _random_libsvm(rng, rows: int, comments=False, digits=None) -> str:
    labels = [["+1", "-1"], ["0", "1"], ["1", "2"], ["1.0", "-1.0"]]
    labels = labels[rng.integers(3 if digits else 4)]
    lines = []
    for _ in range(rows):
        sep = str(rng.choice([" ", "  ", "\t", " \t"]))
        idx = np.sort(rng.choice(200, size=int(rng.integers(0, 8)), replace=False)) + 1
        tokens = [str(rng.choice(labels))]
        tokens += [f"{'0' * int(rng.integers(2))}{j}:{_random_number(rng, digits)}"
                   for j in idx]
        line = sep.join(tokens)
        if rng.random() < 0.1:
            line = f" {line} "
        if comments and rng.random() < 0.1:
            line += " # note"
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "  ", "# comment" if comments else ""])))
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    return newline.join(lines) + newline


def test_fast_parse_matches_scalar_on_random_valid_files():
    rng = np.random.default_rng(2024)
    for case in range(80):
        comments = case % 3 == 0
        # all-integer files, half of them within the fast path's 15 digits
        digits = {1: 15, 5: 18}.get(case % 8)
        text = _random_libsvm(rng, int(rng.integers(1, 40)), comments, digits)
        _assert_fast_matches_scalar(text)
        if digits and not comments:
            # the fast path itself takes the file as one chunk
            assert data._parse_chunk_fast(text) is not None


def test_fast_parse_matches_scalar_across_chunks(monkeypatch):
    monkeypatch.setattr(data, "_CHUNK", 1000)
    rng = np.random.default_rng(7)
    lines = _random_libsvm(rng, 192).splitlines()
    text = "\n".join(lines) + "\n"
    assert len(text) > 3 * data._CHUNK
    assert isinstance(_assert_fast_matches_scalar(text)[0], int)
    for bad in ("+1 3:1 2:1", "+1 1:1 99", "x 1:1", "+1 0:1", "+1 1:1:2"):
        lineno = int(rng.integers(len(lines) // 2, len(lines) + 1))
        broken = lines[: lineno - 1] + [bad] + lines[lineno:]
        outcome = _assert_fast_matches_scalar("\n".join(broken))
        assert outcome[0] is ParseError and outcome[2] == lineno


def test_fast_parse_matches_scalar_on_malformed_strings():
    rng = np.random.default_rng(99)
    pieces = list("0123456789:.e+- \n") + [
        "1.2.3", "1e", "+1:1", "1:1:2", "1_0", "nan", "\u0663", "1:1", " 2:3",
        " 1:-0", "-1", "1e400", "\t", "\r\n", "#", "0:1",
    ]
    parsed = 0
    for _ in range(3000):
        text = "".join(rng.choice(pieces, size=int(rng.integers(0, 14))))
        if rng.random() < 0.5:
            text = rng.choice(["+1 ", "-1 ", "1 1:1\n"]) + text
        parsed += isinstance(_assert_fast_matches_scalar(text)[0], int)
    # one to three random edits of a valid file
    for _ in range(2000):
        text = _random_libsvm(rng, int(rng.integers(1, 4)), digits=18 if rng.random() < 0.5 else None)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(text) + 1))
            cut = int(rng.integers(2))
            text = text[:at] + str(rng.choice(pieces[:17])) * int(rng.integers(2)) \
                + text[at + cut:]
        parsed += isinstance(_assert_fast_matches_scalar(text)[0], int)
    assert parsed > 500
    for text in ("+1 9007199254740993:1", "+1 1 :2", "+1 1: 2", "+1 1:1 :2", "+1 +1:1"):
        _assert_fast_matches_scalar(text)


# -- decimal tokens on the chunk fast path -----------------------------------


def _decimal_token(rng) -> str:
    """[+-]digits.digits: 1 to 17 significant digits, leading zeros, the
    point anywhere (``.5`` and ``5.`` included), an optional sign."""
    significant = int(rng.integers(1, 18))
    digits = "0" * int(rng.integers(0, 4)) + str(
        rng.integers(10 ** (significant - 1), 10**significant))
    point = int(rng.integers(0, len(digits) + 1))
    return str(rng.choice(["", "+", "-"])) + digits[:point] + "." + digits[point:]


# about the edges of the exact conversion: mantissas at and above 2**53
# (float() reads those), fractions of 22 digits and longer, 17-digit reprs
_EDGE_DECIMALS = [
    "9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993.",
    "900719925474099.1", "900719925474099.3", ".9007199254740993", "4503599627370497.5",
    "123456789012345678901234567890", "1" + "0" * 30 + ".5",
    "0." + "0" * 21 + "1", "0." + "0" * 22 + "1", "1." + "0" * 25 + "1",
    "+0." + "0" * 40 + "7", "0.1", "0.30000000000000004", "2.2250738585072014",
    "1.7976931348623157", "5.", ".5", "-.5", "+5.", "0.0", "-0.0", "00000.000",
]


def test_fast_parse_reads_decimal_tokens_as_float_does(monkeypatch):
    rng = np.random.default_rng(1990)
    for case in range(60):
        lines = []
        for _ in range(int(rng.integers(1, 256))):
            idx = np.sort(rng.choice(300, size=int(rng.integers(0, 9)), replace=False)) + 1
            values = [_decimal_token(rng) if rng.random() < 0.8 else
                      str(rng.choice(_EDGE_DECIMALS)) for _ in idx]
            label = str(rng.choice(["+1", "-1", "1.0", "-1.", "+1.000"]))
            lines.append(" ".join([label] + [f"{j}:{v}" for j, v in zip(idx, values)]))
        text = "\n".join(lines) + "\n"
        outcome = _assert_fast_matches_scalar(text)
        assert isinstance(outcome[0], int)
        # the fast path itself takes every chunk
        with monkeypatch.context() as m:
            m.setattr(data, "_CHUNK", 2000)
            _fast_path_only(m)
            assert _outcome(text) == outcome


def test_fast_parse_values_equal_float_bitwise():
    tokens = _EDGE_DECIMALS + [_decimal_token(np.random.default_rng(k)) for k in range(500)]
    nonzero = [t for t in tokens if float(t) != 0.0]
    line = "+1 " + " ".join(f"{j}:{t}" for j, t in enumerate(nonzero, start=1))
    labels, ends, indices, values, newlines = data._parse_chunk_fast(line)
    assert np.array_equal(values, [float(t) for t in nonzero])
    assert values.tobytes() == np.array([float(t) for t in nonzero]).tobytes()
    assert indices.tolist() == list(range(len(nonzero))) and ends.tolist() == [len(nonzero)]
    assert newlines == 0 and data._parse_chunk_fast(f"{line}\n\n{line}\n")[4] == 3
    # the signs of zeros survive in labels, where nothing drops them
    for label in ("-0.0", "+0.0", "-.0", "0."):
        got = data._parse_chunk_fast(f"{label} 1:1")[0][0]
        assert got == 0.0 and np.signbit(got) == label.startswith("-")


@pytest.mark.parametrize("bad", ["1.0:2", "1.:2", ".5:2", "2:1.5.1", "2:.", "2:+.",
                                 "2:1.-5", "2:1e", "2:--1", "2:1+"])
def test_a_bad_decimal_gets_the_scalar_parsers_error(monkeypatch, bad):
    monkeypatch.setattr(data, "_CHUNK", 1000)
    rng = np.random.default_rng(5)
    lines = [f"+1 1:{_decimal_token(rng)} 3:0.25" for _ in range(256)]
    lineno = 135
    lines[lineno - 1] = f"-1 {bad} 9:1.5"
    outcome = _assert_fast_matches_scalar("\n".join(lines))
    assert outcome[0] is ParseError and outcome[2] == lineno
    assert "bad feature token" in outcome[1]


def test_chunks_are_whole_lines_and_a_long_line_is_one_chunk(monkeypatch):
    monkeypatch.setattr(data, "_CHUNK", 500)
    rng = np.random.default_rng(8)
    lines = [" ".join(["+1"] + [f"{j}:{_decimal_token(rng)}" for j in
                                range(1, int(rng.integers(1, 60)))]) for _ in range(300)]
    text = "\n".join(lines)
    chunks = []
    fast = data._parse_chunk_fast
    monkeypatch.setattr(data, "_parse_chunk_fast", lambda chunk: chunks.append(chunk) or fast(chunk))
    assert isinstance(_outcome(text)[0], int)
    assert "".join(chunks) == text  # the chunks cut the text after newlines
    for chunk in chunks[:-1]:
        # a chunk ends with the first newline _CHUNK characters on
        assert chunk.endswith("\n") and chunk.rfind("\n", 0, -1) < data._CHUNK < len(chunk)
    assert any("\n" not in chunk[:-1] and len(chunk) > data._CHUNK + 1 for chunk in chunks)
    # errors keep their line numbers
    lines[200] = lines[200] + " 1:2"
    outcome = _assert_fast_matches_scalar("\n".join(lines))
    assert outcome[0] is ParseError and outcome[2] == 201


def _chunk_cases(rng):
    """Sources for the chunk-boundary test: (name, text)."""
    for k in range(12):
        yield f"valid {k}", _random_libsvm(rng, int(rng.integers(1, 30)), k % 2 == 0,
                                           {1: 15, 3: 18}.get(k % 4))
    for k in range(30):
        text = _random_libsvm(rng, int(rng.integers(1, 6)))
        at = int(rng.integers(len(text) + 1))
        edit = str(rng.choice(list("0123456789:.e+- \n") + ["1:1:2", "x", "\r"]))
        yield f"malformed {k}", text[:at] + edit + text[at + int(rng.integers(2)):]
    long_line = " ".join(["+1"] + [f"{j}:{_decimal_token(rng)}" for j in range(1, 40)])
    yield "long line", f"-1 1:2\n{long_line}\n+1 3:4\n"
    yield "long bad line", f"-1 1:2\n{long_line} 1:1\n+1 3:4\n"
    yield "non-ASCII comment", "+1 1:1\n-1 2:0.5\n# caf\u00e9 \u0663:\u0663\n+1 2:1 5:.5\n-1 4:1\n"
    yield "comment colons, zero values", "+1 1:0 2:1 # a:b c:d\n# x:y\n-1 3:0.0 4:-0\n+1 2:7\n"


@pytest.mark.parametrize("chunk", [0, 1, 3, 7, 40])
def test_chunk_boundaries_do_not_change_the_parse(monkeypatch, tmp_path, chunk):
    # a chunk of 0 or 1 characters cuts at every line, bigger ones in between
    monkeypatch.setattr(data, "_CHUNK", chunk)
    for name, source in _chunk_cases(np.random.default_rng(31)):
        assert _outcome(source) == _scalar_outcome(source), name
    # more ":" than stored entries: the arrays are sized from the ":" count
    text = "+1 1:0 2:1 # a:b c:d\n# x:y\n-1 3:0.0 4:-0\n+1 2:7\n"
    assert parse_libsvm(text).nnz == 2 < text.count(":")
    # "\r\n" and lone "\r" line ends, read by load_libsvm as universal newlines
    for k, newline in enumerate(["\r\n", "\r", "\n"]):
        path = tmp_path / f"file{k}.txt"
        path.write_bytes(newline.join(["+1 1:1 3:2", "", "-1 2:0.5 # c", "+1 4:1"]).encode())
        assert _outcome(path) == _scalar_outcome(path) == _outcome("+1 1:1 3:2\n-1 2:0.5\n+1 4:1")
        with open(path, encoding="utf-8") as file:  # a file parses from where it stands
            file.readline()
            assert _outcome(file) == _outcome("-1 2:0.5\n+1 4:1")
        # a file, read a chunk at a time, parses as its text does
        for name, source in _chunk_cases(np.random.default_rng(31)):
            path.write_bytes(source.replace("\n", newline).encode())
            assert _outcome(path) == _outcome(path.read_text(encoding="utf-8")), (name, k)
        # past the first chunk, a file's error has its text's line number
        text = newline.join(["+1 1:1 3:2"] * 199 + ["-1 3:1 2:1"] + ["+1 1:1"] * 100)
        path.write_bytes(text.encode())
        assert _outcome(path) == _outcome(text.replace(newline, "\n")) == (
            ParseError, "line 200: feature index 2 not increasing (previous 3)", 200)


@pytest.mark.parametrize("normalized", [False, True])
def test_parse_memory_is_text_output_and_one_chunk(normalized, tmp_path):
    """The parse holds the CSR arrays it returns and one chunk's temporaries:
    no growing buffers, no per-row objects, and no copy of the text, which
    is the caller's string or is read from a file a chunk at a time."""
    rng = np.random.default_rng(4)
    n, d, k = 20_000, 123, 14  # a9a's shape: 14 binary features of 123 a row
    idx = np.concatenate([np.sort(np.argsort(rng.random((1000, d)), axis=1)[:, :k], axis=1)
                          for _ in range(n // 1000)])
    dataset = Dataset.from_csr(np.arange(n + 1) * k, idx.ravel(), np.ones(n * k),
                               rng.choice([-1.0, 1.0], size=n), d)
    if normalized:
        dataset = normalize_rows(dataset)
    text = write_libsvm(dataset)
    path = tmp_path / "data.svm"
    path.write_text(text, encoding="utf-8")
    # bytes: one chunk's numpy temporaries, at most 40 a character (_CHUNK's
    # figure), then the Dataset checks' masks, one byte an entry.  The text
    # is 1.5 MB, 6.2 MB normalized; a float64 per entry is 2.2 MB
    allowance = 40 * data._CHUNK + dataset.nnz
    for source in (text, io.StringIO(text), path):
        tracemalloc.start()
        try:
            parsed = load_libsvm(source) if source is path else parse_libsvm(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == dataset
        output = sum(a.nbytes for a in (parsed.indptr, parsed.indices, parsed.values,
                                        parsed.labels))
        assert peak <= output + allowance, (type(source), peak, output)


# -- the writer against the per-entry reference ------------------------------


def _reference_write(dataset: Dataset) -> str:
    """One f-string per entry: the writer's specification."""
    indptr = dataset.indptr.tolist()
    indices = (dataset.indices + 1).tolist()
    values = dataset.values.tolist()
    lines = []
    for i, label in enumerate(dataset.labels.tolist()):
        lo, hi = indptr[i], indptr[i + 1]
        parts = ["+1" if label > 0 else "-1"]
        parts.extend(
            f"{j}:{data._format_value(v)}" for j, v in zip(indices[lo:hi], values[lo:hi])
        )
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _csr(rows, d=None, seed=0):
    """A Dataset from (indices, values) rows, with random labels."""
    indptr = np.cumsum([0] + [len(idx) for idx, _ in rows])
    indices = np.array([j for idx, _ in rows for j in idx], dtype=np.int64)
    values = np.array([v for _, vals in rows for v in vals], dtype=np.float64)
    labels = np.random.default_rng(seed).choice([-1.0, 1.0], size=len(rows))
    top = int(indices.max()) + 1 if indices.size else 0
    return Dataset.from_csr(indptr, indices, values, labels, top if d is None else d)


def _writer_cases():
    rng = np.random.default_rng(77)
    idx = [0, 4, 122]
    yield "integers", _csr([(idx, [1.0, 2.0, -3.0]), ([1, 2], [7.0, 123456789.0])])
    yield "integral floats", _csr([(idx, [1e16, 1e22, -1e22]), ([5], [2.0**60]),
                                   ([3], [1e300])])
    yield "negatives", _csr([(idx, [-0.5, -1.0, -123.25])])
    yield "exponent reprs", _csr([(idx, [1e-05, -2.5e-300, 5e-324]), ([0], [1.5e17])])
    yield "distinct floats", _csr([(np.arange(50), rng.normal(size=50)) for _ in range(40)])
    yield "empty rows", _csr([([], []), ([], []), ([2], [0.5]), ([], []), ([0, 1], [1.0, 0.1]),
                              ([], [])])
    yield "all rows empty", _csr([([], [])] * 3)
    yield "padded d", _csr([([1], [1.0]), ([3], [0.25])], d=40)
    for k in range(20):
        yield f"random {k}", random_dataset(rng, max_n=30, max_d=40, tight=k % 2 == 0)


@pytest.mark.parametrize("pieces", [1, 7, 1 << 15])
def test_writer_matches_the_per_entry_reference(monkeypatch, pieces):
    # small blocks: rows split over many blocks, and rows longer than a block
    monkeypatch.setattr(data, "_WRITE_PIECES", pieces)
    for name, dataset in _writer_cases():
        text = write_libsvm(dataset)
        assert text == _reference_write(dataset), name
        assert _with_d(parse_libsvm(text), dataset.d) == dataset, name


def test_writer_matches_the_reference_across_blocks():
    rng = np.random.default_rng(12)
    n, d = 3000, 60
    nnz = rng.integers(0, 25, size=n)
    rows = [(np.sort(rng.choice(d, size=k, replace=False)),
             np.round(np.abs(rng.normal(size=k)), int(rng.integers(0, 6))) + 0.125) for k in nnz]
    dataset = _csr(rows, d=d, seed=3)
    assert dataset.nnz * 2 + n > 2 * data._WRITE_PIECES  # three blocks or more
    assert write_libsvm(dataset) == _reference_write(dataset)


def test_column_ranks_are_np_unique_from_either_table(monkeypatch):
    rng = np.random.default_rng(19)
    # largest index below nnz: the bincount table, np.unique not called
    table = [np.array([0]), np.array([2, 0, 1, 2]), np.arange(6)[::-1],
             rng.integers(0, 300, size=300), np.repeat([0, 40], 21)]
    # largest index at nnz or past it: np.unique
    sort = [np.array([], dtype=np.int64), np.array([1]), np.array([0, 5, 3]),
            np.arange(1, 7), np.array([7, 2**62, 0, 7])]
    for indices in sort:
        columns, ranks = data._column_ranks(indices)
        want_columns, want_ranks = np.unique(indices, return_inverse=True)
        assert columns.tolist() == want_columns.tolist()
        assert ranks.tolist() == want_ranks.tolist()
    want = [np.unique(indices, return_inverse=True) for indices in table]

    def no_sort(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", no_sort)
    for indices, (want_columns, want_ranks) in zip(table, want):
        columns, ranks = data._column_ranks(indices)
        assert columns.tolist() == want_columns.tolist()
        assert ranks.tolist() == want_ranks.tolist()
    monkeypatch.undo()
    # an index of 2**62 would take a 2**62-long table: the writer sorts instead
    text = "+1 1:0.5 4611686018427387905:2\n-1 3:1\n"
    dataset = parse_libsvm(text)
    assert write_libsvm(dataset) == _reference_write(dataset) == text


def test_an_index_past_int64_is_a_parse_error(monkeypatch):
    for index in ("9223372036854775809", "99999999999999999999"):
        outcome = _assert_fast_matches_scalar(f"+1 1:0.5\n-1 2:1 {index}:1.5\n")
        assert outcome[:2] == (ParseError, f"line 2: feature index {index} too large")
    # the largest index round-trips: the writer adds 1 in Python ints
    largest = parse_libsvm("+1 9223372036854775808:1")
    assert largest.d == 2**63 and write_libsvm(largest) == "+1 9223372036854775808:1\n"
