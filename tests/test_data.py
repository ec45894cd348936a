import io

import numpy as np
import pytest

from loopless import data
from loopless.data import (
    Dataset,
    ParseError,
    SparseRow,
    normalize_rows,
    parse_libsvm,
    synthesize_quadratic,
    write_libsvm,
)

from conftest import random_dataset


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


def test_dim_override_pads_but_never_truncates():
    ds = parse_libsvm("+1 3:1", dim=10)
    assert ds.d == 10
    with pytest.raises(ParseError, match="dim override"):
        parse_libsvm("+1 3:1", dim=2)


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


def test_round_trip_padded_dimension_with_override():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng)
    padded = Dataset([SparseRow(r.indices, r.values) for r in ds.rows],
                     ds.labels, ds.d + 5)
    assert parse_libsvm(write_libsvm(padded), dim=padded.d) == padded


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
    ds = parse_libsvm("+1 1:0.5 3:-2\n-1 1:0\n-1 2:1", dim=5)
    assert ds.indptr.tolist() == [0, 2, 2, 3]
    assert ds.indices.tolist() == [0, 2, 1]
    assert ds.values.tolist() == [0.5, -2.0, 1.0]
    assert ds.nnz == 3 and ds.d == 5
    rows = ds.rows
    assert len(rows) == 3 and rows[1].nnz == 0
    assert rows[-1] == rows[2] == SparseRow(np.array([1]), np.array([1.0]))
    with pytest.raises(IndexError):
        rows[3]
    # views into the shared, read-only arrays
    assert np.shares_memory(rows[0].values, ds.values)
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
    A = np.stack([row.to_dense(d) for row in ds.rows])
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
    A = np.stack([row.to_dense(d) for row in ds.rows])
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


# -- the block fast path against the scalar parser ---------------------------


def _outcome(source, dim=None):
    """parse_libsvm's result as comparable bytes, or its error."""
    try:
        ds = parse_libsvm(source, dim=dim)
    except ValueError as err:
        return type(err), str(err), getattr(err, "line", None)
    return (ds.d, *(a.tobytes() for a in (ds.indptr, ds.indices, ds.values, ds.labels)))


def _assert_fast_matches_scalar(monkeypatch, source, dim=None):
    """source: text, or a list of lines (each one line, whatever it holds)."""
    fast = _outcome(source, dim)
    with monkeypatch.context() as m:
        m.setattr(data, "_parse_block_fast", lambda lines: None)
        scalar = _outcome(source, dim)
    assert fast == scalar, str(source)[:200]
    return fast


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


def test_fast_parse_matches_scalar_on_random_valid_files(monkeypatch):
    rng = np.random.default_rng(2024)
    for case in range(80):
        comments = case % 3 == 0
        # all-integer files, half of them within the fast path's 15 digits
        digits = {1: 15, 5: 18}.get(case % 8)
        text = _random_libsvm(rng, int(rng.integers(1, 40)), comments, digits)
        dim = None if rng.random() < 0.7 else int(rng.integers(150, 250))
        source = text.split("\n") if case % 5 == 1 else text
        _assert_fast_matches_scalar(monkeypatch, source, dim)
        if digits == 15 and not comments:
            # the fast path itself takes the (single) block
            assert data._parse_block_fast(io.StringIO(text).readlines()) is not None


def test_fast_parse_matches_scalar_across_blocks(monkeypatch):
    rng = np.random.default_rng(7)
    lines = _random_libsvm(rng, 3 * data._BLOCK_LINES // 2).splitlines()
    text = "\n".join(lines) + "\n"
    assert isinstance(_assert_fast_matches_scalar(monkeypatch, text)[0], int)
    for bad in ("+1 3:1 2:1", "+1 1:1 99", "x 1:1", "+1 0:1", "+1 1:1:2"):
        lineno = int(rng.integers(data._BLOCK_LINES + 1, len(lines) + 1))
        broken = lines[: lineno - 1] + [bad] + lines[lineno:]
        outcome = _assert_fast_matches_scalar(monkeypatch, "\n".join(broken))
        assert outcome[0] is ParseError and outcome[2] == lineno


def test_fast_parse_matches_scalar_on_malformed_strings(monkeypatch):
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
        parsed += isinstance(_assert_fast_matches_scalar(monkeypatch, text)[0], int)
    # one to three random edits of a valid file
    for _ in range(2000):
        text = _random_libsvm(rng, int(rng.integers(1, 4)), digits=18 if rng.random() < 0.5 else None)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(text) + 1))
            cut = int(rng.integers(2))
            text = text[:at] + str(rng.choice(pieces[:17])) * int(rng.integers(2)) \
                + text[at + cut:]
        parsed += isinstance(_assert_fast_matches_scalar(monkeypatch, text)[0], int)
    assert parsed > 500
    for text in ("+1 9007199254740993:1", "+1 1 :2", "+1 1: 2", "+1 1:1 :2", "+1 +1:1"):
        _assert_fast_matches_scalar(monkeypatch, text)
    # a list element is one line, even with a newline inside it
    for lines in (["+1 1:1\n-1 2:1"], ["+1 1:1\n", "\n-1 2:1"], ["+1", " 1:1"]):
        _assert_fast_matches_scalar(monkeypatch, lines)
