"""Golden CLI artifacts: each case runs one `loopless` command in a fresh
directory and compares what it returns, prints and leaves behind with the
copy checked in under tests/golden/<case>/.

expected.json holds the command, its exit code, its stdout and stderr lines
and the tree of paths it left (the inputs copied to in/ aside); out/ holds
those files.  The temporary directory's path is written as {tmp}.

differences compares two output files, here and in tests/bytewise.py: their
shapes exactly (CSV rows, header and row lengths, JSON keys and list lengths,
.npz names, dtypes and shapes), and each CSV cell, JSON value and .npz entry
by its type (integer, float, string; or JSON's true, false or null) and its
text (an entry's bytes), but for two floats of another text, which may still
match by a float rule:

    exact        never (tests/bytewise.py)
    _same_float  within 1e-12 relative, or 1e-15 absolute for rounding noise
                 such as an equality slack (this test)
    _same_bits   one float64 bit for bit (regeneration's keep rule)

No rule compares the TIMED values (wall_ns), which time a run.  After an
intended change of output, regenerate the cases it changes with

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

(no case name: every case) and name the files that changed.  A value keeps
its checked-in text where _same_bits matches it or it is TIMED, so the diff
shows every bit that moved, even where _same_float would accept the move.
The inputs are rewritten either way; write_inputs is seeded, so an
unchanged input stays byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from loopless.cli import main
from loopless.data import parse_libsvm
from loopless.oracle import make_oracle

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
TIMED = frozenset({"wall_ns"})

_RIDGE = ["--synthetic", "12,4,25", "--loss", "ridge", "--mu", "1"]
_CSR = ["--data", "{tmp}/in/csr_logistic.svm", "--loss", "logistic", "--mu", "0.1"]
_SPARSE = ["--data", "{tmp}/in/sparse_logistic.svm", "--loss", "logistic", "--mu", "0.1"]
_OUT = ["--out", "{tmp}/out"]

CASES = {
    "run_gd_distance": ["run", *_RIDGE, "--alg", "gd", "--epochs", "3", *_OUT],
    "run_svrg_distance": ["run", *_RIDGE, "--alg", "svrg", "--epochs", "3",
                          "--checkpoint-every", "0.5", "--seed", "4", *_OUT],
    "run_katyusha_distance": ["run", *_CSR, "--alg", "katyusha", "--epochs", "3",
                              "--seed", "2", *_OUT],
    "run_l-svrg_lyapunov": ["run", *_RIDGE, "--alg", "l-svrg", "--epochs", "3",
                            "--diagnostics", "lyapunov", "--seed", "1", *_OUT],
    "run_l-svrg_lemmas_csr": ["run", *_CSR, "--alg", "l-svrg", "--epochs", "2",
                              "--diagnostics", "lemmas", "--seed", "3", *_OUT],
    "run_l-katyusha_lyapunov": ["run", *_CSR, "--alg", "l-katyusha", "--epochs", "3",
                                "--diagnostics", "lyapunov", "--seed", "5", *_OUT],
    "run_l-katyusha_lemmas": ["run", *_RIDGE, "--alg", "l-katyusha", "--epochs", "2",
                              "--diagnostics", "lemmas", "--seed", "6", *_OUT],
    "run_l-katyusha_lemmas_sparse": ["run", *_SPARSE, "--alg", "l-katyusha", "--epochs",
                                     "2", "--diagnostics", "lemmas", "--seed", "8", *_OUT],
    "sweep-p": ["sweep-p", *_RIDGE, "--epochs", "3", "--grid", "2,5", *_OUT],
    "compare-all_ridge": ["compare-all", *_RIDGE, "--epochs", "4", "--seeds", "0,1,2",
                          "--thresholds", "1e-2,1e-4", *_OUT],
    "compare-all_csr_logistic": ["compare-all", *_CSR, "--epochs", "20",
                                 "--seeds", "0,1,2", "--thresholds", "1e-2,1e-4", *_OUT],
    "compare-all_sparse_logistic": ["compare-all", *_SPARSE, "--epochs", "10",
                                    "--seeds", "0,1,2", "--thresholds", "1e-1,1e-2", *_OUT],
    "solve-ref": ["solve-ref", *_CSR, "--normalize", *_OUT],
    "exit2_config": ["run", *_RIDGE, "--alg", "l-svrg", "--epochs", "nan", *_OUT],
    "exit3_data": ["run", "--data", "{tmp}/in/unsorted.svm", "--alg", "gd", *_OUT],
    "exit4_run": ["run", "--synthetic", "10,4,25", "--loss", "logistic", "--mu", "0.1",
                  "--alg", "l-svrg", "--epochs", "2", "--ref-max-epochs", "1",
                  "--ref-tolerance", "1e-14", *_OUT],
    "exit4_solve-ref": ["solve-ref", *_CSR, "--ref-max-epochs", "1",
                        "--ref-tolerance", "1e-14", *_OUT],
    "exit5_divergence": ["run", "--config", "{tmp}/in/huge_x0.json", "--alg", "l-svrg",
                         *_OUT],
}


def _svm_text(rng: np.random.Generator, n: int, d: int) -> str:
    """n LIBSVM rows of 3 of d features each; every third label is -1."""
    lines = []
    for i in range(n):
        columns = np.sort(rng.choice(d, size=3, replace=False)) + 1
        values = np.round(rng.normal(size=3), 3)
        label = "+1" if i % 3 else "-1"
        lines.append(label + "".join(f" {j}:{v!r}"
                                     for j, v in zip(columns.tolist(), values.tolist())))
    return "\n".join(lines) + "\n"


def write_inputs(directory: Path):
    """The input files the cases read: a sparse LIBSVM file (3 of 20 features
    per row, which the oracle keeps as dense rows at this size), one with
    unsorted indices, a config whose x0 overflows, and a sparser LIBSVM file
    (3 of 64 features per row, under 1/16 nonzero: the oracle keeps CSR rows).
    Each file has its own seed, so adding one leaves the others as they were."""
    directory.mkdir(parents=True, exist_ok=True)
    text = _svm_text(np.random.default_rng(16), 30, 20)
    (directory / "csr_logistic.svm").write_text(text, encoding="utf-8")
    (directory / "unsorted.svm").write_text("+1 2:1 1:3\n", encoding="utf-8")
    config = {"synthetic": [10, 4, 25.0], "loss": "ridge", "mu": 1.0, "epochs": 2.0,
              "x0": [1e308] * 4}
    (directory / "huge_x0.json").write_text(json.dumps(config) + "\n", encoding="utf-8")
    text = _svm_text(np.random.default_rng(64), 40, 64)
    (directory / "sparse_logistic.svm").write_text(text, encoding="utf-8")


def execute(argv: list[str], tmp: Path, inputs: Path) -> tuple[int, str, str, list[str]]:
    """Run `loopless argv` in tmp, with the inputs copied to tmp/in and {tmp}
    in argv standing for tmp: its exit code (argparse's too, which exits),
    stdout and stderr, and the paths it left in tmp (in/ aside; a
    directory's ends in /)."""
    shutil.copytree(inputs, tmp / "in")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), sorted(
        str(p.relative_to(tmp)) + ("/" if p.is_dir() else "")
        for p in tmp.rglob("*") if p.relative_to(tmp).parts[0] != "in")


def run_case(name: str, tmp: Path, inputs: Path = INPUTS) -> dict:
    """Run a case in tmp and return its expected.json record; its outputs are
    left in tmp."""
    code, stdout, stderr, tree = execute(CASES[name], tmp, inputs)
    return {"argv": CASES[name], "exit": code, "stdout": _untmp(stdout, tmp).splitlines(),
            "stderr": _untmp(stderr, tmp).splitlines(), "tree": tree}


def _untmp(text: str, tmp: Path) -> str:
    return text.replace(str(tmp), "{tmp}")


def exact(a: float, b: float) -> bool:
    return False


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-12,
                                                              abs_tol=1e-15)


def _same_bits(a: float, b: float) -> bool:
    """a and b are one float64, bit for bit (any two NaNs alike): what
    regeneration keeps."""
    return float(a).hex() == float(b).hex()


class _Int(str):  # an integer of a JSON or CSV file, as its text
    __repr__ = str.__str__


class _Float(str):  # a float of a JSON or CSV file (NaN and Infinity too), as its text
    __repr__ = str.__str__


def differences(got: Path, want: Path, same, tmp: Path | None = None):
    """Yield (where, got's side, want's side) for each shape or value in which
    output file got differs from want under the float rule same.  where is a
    CSV cell's (line, column), the keys and indices down to a JSON value, an
    .npz entry's (name, index), or a shorter path to a shape.  got's text has
    tmp written as {tmp}."""
    if want.suffix == ".npz":
        with np.load(got) as a, np.load(want) as b:
            yield from _walk(dict(a), dict(b), same)
        return
    text, expected = got.read_text(encoding="utf-8"), want.read_text(encoding="utf-8")
    text = _untmp(text, tmp) if tmp else text
    if want.suffix == ".json":
        numbers = {"parse_int": _Int, "parse_float": _Float, "parse_constant": _Float}
        yield from _walk(json.loads(text, **numbers), json.loads(expected, **numbers), same)
    elif want.suffix == ".csv":
        rows, want_rows = (list(csv.reader(io.StringIO(t))) for t in (text, expected))
        if len(rows) != len(want_rows):
            yield (), f"{len(rows)} rows", f"{len(want_rows)} rows"
            return
        for line, (row, want_row) in enumerate(zip(rows, want_rows), start=1):
            if len(row) != len(want_row):
                yield (line,), row, want_row
                continue
            for column, a, b in zip(rows[0], map(_cell, row), map(_cell, want_row)):
                if line == 1 or column not in TIMED:
                    yield from _walk(a, b, same, (line, column))
    elif text != expected:
        yield (), "its text", "another"


def _walk(a, b, same, where=()):
    """differences between two CSV cells, JSON values or .npz {name: array}s."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            yield where, sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys())
            return
        for key in a:
            if key not in TIMED:
                yield from _walk(a[key], b[key], same, (*where, key))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _walk(x, y, same, (*where, i))
    elif isinstance(a, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape:
            yield where, f"{a.dtype}{a.shape}", f"{b.dtype}{b.shape}"
        elif a.tobytes() != b.tobytes():
            for i, (x, y) in enumerate(zip(a.ravel(), b.ravel())):
                if x.tobytes() != y.tobytes() and not same(float(x), float(y)):
                    yield (*where, i), x.item(), y.item()
    elif type(a) is not type(b) or a != b and not (type(a) is _Float
                                                    and same(float(a), float(b))):
        yield where, a, b  # in type, or in text but for two floats that same matches


def _cell(text: str):
    """A CSV cell as the JSON value it reads as: an _Int, a _Float or a string."""
    for kind, parse in (_Int, int), (_Float, float):
        with contextlib.suppress(ValueError):
            parse(text)
            return kind(text)
    return text


def describe(where: tuple, a, b) -> str:
    """A difference in one line: where, its two sides, and how far apart they
    are when both are numbers of one type."""
    try:
        x, y = float(a), float(b)
        far = ("another type" if type(a) is not type(b) else "both zero" if x == y == 0
               else f"rel {abs(x - y) / max(abs(x), abs(y)):.1e}")
    except (TypeError, ValueError):
        far = "not numbers"
    return f"{list(where)}: {a!r} != {b!r} ({far})"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_its_golden_copy(tmp_path, name):
    expected = json.loads((GOLDEN / name / "expected.json").read_text(encoding="utf-8"))
    assert run_case(name, tmp_path) == expected
    for path in expected["tree"]:
        if not path.endswith("/"):
            assert [describe(*difference) for difference in differences(
                tmp_path / path, GOLDEN / name / path, _same_float, tmp_path)] == [], path


def test_differences_reports_each_planted_change(tmp_path):
    """Under exact each planted change is one line that says where it is, and
    a TIMED move is none; _same_float matches a 1e-16 relative move and no
    number that became a string."""
    bit, got, want = repr(math.nextafter(0.1, 1.0)), tmp_path / "got", tmp_path / "want"
    files = {"t.csv": "k,dist_sq,f_gap,wall_ns\n0,0.1,0.0,17\n",
             "s.json": '{"seed": 0, "wall_ns": 17}'}
    string = ["['seed']: '0' != 0 (another type)"]
    for name, old, new, same, lines in [  # got is want with old replaced by new
            ("t.csv", "0.1", bit, exact, [f"[2, 'dist_sq']: {bit} != 0.1 (rel 1.4e-16)"]),
            ("t.csv", ",0.0,", ",-0.0,", exact, ["[2, 'f_gap']: -0.0 != 0.0 (both zero)"]),
            ("t.csv", "0,0.1", "0.0,0.1", exact, ["[2, 'k']: 0.0 != 0 (another type)"]),
            ("t.csv", "f_gap", "wall_ns", exact,
             ["[1, 'wall_ns']: 'wall_ns' != 'f_gap' (not numbers)"]),
            ("t.csv", "17", "18", exact, []),
            ("s.json", "0,", '"0",', exact, string),
            ("s.json", "17", "18", exact, []),
            ("t.csv", "0.1", bit, _same_float, []),
            ("s.json", "0,", '"0",', _same_float, string)]:
        for side, text in (got, files[name].replace(old, new)), (want, files[name]):
            side.mkdir(exist_ok=True)
            (side / name).write_text(text, encoding="utf-8")
        assert [describe(*difference) for difference in differences(
            got / name, want / name, same)] == lines, new
    np.savez(got / "a.npz", x=[0.5, 0.75])
    np.savez(want / "a.npz", x=[0.5, 0.25])
    assert [describe(*difference) for difference in differences(
        got / "a.npz", want / "a.npz", exact)] == ["['x', 1]: 0.75 != 0.25 (rel 6.7e-01)"]


def test_inputs_are_what_write_inputs_writes(tmp_path):
    write_inputs(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in INPUTS.iterdir())
    for path in tmp_path.iterdir():
        assert path.read_bytes() == (INPUTS / path.name).read_bytes(), path.name


def test_the_sparse_input_runs_on_the_csr_kernels():
    """The cases on _SPARSE reach the CSR branches end to end: its oracle
    keeps no dense copy of the rows."""
    dataset = parse_libsvm((INPUTS / "sparse_logistic.svm").read_text(encoding="utf-8"))
    assert (dataset.n, dataset.d) == (40, 64)
    assert make_oracle(dataset, "logistic", 0.1)._dense is None


def test_regeneration_keeps_what_did_not_move(tmp_path):
    """Regenerating an unchanged case into a copy of the golden directory
    rewrites no byte, wall_ns included; a cell that moved takes the new value,
    whether past the tolerance or within it, and wall_ns keeps the checked-in
    text."""
    name, trace = "run_l-svrg_lyapunov", "out/l-svrg_ridge_seed1.csv"
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN / name, golden / name)

    def files():
        return {p.relative_to(golden): p.read_bytes() for p in golden.rglob("*")
                if p.is_file() and p.parent.name != "inputs"}

    before = files()
    regenerate([name], golden)
    assert files() == before
    lines = (golden / name / trace).read_text(encoding="utf-8").split("\n")
    header, row = lines[0].split(","), lines[1].split(",")
    moved, within = header.index("dist_sq"), header.index("f_gap")
    edited = list(row)
    edited[moved] = repr(float(row[moved]) * (1 + 1e-6))
    edited[within] = repr(float(row[within]) * (1 + 1e-14))
    edited[header.index("wall_ns")] = "1"
    assert edited[within] != row[within]
    lines[1] = ",".join(edited)
    (golden / name / trace).write_text("\n".join(lines), encoding="utf-8")
    regenerate([name], golden)
    edited[moved], edited[within] = row[moved], row[within]
    lines[1] = ",".join(edited)
    assert (golden / name / trace).read_text(encoding="utf-8") == "\n".join(lines)


def _kept(fresh: Path, old: Path, tmp: Path) -> bytes:
    """What regeneration writes for output file fresh: old, the checked-in file,
    where no value moved a bit (differences under _same_bits); else fresh, {tmp}
    for tmp, with old's text of each JSON value or CSV cell that did not move or
    is TIMED (fresh whole for an .npz file, or a CSV header or shape that moved)."""
    moved = old.exists() and {where for where, _, _ in differences(fresh, old, _same_bits, tmp)}
    if old.exists() and not moved:
        return old.read_bytes()
    if fresh.suffix == ".npz":
        return fresh.read_bytes()
    text = _untmp(fresh.read_text(encoding="utf-8"), tmp)
    if moved and fresh.suffix == ".json":
        kept, new = json.loads(old.read_text(encoding="utf-8")), json.loads(text)
        for where in moved:
            kept = _planted(kept, new, where)
        text = json.dumps(kept, indent=2) + "\n"
    elif moved and fresh.suffix == ".csv" and all(len(where) == 2 and where[0] > 1
                                                  for where in moved):
        rows, old_rows = (list(csv.reader(io.StringIO(t)))
                          for t in (text, old.read_text(encoding="utf-8")))
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            [a if (line, column) in moved else b for column, a, b in zip(rows[0], row, old_row)]
            for line, (row, old_row) in enumerate(zip(rows, old_rows), start=1))
        text = out.getvalue()
    return text.encode()


def _planted(tree, new, where: tuple):
    """tree with its value at where (keys and indices) replaced by new's."""
    if not where:
        return new
    tree[where[0]] = _planted(tree[where[0]], new[where[0]], where[1:])
    return tree


def regenerate(names: list[str], golden: Path = GOLDEN):
    """Rewrite the inputs and the named cases, or every case when none is named,
    keeping the checked-in text of what did not move a bit (_kept)."""
    with tempfile.TemporaryDirectory() as scratch:
        old = Path(scratch) / "old"
        if golden.exists():
            shutil.copytree(golden, old)
        if not names:
            shutil.rmtree(golden, ignore_errors=True)
        write_inputs(golden / "inputs")
        for name in names or CASES:
            shutil.rmtree(golden / name, ignore_errors=True)
            tmp = Path(scratch) / name
            tmp.mkdir()
            record = run_case(name, tmp, golden / "inputs")
            case = golden / name
            case.mkdir()
            for path in record["tree"]:
                if path.endswith("/"):
                    (case / path).mkdir(parents=True, exist_ok=True)
                else:
                    (case / path).write_bytes(_kept(tmp / path, old / name / path, tmp))
            (case / "expected.json").write_text(json.dumps(record, indent=2) + "\n",
                                                encoding="utf-8")
            print(f"{name}: exit {record['exit']}, {len(record['tree'])} paths")


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
