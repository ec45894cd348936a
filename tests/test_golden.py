"""Golden CLI artifacts: each case runs one `loopless` command in a fresh
directory and compares what it returns, prints and leaves behind with the
copy checked in under tests/golden/<case>/.

expected.json holds the command, its exit code, its stdout and stderr lines
and the tree of paths it left (the inputs copied to in/ aside); out/ holds
those files.  Keys, integers and strings compare exactly, floats to 1e-12
relative (or 1e-15 absolute, for a cell that is rounding noise, such as an
equality slack); the wall_ns column is not compared.  The temporary
directory's path is written as {tmp}.

After an intended change of output, regenerate the cases it changes with

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

(no case name: every case) and name the files that changed.  A file, CSV
cell or JSON value keeps its checked-in text only where its value is bitwise
unchanged (wall_ns always keeps it), so the diff shows every bit that moved,
even where the comparison above would accept the move.  The inputs are
rewritten either way; write_inputs is seeded, so an unchanged input stays
byte-identical.
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


def run_case(name: str, tmp: Path, inputs: Path = INPUTS) -> dict:
    """Run a case in tmp (inputs copied to tmp/in) and return its expected.json
    record; its outputs are left in tmp."""
    shutil.copytree(inputs, tmp / "in")
    argv = [arg.replace("{tmp}", str(tmp)) for arg in CASES[name]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    tree = sorted(str(p.relative_to(tmp)) + ("/" if p.is_dir() else "")
                  for p in tmp.rglob("*") if p.relative_to(tmp).parts[0] != "in")
    return {"argv": CASES[name], "exit": code,
            "stdout": _untmp(stdout.getvalue(), tmp).splitlines(),
            "stderr": _untmp(stderr.getvalue(), tmp).splitlines(), "tree": tree}


def _untmp(text: str, tmp: Path) -> str:
    return text.replace(str(tmp), "{tmp}")


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-12,
                                                              abs_tol=1e-15)


def _same_bits(a: float, b: float) -> bool:
    """a and b are one float64, bit for bit (any two NaNs alike): what
    regeneration keeps."""
    return float(a).hex() == float(b).hex()


def _same_cell(got: str, want: str, same=_same_float) -> bool:
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    try:
        return same(float(got), float(want))
    except ValueError:
        return got == want


def _same_json(got, want, same=_same_float) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(key == "wall_ns" or _same_json(got[key], want[key], same)
                        for key in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same_json(a, b, same) for a, b in zip(got, want)))
    if type(got) is not type(want):  # 1 and 1.0 differ
        return False
    return same(got, want) if isinstance(want, float) else got == want


def _same_npz(got: Path, want: Path, same=_same_float) -> bool:
    with np.load(got) as a, np.load(want) as b:
        return sorted(a.files) == sorted(b.files) and all(
            a[key].dtype == b[key].dtype and a[key].shape == b[key].shape
            and all(map(same, a[key].ravel().tolist(), b[key].ravel().tolist()))
            for key in b.files)


def _compare_file(got: Path, want: Path, tmp: Path):
    if want.suffix == ".npz":
        assert _same_npz(got, want)
        return
    text = _untmp(got.read_text(encoding="utf-8"), tmp)
    expected = want.read_text(encoding="utf-8")
    if want.suffix == ".json":
        assert _same_json(json.loads(text), json.loads(expected))
    elif want.suffix == ".csv":
        rows, expected_rows = list(csv.reader(io.StringIO(text))), list(
            csv.reader(io.StringIO(expected)))
        assert len(rows) == len(expected_rows) and rows[0] == expected_rows[0]
        header = expected_rows[0]
        for line, (row, expected_row) in enumerate(zip(rows, expected_rows), start=1):
            assert len(row) == len(expected_row), line
            for column, a, b in zip(header, row, expected_row):
                assert column == "wall_ns" or _same_cell(a, b), (line, column, a, b)
    else:
        assert text == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_its_golden_copy(tmp_path, name):
    expected = json.loads((GOLDEN / name / "expected.json").read_text(encoding="utf-8"))
    got = run_case(name, tmp_path)
    assert got == expected
    for path in expected["tree"]:
        if not path.endswith("/"):
            _compare_file(tmp_path / path, GOLDEN / name / path, tmp_path)


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


def _kept_json(got, want):
    """got, with each value that is want's bit for bit replaced by want's,
    and want's wall_ns kept."""
    if _same_json(got, want, _same_bits):
        return want
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        return {key: want[key] if key == "wall_ns" else _kept_json(value, want[key])
                for key, value in got.items()}
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return list(map(_kept_json, got, want))
    return got


def _kept_text(suffix: str, text: str, old: str) -> str:
    """A regenerated file's text, keeping the checked-in text (old) of each
    CSV cell or JSON value whose value is old's bit for bit, and of wall_ns."""
    if suffix == ".json":
        want = json.loads(old)
        kept = _kept_json(json.loads(text), want)
        return old if kept is want else json.dumps(kept, indent=2) + "\n"
    if suffix != ".csv":
        return text
    rows, old_rows = list(csv.reader(io.StringIO(text))), list(csv.reader(io.StringIO(old)))
    if list(map(len, rows)) != list(map(len, old_rows)) or rows[:1] != old_rows[:1]:
        return text
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row, old_row in zip(rows, old_rows):
        writer.writerow([b if column == "wall_ns" or _same_cell(a, b, _same_bits) else a
                         for column, a, b in zip(rows[0], row, old_row)])
    return out.getvalue()


def regenerate(names: list[str], golden: Path = GOLDEN):
    """Rewrite the inputs and the named cases, or every case when none is named,
    keeping the checked-in text of what did not move a bit (_kept_text)."""
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
                target, previous = case / path, old / name / path
                if path.endswith("/"):
                    target.mkdir(parents=True, exist_ok=True)
                elif target.suffix == ".npz":
                    kept = previous.exists() and _same_npz(tmp / path, previous, _same_bits)
                    shutil.copyfile(previous if kept else tmp / path, target)
                else:
                    text = _untmp((tmp / path).read_text(encoding="utf-8"), tmp)
                    if previous.exists():
                        text = _kept_text(target.suffix, text,
                                          previous.read_text(encoding="utf-8"))
                    target.write_text(text, encoding="utf-8")
            (case / "expected.json").write_text(json.dumps(record, indent=2) + "\n",
                                                encoding="utf-8")
            print(f"{name}: exit {record['exit']}, {len(record['tree'])} paths")


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
