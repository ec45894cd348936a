"""Byte-for-byte comparison of what two versions of the package write.

    python tests/bytewise.py REV [CASE ...]

Runs every command of tests/test_golden.py (or the named cases) with the
package at git revision REV and with the package in this working tree, on
the same inputs (write_inputs), and compares what each leaves behind: exit
code, stdout and stderr, the paths written, and every output file byte for
byte, apart from the wall_ns column of a trace and the wall_ns key of a
JSON file, which time the run.  For each file that differs it prints the
first differing CSV cell, JSON value or array entry with its relative size
|a - b| / max(|a|, |b|).  The exit status is 1 on any difference.
`python tests/bytewise.py HEAD` compares the last commit with itself when
the tree is clean: every command must then be deterministic from run to
run.

REV is extracted with `git archive` into a temporary directory, so nothing
in the repository changes.  pytest does not collect this file (it is not
named test_*.py).
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from test_golden import CASES, write_inputs  # noqa: E402

# runs the cases in one process on the package of PYTHONPATH: reads argv
# lists on stdin and prints [exit, stdout, stderr] per case
_RUNNER = """
import contextlib, io, json, sys
from loopless.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.__stdout__)
"""


def run_cases(src: Path, root: Path, names: list[str], inputs: Path, keep: Path) -> list:
    """Run the cases on the package in src, each in root/<case> with the
    inputs in its in/, then move root to keep: both sides run at the same
    paths, which outputs such as a sidecar's dataset record."""
    argvs = []
    for name in names:
        case = root / name
        (case / "in").mkdir(parents=True)
        for path in inputs.iterdir():
            (case / "in" / path.name).write_bytes(path.read_bytes())
        argvs.append([a.replace("{tmp}", str(case)) for a in CASES[name]])
    done = subprocess.run([sys.executable, "-c", _RUNNER], input=json.dumps(argvs),
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, check=True)
    root.rename(keep)
    return json.loads(done.stdout)


def _rel(a: str, b: str) -> str:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return "not numbers"
    return f"rel {abs(x - y) / max(abs(x), abs(y)):.1e}"


def _first_json(a, b, where="") -> str | None:
    """The first place two JSON values (numbers as their text) differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{where or '/'}: keys {sorted(a.keys() ^ b.keys())} on one side only"
        return next(filter(None, (_first_json(a[k], b[k], f"{where}/{k}")
                                  for k in a if k != "wall_ns")), None)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return next(filter(None, (_first_json(x, y, f"{where}[{i}]")
                                  for i, (x, y) in enumerate(zip(a, b)))), None)
    return None if a == b else f"{where or '/'}: {a} != {b} ({_rel(str(a), str(b))})"


def first_difference(a: Path, b: Path) -> str | None:
    """Where file a first differs from file b, or None."""
    if a.suffix == ".npz":
        with np.load(a) as x, np.load(b) as y:
            if sorted(x.files) != sorted(y.files):
                return f"arrays {sorted(x.files)} != {sorted(y.files)}"
            for key in x.files:
                u, v = x[key], y[key]
                if u.dtype != v.dtype or u.shape != v.shape:
                    return f"{key}: {u.dtype}{u.shape} != {v.dtype}{v.shape}"
                differ = np.flatnonzero(u.ravel().view(np.uint8).reshape(u.size, -1)
                                        != v.ravel().view(np.uint8).reshape(v.size, -1))
                if differ.size:
                    i = differ[0] // u.itemsize
                    s, t = repr(u.ravel()[i].item()), repr(v.ravel()[i].item())
                    return f"{key}[{i}]: {s} != {t} ({_rel(s, t)})"
        return None
    text_a, text_b = a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8")
    if a.suffix == ".json":
        number = {"parse_float": str, "parse_int": str, "parse_constant": str}
        return _first_json(json.loads(text_a, **number), json.loads(text_b, **number))
    if a.suffix == ".csv":
        rows_a, rows_b = (list(csv.reader(io.StringIO(text))) for text in (text_a, text_b))
        if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
            return f"{len(rows_a)} rows != {len(rows_b)}, or another header"
        for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
            if len(row_a) != len(row_b):
                return f"line {line}: {len(row_a)} cells != {len(row_b)}"
            for column, x, y in zip(rows_a[0], row_a, row_b):
                if column != "wall_ns" and x != y:
                    return f"line {line} column {column}: {x} != {y} ({_rel(x, y)})"
        return None
    return None if text_a == text_b else "text differs"


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    rev, names = argv[0], argv[1:] or list(CASES)
    unknown = set(names) - set(CASES)
    if unknown:
        print(f"unknown cases {sorted(unknown)}")
        return 2
    differ, files = [], 0
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                                 capture_output=True, check=True).stdout
        (scratch / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(scratch / "rev")], input=archive, check=True)
        write_inputs(scratch / "inputs")
        sides = [run_cases(src, scratch / "run", names, scratch / "inputs",
                           scratch / f"out-{side}")
                 for side, src in (("rev", scratch / "rev" / "src"), ("tree", REPO / "src"))]
        for name, got_rev, got_tree in zip(names, *sides):
            for part, x, y in zip(("exit", "stdout", "stderr"), got_rev, got_tree):
                if x != y:
                    differ.append(f"{name}: {part}: {x!r} != {y!r}")
            trees = []
            for side in ("rev", "tree"):
                case = scratch / f"out-{side}" / name
                trees.append({p.relative_to(case) for p in case.rglob("*")
                              if p.is_file() and p.relative_to(case).parts[0] != "in"})
            if trees[0] != trees[1]:
                differ.append(f"{name}: paths {sorted(map(str, trees[0] ^ trees[1]))} "
                              "written by one side only")
            for path in sorted(trees[0] & trees[1]):
                files += 1
                where = first_difference(scratch / "out-rev" / name / path,
                                         scratch / "out-tree" / name / path)
                if where:
                    differ.append(f"{name}/{path}: {where}")
    print(f"{len(names)} cases, {files} output files: {rev} against the working tree")
    print("\n".join(differ) or "no difference apart from wall_ns")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
