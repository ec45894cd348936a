"""Byte-for-byte comparison of what two versions of the package write.

    python tests/bytewise.py REV [CASE ...]

Runs every command of tests/test_golden.py and the SIZE_CASES below (or the
named cases) with the package at git revision REV and with the package in
this working tree, on the same inputs (write_inputs, and write_a9a_like and
write_ragged for the size cases).  It compares their exit codes, stdout and
stderr byte for byte, the paths each wrote, and each output file by
test_golden.differences under the exact rule (test_golden's docstring states
the rules), and prints the first difference in each file.  The exit status is 1 on any difference.
`python tests/bytewise.py HEAD` compares the last commit with itself when
the tree is clean: every command must then be deterministic from run to run.

REV is extracted with `git archive` into a temporary directory, so nothing
in the repository changes.  pytest does not collect this file (it is not
named test_*.py).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from test_golden import _OUT, CASES, TIMED, describe, differences, exact, write_inputs  # noqa: E402

# commands at realistic sizes, where last bits move that the small golden
# inputs (at most 40 x 64) do not show; not golden, compared only here:
# sweep-ridge's sweep, the same sweep at 400 epochs (about 20,000 steps a
# lane, so its lanes cross several schedule blocks), the lemmas-n400
# instance at lemmas for both loopless algorithms, CSR lanes (three seeds a
# family) on an a9a-shaped file and on row-normalized ragged rows of 1 to 40
# real-valued entries (on a9a's rows of 14 ones every dot order gives the
# same bits; on these a change of row-dot order shows), and a reference
# solve of 444 full-gradient passes on a 20,000-row a9a-shaped file, whose
# parse spans 42 chunks and whose normalize_rows and every pass span 9 row
# blocks (280,000 entries)
_N400 = ["--synthetic", "400,20,1e3", "--loss", "ridge", "--mu", "1", "--data-seed", "1",
         "--epochs", "6", "--checkpoint-every", "6", "--diagnostics", "lemmas",
         "--seed", "1", *_OUT]
SIZE_CASES = {
    "size_sweep-ridge": ["sweep-p", "--synthetic", "100,20,1e4", "--loss", "ridge",
                         "--mu", "1", "--data-seed", "2", "--epochs", "50",
                         "--checkpoint-every", "5", "--diagnostics", "distance", *_OUT],
    "size_sweep-ridge_blocks": ["sweep-p", "--synthetic", "100,20,1e4", "--loss", "ridge",
                                "--mu", "1", "--data-seed", "2", "--epochs", "400",
                                "--checkpoint-every", "40", "--diagnostics", "distance",
                                *_OUT],
    "size_lemmas-n400_l-svrg": ["run", "--alg", "l-svrg", *_N400],
    "size_lemmas-n400_l-katyusha": ["run", "--alg", "l-katyusha", *_N400],
    "size_compare-all_a9a": ["compare-all", "--data", "{tmp}/in/a9a_like.svm", "--loss",
                             "logistic", "--mu", "0.05", "--epochs", "3",
                             "--checkpoint-every", "0.5", "--seeds", "0,1,2",
                             "--thresholds", "1e-2,1e-4", *_OUT],
    "size_compare-all_ragged": ["compare-all", "--data", "{tmp}/in/ragged.svm", "--loss",
                                "logistic", "--mu", "0.01", "--normalize", "--epochs", "3",
                                "--checkpoint-every", "0.5", "--seeds", "0,1,2",
                                "--thresholds", "1e-2,1e-4", *_OUT],
    "size_solve-ref_a9a": ["solve-ref", "--data", "{tmp}/in/a9a_like_20000.svm", "--loss",
                           "logistic", "--mu", "0.01", "--normalize", *_OUT],
}
ALL_CASES = {**CASES, **SIZE_CASES}


def write_a9a_like(directory: Path, n: int = 3000, d: int = 123, nnz: int = 14,
                   name: str = "a9a_like.svm"):
    """An a9a-shaped LIBSVM file, name: n rows of nnz ones among d features,
    feature j drawn with weight 1/(j + 1), labelled by a planted model.
    Under a quarter nonzero, and with n d past the oracle's 2^17 dense
    cells, so the oracle keeps CSR rows.  Written once per comparison, so
    both sides read the same bytes."""
    rng = np.random.default_rng(123)
    weights = 1.0 / np.arange(1, d + 1)
    theta = rng.normal(size=d)
    lines = []
    for _ in range(n):
        cols = np.sort(rng.choice(d, size=nnz, replace=False, p=weights / weights.sum()))
        label = "+1" if theta[cols].sum() + rng.logistic() > 0.0 else "-1"
        lines.append(label + "".join(f" {j}:1" for j in (cols + 1).tolist()))
    (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_ragged(directory: Path, n: int = 2000, d: int = 123, name: str = "ragged.svm"):
    """A LIBSVM file of n rows of 1 to 40 entries among d features, feature j
    drawn with weight 1/(j + 1), each value a normal draw at 17 significant
    digits, labelled by a planted model.  Under a quarter nonzero, and with
    n d past the oracle's 2^17 dense cells, so the oracle keeps CSR rows."""
    rng = np.random.default_rng(321)
    weights = 1.0 / np.arange(1, d + 1)
    theta = rng.normal(size=d)
    lines = []
    for _ in range(n):
        cols = np.sort(rng.choice(d, size=int(rng.integers(1, 41)), replace=False,
                                  p=weights / weights.sum()))
        vals = rng.normal(size=cols.size)
        label = "+1" if theta[cols] @ vals + rng.logistic() > 0.0 else "-1"
        lines.append(label + "".join(f" {j}:{v:.17g}"
                                     for j, v in zip((cols + 1).tolist(), vals.tolist())))
    (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


# runs cases in one process on the package of PYTHONPATH: reads [argv, directory]
# pairs on stdin and prints test_golden.execute's [exit, stdout, stderr, paths] for each
_RUNNER = """
import json, sys
from pathlib import Path
from test_golden import execute
json.dump([execute(argv, Path(tmp), Path(sys.argv[1])) for argv, tmp in json.load(sys.stdin)],
          sys.stdout)
"""


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    rev, names = argv[0], argv[1:] or list(ALL_CASES)
    unknown = set(names) - set(ALL_CASES)
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
        write_a9a_like(scratch / "inputs")
        write_a9a_like(scratch / "inputs", n=20_000, name="a9a_like_20000.svm")
        write_ragged(scratch / "inputs")
        sides = []
        for side, src in ("rev", scratch / "rev" / "src"), ("tree", REPO / "src"):
            # both sides run at one path, which a sidecar's dataset record holds
            cases = [[ALL_CASES[name], str(scratch / "run" / name)] for name in names]
            pythonpath = os.pathsep.join([str(src), str(REPO / "tests")])
            done = subprocess.run([sys.executable, "-c", _RUNNER, str(scratch / "inputs")],
                                  input=json.dumps(cases), capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": pythonpath}, check=True)
            (scratch / "run").rename(scratch / f"out-{side}")
            sides.append(json.loads(done.stdout))
        for name, ran_rev, ran_tree in zip(names, *sides):
            for part, x, y in zip(("exit", "stdout", "stderr"), ran_rev, ran_tree):
                if x != y:
                    differ.append(f"{name}: {part}: {x!r} != {y!r}")
            paths = set(ran_rev[3]), set(ran_tree[3])
            if paths[0] != paths[1]:
                differ.append(f"{name}: paths {sorted(paths[0] ^ paths[1])} "
                              "written by one side only")
            for path in sorted(p for p in paths[0] & paths[1] if not p.endswith("/")):
                files += 1
                first = next(differences(scratch / "out-rev" / name / path,
                                         scratch / "out-tree" / name / path, exact), None)
                if first:
                    differ.append(f"{name}/{path}: {describe(*first)}")
    print(f"{len(names)} cases, {files} output files: {rev} against the working tree")
    print("\n".join(differ) or f"no difference apart from {', '.join(sorted(TIMED))}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
