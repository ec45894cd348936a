"""Mutation matrix: plant one known bug at a time in a copy of the package and
report which tests catch it (ROADMAP item 11).

    python tests/mutants.py [NAME ...]

Each mutant is a one-line edit of a paper rule: a text that must occur exactly
once in its file, and its replacement.  Where a rule is written in more than
one place (a family's serial step, the lane stepper, the split point() and
momentum_step() the diagnostics use), each place is its own mutant.  For each
mutant the script copies src/, tests/, perfbench/, pyproject.toml and
README.md to a temporary directory, applies the edit there, and runs tier-1
without the value pins:

    python -m pytest -q tests --ignore tests/test_golden.py \
        --ignore tests/test_mutants.py -k "not regression_pin"

(naming tests/ leaves out perfbench/, which pyproject.toml's testpaths would
collect: --ignore does not drop a testpaths entry).  tests/test_mutants.py,
which holds each mutant's text to occurring once in the unedited tree, is
left out: in a mutated copy it would fail for every mutant and catch nothing.

The working tree is never written.  The script prints a Markdown table: each
mutant, how many tests fail, and the failing tests sorted into value pins
(PINS: tests that compare with numbers a run once printed) and tests that
state a rule.  A mutant that no rule test catches is a finding and stays in
the list.  The unmutated copy runs first and must pass; the exit status is 1
if it does not, or if a mutant's text is not found exactly once.  pytest does
not collect this file (it is not named test_*.py).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OPT, DIAG = "src/loopless/optimizers.py", "src/loopless/diagnostics.py"
ORACLE = "src/loopless/oracle.py"

# (name, file, old text, new text)
MUTANTS = [
    ("SVRG refresh stores the post-update point, in step", OPT,
     "            self.w = x\n",
     "            self.w = x = self.x\n"),
    ("Katyusha refresh stores the post-update point, in step", OPT,
     "            self.w = y\n",
     "            self.w = y = self.y\n"),
    ("lane refresh stores the post-update point, in _stack", OPT,
     "                w[lanes] = pre\n",
     "                w[lanes] = stack.tracked_point[lanes]\n"),
    ("lane refresh applied one step late, at a span boundary, in _stack", OPT,
     "                pre, end = stack.tracked_point[lanes], start + 1\n",
     "                pre, end = stack.tracked_point[lanes], start + 2\n"),
    ("L-SVRG predicted_rate is max(1 - eta mu, 1 - p)", OPT,
     "1.0 - self.p / 2.0)}",
     "1.0 - self.p)}"),
    ("loopy refresh one step early", OPT,
     "refresh[-(self.k + 1) % self.m::self.m] = True",
     "refresh[-(self.k + 2) % self.m::self.m] = True"),
    ("correction sign flipped, SVRG step", OPT,
     "        g -= correction\n        g *= self._eta\n",
     "        g += correction\n        g *= self._eta\n"),
    ("correction sign flipped, Katyusha step", OPT,
     "        g -= correction\n        g *= self._z_step\n",
     "        g += correction\n        g *= self._z_step\n"),
    ("the stack takes lane 0's parameters for every lane", OPT,
     "        if len({v.tobytes() for v in values}) > 1:\n",
     "        if False:\n"),
    ("correction sign flipped, _stack", OPT,
     "                np.subtract(g, correction, out=g)\n",
     "                np.add(g, correction, out=g)\n"),
    ("grad_rows takes the full-data logistic weight _dphis, on dense rows", ORACLE,
     "            rows *= self._dphi_rows(np.vecdot(rows, X), labels)[:, np.newaxis]\n",
     "            rows *= self._dphis(np.vecdot(rows, X), labels)[:, np.newaxis]\n"),
    ("corrections takes the full-data logistic weight _dphis, on dense rows", ORACLE,
     "            out *= self._dphi_rows(np.vecdot(out, w), ",
     "            out *= self._dphis(np.vecdot(out, w), "),
    ("corrections writes CSR rows in length order, not sample order", ORACLE,
     "        out[order.take(lane), cols] = vals\n",
     "        out[lane, cols] = vals\n"),
    ("a lane step reads the next step's rows", ORACLE,
     "            window = samples[lo:lo + steps]\n",
     "            window = samples[lo + 1:lo + steps + 1]\n"),
    ("Katyusha point weights theta1, theta2 swapped, in step", OPT,
     "        x += self._theta2_w\n",
     "        x = self._theta2 * z + self._theta1 * w\n"),
    ("Katyusha point weights theta1, theta2 swapped, in point()", OPT,
     "        x += self._theta2 * self.w\n",
     "        x = self._theta2 * self.z + self._theta1 * self.w\n"),
    ("Katyusha z-step without the 1 + eta sigma scale, in step", OPT,
     "        z_next -= g\n        z_next /= self._z_scale\n",
     "        z_next -= g\n"),
    ("Katyusha z-step without the 1 + eta sigma scale, in momentum_step", OPT,
     "        np.subtract(moved, z_next, out=z_next)\n        z_next /= self._z_scale\n",
     "        np.subtract(moved, z_next, out=z_next)\n"),
    ("grad_w taken at the post-update point, SVRG step", OPT,
     "            self.grad_w = oracle.full_grad(x)\n",
     "            self.grad_w = oracle.full_grad(self.x)\n"),
    ("grad_w taken at the post-update point, Katyusha step", OPT,
     "            self.grad_w = oracle.full_grad(y)\n",
     "            self.grad_w = oracle.full_grad(self.y)\n"),
    ("dk constant 4 -> 0.5", DIAG,
     '"dk": 4.0 * eta ** 2',
     '"dk": 0.5 * eta ** 2'),
    ("zk coefficient L (1 + eta sigma) / eta, not / (2 eta)", DIAG,
     "(1.0 + eta * state.sigma) / (2.0 * eta)",
     "(1.0 + eta * state.sigma) / eta"),
    ("dk without its cross term 2 mu sum_i diff_i a_i^T delta", DIAG,
     "            + 2.0 * mu * float(diff @ diff_dots)\n",
     ""),
    ("ridge f(y + gamma_i a_i) with gamma_i^2 q_i, not gamma_i^2 q_i / 2", ORACLE,
     "0.5 * gamma * gamma * self._row_curvatures",
     "gamma * gamma * self._row_curvatures"),
    ("L-SVRG theory eta = 1/(2L)", OPT,
     '{"eta": 1.0 / (6.0 * oracle.L)',
     '{"eta": 1.0 / (2.0 * oracle.L)'),
    ("L-Katyusha theory theta1 = sqrt(sigma n / 3)", OPT,
     "math.sqrt(2.0 * sigma * oracle.n / 3.0)",
     "math.sqrt(sigma * oracle.n / 3.0)"),
    ("a loopy class reports a predicted_rate", OPT,
     '    param_types = {"eta": float, "m": int}\n',
     '    param_types = {"eta": float, "m": int}; theory_facts = lambda self: '
     '{"predicted_rate": max(1.0 - self.eta * self.oracle.mu, 1.0 - 0.5 / self.m)}\n'),
]

# tests that compare a run with numbers it once printed, not with a rule
PINS = {"test_a_reference_holds_nothing_n_by_d",
        "test_a_reference_records_its_full_gradient_passes"}

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "addopts=",
          "-rfE", "tests", "--ignore", "tests/test_golden.py", "--ignore",
          "tests/test_mutants.py", "-k", "not regression_pin"]


def copy_repo(target: Path):
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(REPO / name, target / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(REPO / name, target)


def apply(root: Path, path: str, old: str, new: str):
    text = (root / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"mutant text found {text.count(old)} times in {path}: {old!r}")
    (root / path).write_text(text.replace(old, new), encoding="utf-8")


def failures(root: Path) -> list[str]:
    """The test functions (parameters dropped) that fail or error in root."""
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run(PYTEST, cwd=root, env=env, capture_output=True, text=True,
                          timeout=900)
    found = re.findall(r"^(?:FAILED|ERROR) \S+?::(\w+)", done.stdout, re.MULTILINE)
    if done.returncode not in (0, 1) or (done.returncode == 1 and not found):
        raise SystemExit(f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}")
    return found


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        copy_repo(clean)
        failed = failures(clean)
        if failed:
            print("the unmutated copy fails:", failed)
            return 1
        print("| planted bug | tests failed | value pins | tests that state a rule |")
        print("| --- | --- | --- | --- |")
        for name, path, old, new in chosen:
            root = Path(scratch) / "mutant"
            shutil.rmtree(root, ignore_errors=True)
            copy_repo(root)
            apply(root, path, old, new)
            failed = failures(root)
            pins = sorted({t for t in failed if t in PINS})
            rules = sorted({t for t in failed if t not in PINS})
            print(f"| {name} | {len(failed)} | {', '.join(pins) or 'none'} | "
                  f"{', '.join(rules) or '**none: survives**'} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
