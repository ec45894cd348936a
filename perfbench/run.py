"""Benchmark of the loopless package: four workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Each run starts fresh single-threaded child processes (``worker.py``) that
import ``loopless`` from ``./src`` and nothing else.

--trace 0  times user-level calls into ``loopless.harness`` in a closed loop
           and prints the end-to-end metrics.  The op count is fixed by S and
           the workload (ops of the workload's nominal time that fill S
           seconds), so it is the same on every commit.  Set-up is repeated
           in separate processes (3 to 9 times) and its median reported; the
           measuring child runs on the inputs the first set-up wrote.
--trace 1  runs the workload's fixed first ops untraced and then under the
           span tracer, prints the per-layer metrics and the tracing overhead,
           and writes the spans to ``.perfbench/spans-<workload>-seed<N>.npz``.

Every op's output is checked; an op that fails counts in ``failed``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means a result was
printed; 1 means a child process failed, 2 means the checkout has no
``src/loopless`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep-ridge", "lemmas-n400", "a9a-sparse", "reference-logistic")
# set-ups per run, each in its own process:
# at least SETUP_MIN, more while they stay under SETUP_BUDGET_S in total
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 1.5
BUDGET_S = 170.0  # every child must have ended by then
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("nnz_per_s", "nnz/s"), ("mb_per_s", "MB/s"),
                         ("words_per_draw", "words/draw"),
                         ("evals_per_report", "evals/report"), ("share", "ratio"),
                         ("bytes", "bytes"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(root: Path, child: dict) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "package": child["package"],
        "commit": git_commit(root),
        "src_lines": src_lines,
        "child_env": {k: "1" for k in ONE_THREAD},
    }


class Runner:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.update({k: "1" for k in ONE_THREAD})
        self.worker = Path(__file__).resolve().parent / "worker.py"

    def child(self, mode: str, workdir: Path, *extra: str) -> dict:
        cmd = [sys.executable, str(self.worker), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--workdir", str(workdir), "--mode", mode,
               *extra]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child exceeded the time budget") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        expected = (self.root / "src" / "loopless" / "__init__.py").resolve()
        if Path(out["loopless"]).resolve() != expected:
            raise ChildFailed(f"child imported {out['loopless']}, not {expected}")
        return out


def end_to_end(runner: Runner, scratch: Path) -> tuple[dict, dict]:
    runs = []
    while len(runs) < SETUP_MIN or (
        len(runs) < SETUP_MAX and sum(r["setup_s"] for r in runs) < SETUP_BUDGET_S
    ):
        runs.append(runner.child("setup", scratch / f"setup{len(runs)}"))
    res = runner.child("measure", scratch / "setup0", "--seconds", str(runner.args.seconds))
    ops = res["ops"]
    passed = [op for op in ops if op["error"] is None]
    failures = [op["error"] for op in ops if op["error"] is not None]
    if not passed:
        raise ChildFailed("no op passed its checks:\n" + "\n".join(failures[:5]))
    n = len(passed)
    # highest percentile with at least 10 passed ops beyond it
    tail_rank = n - 11 if n > 10 else n - 1

    def summary_of(setup_key: str, op_key: str) -> dict:
        times = sorted(op[op_key] for op in passed)
        return {
            "setup_s": (statistics.median(r[setup_key] for r in runs), "s"),
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_tail": (times[tail_rank], "s"),
            "epochs_per_s": (statistics.median(op["epochs"] / op[op_key] for op in passed),
                             "1/s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }

    metrics = summary_of("setup_ref_s", "ref_s")
    raw = summary_of("setup_s", "s")
    print(f"{runner.args.workload} seed={runner.args.seed}: {len(ops)} ops attempted, "
          f"{len(failures)} failed (error_rate {len(failures) / len(ops):.4f}); "
          "times in reference seconds (wall seconds in brackets)")
    for name, (value, unit) in metrics.items():
        note = f"[{raw[name][0]:.6g}]"
        if name == "setup_s":
            note += " median of " + ", ".join(f"{r['setup_ref_s']:.4f}" for r in runs)
        elif name == "op_s_tail":
            note += f" p{100.0 * (tail_rank + 1) / n:.1f} of {n} passed ops"
        elif name == "peak_rss_mb":
            note = f"{res['setup_rss_mb']:.1f} before the first op"
        print(f"  {name:<14} {value:<12.6g} {unit:<4} {note}")
    for error in failures:
        print(f"  FAILED {error}")
    summary = {"correct": not failures, "attempted": len(ops), "failed": len(failures)}
    return summary, {"metrics": metrics, "probes": res["probes"], "child": res}


def traced(runner: Runner, scratch: Path) -> tuple[dict, dict]:
    spans = runner.root / ".perfbench" / f"spans-{runner.args.workload}-seed{runner.args.seed}.npz"
    res = runner.child("trace", scratch / "trace", "--spans", str(spans))
    metrics = {name: (value, unit_of(name)) for name, value in res["metrics"].items()}
    failed_probes = sum(1 for _, error in res["probes"] if error)
    metrics["defects.probes_failed"] = (failed_probes, "count")
    print(f"{runner.args.workload} seed={runner.args.seed}: traced run, spans in {spans}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:<14.6g} {unit}")
    for error in res["errors"]:
        print(f"  FAILED {error}")
    summary = {"correct": not res["errors"], "attempted": res["attempted"],
               "failed": len(res["errors"])}
    return summary, {"metrics": metrics, "probes": res["probes"], "child": res}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "loopless" / "__init__.py").is_file():
        print(f"error: {root} has no src/loopless to benchmark; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    runner = Runner(root, args)
    scratch = root / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        summary, detail = (traced if args.trace else end_to_end)(runner, scratch)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for label, error in detail["probes"]:
        status = f"FAILED ({error})" if error else "passed"
        print(f"  known-defect probe: run --alg {label} --diagnostics lemmas {status}")
    print("env: " + json.dumps(environment(root, detail["child"]), sort_keys=True))
    summary["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in detail["metrics"].items()
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
