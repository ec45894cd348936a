"""Does the reference-second rescale keep the size of a program change?

    python3 perfbench/rescale_check.py WORKLOAD ROUNDS

Run from the root of a source checkout.  Alternates three variants of one
workload's op in one single-threaded process, the way a measuring child runs
ops: the op alone, the op plus fixed extra pure-Python work, and the op plus
fixed extra numpy work.  Each extra is calibrated once to about EXTRA of the
op's wall time.  For each variant it prints the ratio to the plain op in
four ways:

  wall, ref     median wall and median reference seconds across ops;
  in-op wall    (op + extra) / op, both timed back to back inside one op, so
                host drift between ops does not enter: the size of the change;
  in-op ref     the same in reference seconds, each part rescaled by the probe
                samples taken while it ran.  If the probe kernel sped up or
                slowed down with what the op is doing, this would differ from
                the in-op wall ratio.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

import numpy as np  # noqa: E402

from worker import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXTRA = 0.3


def py_work(k: int) -> float:
    acc = 0.0
    for i in range(k):
        acc += math.sin(i * 1e-3) * 0.5
    return acc


MATRIX = np.random.default_rng(0).standard_normal((400, 400))


def np_work(k: int) -> np.ndarray:
    x = np.ones(400)
    for _ in range(k):
        x = np.tanh(MATRIX @ x) + np.exp(-np.abs(x))
    return x


def wall(f, k: int) -> float:
    t0 = time.perf_counter()
    f(k)
    return time.perf_counter() - t0


def calibrate(f, target_s: float) -> int:
    k = 1000
    while wall(f, k) < 0.05:
        k *= 2
    return max(1, int(k * target_s / wall(f, k)))


def main() -> int:
    name, rounds = sys.argv[1], int(sys.argv[2])
    workdir = Path.cwd() / ".perfbench" / f"rescale-{name}-{os.getpid()}"
    probe = SpeedProbe()
    probe.start()
    workload = WORKLOADS[name](5, workdir)
    j = 0

    def op(extra):
        nonlocal j
        t0 = time.perf_counter()
        result = workload.op(j)
        tm = time.perf_counter()
        if extra is not None:
            extra()
        t1 = time.perf_counter()
        workload.check(j, result)
        workload.clean(j)
        j += 1
        ref = probe.ref_seconds(t0, t1)
        if extra is None:
            return t1 - t0, ref, 1.0, 1.0
        in_ref = probe.ref_seconds(t0, t1, extra=0) / probe.ref_seconds(t0, tm, extra=0)
        return t1 - t0, ref, (t1 - t0) / (tm - t0), in_ref

    base_s = statistics.median(op(None)[0] for _ in range(3))
    kp, kn = calibrate(py_work, EXTRA * base_s), calibrate(np_work, EXTRA * base_s)
    variants = {"op": None, "+python": lambda: py_work(kp), "+numpy": lambda: np_work(kn)}
    order = list(variants)
    samples = {v: ([], [], [], []) for v in variants}
    for r in range(rounds):
        for v in order[r % 3:] + order[:r % 3]:
            for column, x in zip(samples[v], op(variants[v])):
                column.append(x)
    probe.stop()
    shutil.rmtree(workdir, ignore_errors=True)

    med = {v: [statistics.median(c) for c in cols] for v, cols in samples.items()}
    print(f"{name}, {rounds} rounds: op median {med['op'][0]:.4f} wall s, "
          f"{med['op'][1]:.4f} ref s")
    print(f"  {'variant':<8} {'wall':>7} {'ref':>7} {'in-op wall':>11} {'in-op ref':>10}")
    for v in ("+python", "+numpy"):
        w, ref, in_wall, in_ref = med[v]
        print(f"  {v:<8} {w / med['op'][0]:7.4f} {ref / med['op'][1]:7.4f} "
              f"{in_wall:11.4f} {in_ref:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
