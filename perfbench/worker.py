"""One benchmark child process: set up one workload, then measure it.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        --mode setup|measure|trace [--seconds S] [--spans FILE]

Modes:
  setup    import the package and generate the inputs, report set-up time;
  measure  import the package and take the inputs a set-up child wrote to
           DIR (so the process's peak memory is that of the ops, not of the
           generator), then run a fixed number of ops in a closed loop (the next
           op starts when the previous one returns): S / the workload's
           NOMINAL_OP_S, and at least MIN_OPS.  The count depends on S and the
           workload only, never on how fast the program runs.  Report each
           op's time, check result and epochs, the known-defect probes, and the
           process's peak resident memory before the first op and at the end;
  trace    set up under the tracer, run the workload's fixed first ops
           untraced and then traced, report per-layer metrics and write the
           spans to FILE.

Times are reported twice: wall seconds, and reference seconds (see
SpeedProbe).  The last line of standard output is one JSON object.  Run with
the checkout's ``src`` first on PYTHONPATH; the parent process sets that up.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# op_s_tail needs at least 10 passed ops beyond it; 14 makes it the fourth
# fastest op rather than the single fastest, which is too noisy
MIN_OPS = 14

# span-name prefixes that make up each workload's designated work
PURPOSE = {
    "sweep-ridge": ("optimizers.step",),
    "lemmas-n400": ("diagnostics.", "oracle.full_loss", "oracle.full_grad",
                    "oracle.grad_table"),
    "a9a-sparse": ("data.", "oracle."),
    "reference-logistic": ("diagnostics.solve_reference",),
}


def _sigmoid_loss(m: float, b: float) -> float:
    return -b / (1.0 + math.exp(b * m))


class SpeedProbe:
    """Samples the host's current speed while set-up and ops run.

    The hosts this benchmark runs on change speed by up to 2x within seconds
    (a shared virtual CPU; the process's CPU time grows as fast as wall time,
    so it is not descheduling).  Every INTERVAL_S an interval timer runs a
    fixed kernel that does not use loopless: Python calls doing scalar float
    math, the interpreter work that dominates every workload.  A stretch of
    wall time converts to reference seconds as wall x REF_KERNEL_S / (median
    kernel time sampled in that stretch): the time on a host where the kernel
    takes REF_KERNEL_S.  The kernel costs under 0.5% of each interval.
    """

    INTERVAL_S = 0.025
    REF_KERNEL_S = 1e-4

    def __init__(self):
        self.at: list[float] = []
        self.cost: list[float] = []

    @staticmethod
    def kernel() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(600):
            acc += _sigmoid_loss(i * 1e-3, 1.0)
        return time.perf_counter() - t0

    def _sample(self, signum, frame):
        self.at.append(time.perf_counter())
        self.cost.append(self.kernel())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def ref_seconds(self, t0: float, t1: float, extra: int = 1) -> float:
        """Wall seconds t1 - t0 in reference seconds, from the median kernel
        time sampled in that stretch plus ``extra`` samples taken now."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        costs = self.cost[lo:hi] + [self.kernel() for _ in range(extra)]
        return (t1 - t0) * self.REF_KERNEL_S / statistics.median(costs)


def timed_op(workload, j: int, probe: SpeedProbe, tracer=None) -> dict:
    """Run op j (inside a bench.op span when traced), then check its output
    outside the timed region.  An op that raises or fails its check is
    counted as failed and its time is dropped."""
    try:
        if tracer is not None:
            tracer.op_id = j
            span = tracer.open(tracer.name_id("bench.op"))
        try:
            t0 = time.perf_counter()
            result = workload.op(j)
            t1 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.close(span)
                tracer.op_id = -1
        epochs = workload.check(j, result)
        return {"s": t1 - t0, "ref_s": probe.ref_seconds(t0, t1), "epochs": epochs,
                "error": None}
    except Exception as exc:  # a failed op is reported, not fatal
        return {"s": None, "ref_s": None, "epochs": 0.0,
                "error": f"op {j}: {type(exc).__name__}: {exc}"}
    finally:
        workload.clean(j)


def run_ops(workload, count: int, probe: SpeedProbe, tracer=None) -> list[dict]:
    """Closed loop over ops 0, 1, ..., count - 1."""
    return [timed_op(workload, j, probe, tracer) for j in range(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, setup_counts: dict, workload) -> dict:
    """Per-layer numbers over the traced ops (set-up spans only for save)."""
    from tracer import root_share, self_times

    cols = tracer.arrays()
    names = tracer.names
    dur, self_ns = self_times(cols)
    in_op = cols["op"] >= 0
    counts = tracer.counts

    def pick(name, ops=True):
        return (cols["name"] == names.index(name)) & (in_op if ops else ~in_op)

    def calls(name):
        return int(pick(name).sum())

    def self_s(prefix):
        mask = np.array([n.startswith(prefix) for n in names], dtype=bool)
        return float(self_ns[in_op & mask[cols["name"]]].sum()) / 1e9

    def total_s(name, ops=True):
        return float(dur[pick(name, ops)].sum()) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    save_s = total_s("data.save_libsvm", ops=False)
    op_cols = {c: v[in_op] for c, v in cols.items()}
    out = {
        "rng.randbelow.calls": calls("rng.randbelow"),
        "rng.bernoulli.calls": calls("rng.bernoulli"),
        "rng.words_per_draw": ratio(counts["rng.words"], calls("rng.randbelow")),
        "rng.self_s": self_s("rng."),
        "optimizers.step.calls": calls("optimizers.step"),
        "optimizers.step.self_s": self_s("optimizers.step"),
        "optimizers.refreshes": counts["optimizers.refreshes"],
        "optimizers.oracle_calls": counts["optimizers.oracle_calls"],
        "optimizers.self_s": self_s("optimizers."),
        "oracle.grad_i.calls": calls("oracle.grad_i"),
        "oracle.grad_i.self_s": self_s("oracle.grad_i"),
        "oracle.full_grad.calls": calls("oracle.full_grad"),
        "oracle.full_grad.self_s": self_s("oracle.full_grad"),
        "oracle.full_grad.nnz_per_s": ratio(counts["full_grad.nnz"], self_s("oracle.full_grad")),
        "oracle.init_s": total_s("oracle.init"),
        "oracle.full_loss.calls": calls("oracle.full_loss"),
        "oracle.full_loss.self_s": self_s("oracle.full_loss"),
        "oracle.grad_table.calls": calls("oracle.grad_table"),
        "oracle.grad_table.self_s": self_s("oracle.grad_table"),
        "oracle.self_s": self_s("oracle."),
        "diagnostics.verify_lemma_bounds.calls": calls("diagnostics.verify_lemma_bounds"),
        "diagnostics.verify_lemma_bounds.self_s": self_s("diagnostics.verify_lemma_bounds"),
        "diagnostics.compute_phi.calls": calls("diagnostics.compute_phi"),
        "diagnostics.compute_phi.self_s": self_s("diagnostics.compute_phi"),
        "diagnostics.compute_psi.calls": calls("diagnostics.compute_psi"),
        "diagnostics.compute_psi.self_s": self_s("diagnostics.compute_psi"),
        "diagnostics.evals_per_report": ratio(
            counts["report_evals"], calls("diagnostics.verify_lemma_bounds")),
        "diagnostics.solve_reference.self_s": self_s("diagnostics.solve_reference"),
        "diagnostics.solve_reference.full_grads": counts["solve_reference.full_grads"],
        "diagnostics.self_s": self_s("diagnostics."),
        "data.parse_libsvm.s": total_s("data.parse_libsvm"),
        "data.parse_libsvm.mb_per_s": ratio(
            counts["parse.bytes"] / 1e6, total_s("data.parse_libsvm")),
        "data.save_libsvm.mb_per_s": ratio(setup_counts.get("save.bytes", 0) / 1e6, save_s),
        "data.self_s": self_s("data."),
        "harness.build_problem.s": total_s("harness.build_problem"),
        "harness.write_trace.s": total_s("harness.write_trace"),
        "harness.trace_bytes": counts["trace.bytes"],
        "harness.self_s": self_s("harness."),
        "bench.self_s": self_s("bench."),
        "purpose.share": root_share(names, op_cols, PURPOSE[workload.name], "bench.op"),
        "trace.spans": int(in_op.sum()),
    }
    return out


def trace(workload, tracer, probe: SpeedProbe, spans_path: Path) -> dict:
    """The fixed first ops, untraced and then traced; the difference in their
    summed op time is the tracing overhead."""
    setup_counts = dict(tracer.counts)
    tracer.counts.clear()
    plain = run_ops(workload, workload.trace_ops, probe)
    with tracer:
        traced = run_ops(workload, workload.trace_ops, probe, tracer)
    metrics = layer_metrics(tracer, setup_counts, workload)
    errors = [op["error"] for op in plain + traced if op["error"]]
    if not errors:
        untraced_s = sum(op["ref_s"] for op in plain)
        traced_s = sum(op["ref_s"] for op in traced)
        metrics.update({
            "trace.ops": workload.trace_ops,
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
        })
    tracer.save(spans_path)
    return {"metrics": metrics, "errors": errors, "probes": workload.probes(),
            "attempted": len(plain) + len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    try:
        # imported here so the probe samples the package import as set-up
        import loopless
        from tracer import Tracer
        from workloads import WORKLOADS

        setup_tracer = Tracer().install() if args.mode == "trace" else None
        workload = WORKLOADS[args.workload](args.seed, args.workdir,
                                            generate=args.mode != "measure")
        setup_end = time.perf_counter()
        if setup_tracer is not None:
            setup_tracer.uninstall()
        out = {"setup_s": setup_end - T_START,
               "setup_ref_s": probe.ref_seconds(T_START, setup_end, extra=20),
               "setup_rss_mb": peak_rss_mb(),
               "loopless": loopless.__file__, "package": loopless.__version__,
               "numpy": np.__version__}
        if args.mode == "measure":
            # a fixed op count keeps the tail percentile the same on every
            # commit; a faster program finishes sooner
            count = max(MIN_OPS, round(args.seconds / workload.NOMINAL_OP_S))
            out["ops"] = run_ops(workload, count, probe)
            out["probes"] = workload.probes()
        elif args.mode == "trace":
            out.update(trace(workload, setup_tracer, probe, args.spans))
    finally:
        probe.stop()
    out["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
