"""The four benchmark workloads: seeded inputs, one op each, output checks.

An op is one user-level call (or a fixed pair of calls) into
``loopless.harness``.  Each workload generates its inputs in ``__init__``
(the timed set-up; with ``generate=False`` it uses the inputs an earlier
set-up wrote to the same directory), runs op ``j`` with ``op(j)`` and
validates that op's output with ``check(j, result)``, which raises
``CheckError`` on a bad result and otherwise returns the optimizer epochs
the op performed.

The package only ever sees generated files or synthetic configs; every name
is looked up through its module (``harness.run_experiment``,
``data.save_libsvm``) so the traced run can patch it in one place.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from loopless import data, harness
from loopless.harness import RunConfig
from loopless.oracle import Oracle


class CheckError(AssertionError):
    """An op produced an output that fails the workload's checks."""


def op_seed(seed: int, j: int) -> int:
    """Optimizer seed of op j; distinct across ops and benchmark seeds."""
    return (seed << 20) + j


# -- input generators --------------------------------------------------------


GEN_BLOCK = 1024  # rows drawn at once; keeps the generator's temporaries small


def a9a_like(n: int, d: int, nnz: int, seed: int) -> data.Dataset:
    """Binary rows shaped like LIBSVM's a9a, labelled by a planted model.

    Every row has exactly ``nnz`` ones.  Feature j is drawn with weight
    proportional to 1/(j+1) (a few frequent one-hot columns and a long rare
    tail, as in a9a's census categories).  The first d rows each contain
    feature j == row index, so every column occurs and parsing the file back
    recovers dimension d.  Labels are sign(a_i . theta + logistic noise),
    re-centred at the median so both classes are present.  Rows are drawn
    GEN_BLOCK at a time, so the generator's peak memory stays below that of
    the parsed dataset and does not set a workload's peak_rss_mb.
    """
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d)
    log_weights = -np.log(np.arange(1, d + 1))
    idx = np.empty((n, nnz), dtype=np.int64)
    for lo in range(0, n, GEN_BLOCK):
        hi = min(n, lo + GEN_BLOCK)
        # Gumbel top-k: nnz distinct features per row, drawn by weight
        scores = log_weights - np.log(-np.log(rng.random((hi - lo, d))))
        forced = np.arange(lo, min(hi, d))
        scores[forced - lo, forced] = np.inf
        idx[lo:hi] = np.sort(np.argpartition(-scores, nnz - 1, axis=1)[:, :nnz], axis=1)
    margins = theta[idx].sum(axis=1) + rng.logistic(size=n)
    labels = np.where(margins > np.median(margins), 1.0, -1.0)
    ones = np.ones(nnz)
    rows = [data.SparseRow(r, ones) for r in idx]
    return data.Dataset(rows, labels, d)


def write_and_round_trip(dataset: data.Dataset, path: Path) -> None:
    """save_libsvm, then require that parsing the written text gives ds back."""
    data.save_libsvm(dataset, path)
    with open(path, "r", encoding="utf-8") as fh:
        if data.parse_libsvm(fh) != dataset:
            raise CheckError(f"{path.name}: round trip failed, parse(write(ds)) != ds")


# -- shared output checks ----------------------------------------------------


def check_trace(rows: list[dict], n: int, where: str) -> float:
    """Finite values and exact oracle accounting on every trace row.

    Every stochastic step costs 2 calls, initialization and each refresh cost
    n, so (oracle_calls - n - 2k) must be a multiple of n.  Returns the run's
    epochs, final oracle_calls / n.
    """
    if not rows:
        raise CheckError(f"{where}: empty trace")
    for row in rows:
        for key, value in row.items():
            if value is not None and not math.isfinite(value):
                raise CheckError(f"{where}: non-finite {key}={value} at k={row['k']}")
        if (row["oracle_calls"] - n - 2 * row["k"]) % n:
            raise CheckError(
                f"{where}: oracle_calls={row['oracle_calls']} breaks "
                f"n + 2k + (refreshes)n at k={row['k']}, n={n}"
            )
    return rows[-1]["oracle_calls"] / n


def read_run(csv_path: Path) -> tuple[list[dict], dict]:
    with open(csv_path.with_suffix(".json"), "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    return harness.read_trace(csv_path), sidecar


class Workload:
    """Base: a scratch directory per op, removed once the op is checked."""

    name = "?"
    trace_ops = 2  # ops in the traced run
    # an op's reference seconds at the commit that defined the benchmark (about
    # 1 s on lemmas-n400 and a9a-sparse); a measuring run makes
    # max(MIN_OPS, --seconds / NOMINAL_OP_S) ops on every commit
    NOMINAL_OP_S = 1.0

    def __init__(self, seed: int, workdir: Path, generate: bool = True):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def op_dir(self, j: int) -> Path:
        return self.workdir / f"op{j}"

    def clean(self, j: int) -> None:
        shutil.rmtree(self.op_dir(j), ignore_errors=True)

    def op(self, j: int):
        raise NotImplementedError

    def check(self, j: int, result) -> float:
        raise NotImplementedError

    def probes(self) -> list[tuple[str, str | None]]:
        """Known-defect probe ops: (label, error or None).  Never timed."""
        return []


class SweepRidge(Workload):
    """sweep_p over the five-point kappa grid on the criterion-6 instance.

    Per-step hot path: rng draws, dense grad_i and the (L-)SVRG update.
    Checkpoints every 5 epochs keep the distance diagnostic a small share.
    """

    name = "sweep-ridge"
    trace_ops = 2
    NOMINAL_OP_S = 0.32
    EPOCHS = 50.0
    SHRINK = 0.75  # final dist_sq must be at most this share of the initial

    def op(self, j):
        config = RunConfig(
            algorithm="l-svrg",
            synthetic=(100, 20, 1e4),
            loss="ridge",
            mu=1.0,
            data_seed=2,
            epochs=self.EPOCHS,
            checkpoint_every=5.0,
            seed=op_seed(self.seed, j),
            diagnostics="distance",
        )
        return harness.sweep_p(config, self.op_dir(j))

    def check(self, j, result):
        if len(result) != 10:
            raise CheckError(f"sweep wrote {len(result)} runs, expected 10")
        epochs = 0.0
        for path in result:
            rows, sidecar = read_run(path)
            epochs += check_trace(rows, sidecar["n"], path.name)
            first, last = rows[0]["dist_sq"], rows[-1]["dist_sq"]
            if not last <= self.SHRINK * first:
                raise CheckError(
                    f"{path.name}: dist_sq {first:.4g} -> {last:.4g}, "
                    f"not below {self.SHRINK} of the start"
                )
        return epochs


class LemmasN400(Workload):
    """Lemma-level run_experiment for L-Katyusha plus one for L-SVRG.

    Exact-expectation enumeration dominates (the Katyusha report makes O(n^2)
    full_loss calls).  Pairing both families in one op keeps op times
    unimodal.  The probes attempt the loopy variants at the same level.
    """

    name = "lemmas-n400"
    trace_ops = 2
    FAMILIES = ("l-katyusha", "l-svrg")
    PROBES = ("svrg", "katyusha")

    def config(self, algorithm: str, seed: int) -> RunConfig:
        return RunConfig(
            algorithm=algorithm,
            synthetic=(400, 20, 1e3),
            loss="ridge",
            mu=1.0,
            data_seed=self.seed,
            # one lemma report at the start and one at the end; 5 epochs of
            # steps let the refresh coins average out in the epoch count
            epochs=6.0,
            checkpoint_every=6.0,
            seed=seed,
            diagnostics="lemmas",
        )

    def op(self, j):
        return [
            harness.run_experiment(self.config(alg, op_seed(self.seed, j)), self.op_dir(j))
            for alg in self.FAMILIES
        ]

    def check(self, j, result):
        epochs = 0.0
        for path in result:
            rows, sidecar = read_run(path)
            epochs += check_trace(rows, sidecar["n"], path.name)
            for row in rows:
                for key, value in row.items():
                    if key.startswith("slack_") and not value >= -1e-10:
                        raise CheckError(f"{path.name}: {key}={value} at k={row['k']}")
            if not any(key.startswith("slack_") for key in rows[0]):
                raise CheckError(f"{path.name}: no slack columns")
        return epochs

    def probes(self):
        out = []
        for k, alg in enumerate(self.PROBES):
            j = -1 - k
            try:
                config = self.config(alg, op_seed(self.seed, j))
                path = harness.run_experiment(config, self.op_dir(j))
                self.check(j, [path])
                out.append((alg, None))
            except Exception as exc:  # the probe records whatever the defect raises
                out.append((alg, f"{type(exc).__name__}: {exc}"))
            finally:
                self.clean(j)
        return out


class A9aSparse(Workload):
    """run_experiment on an a9a-shaped LIBSVM file, alternating L-SVRG and
    L-Katyusha: parsing, building the CSR oracle, CSR grad_i, and CSR
    full_grad at init and on refresh."""

    name = "a9a-sparse"
    trace_ops = 2
    N, D, NNZ, MU = 32561, 123, 14, 1e-3
    FAMILIES = ("l-svrg", "l-katyusha")

    def __init__(self, seed, workdir, generate=True):
        super().__init__(seed, workdir)
        self.path = self.workdir / "a9a.txt"
        if generate:
            write_and_round_trip(a9a_like(self.N, self.D, self.NNZ, seed), self.path)
        # binary rows of NNZ ones: every squared row norm is NNZ
        self.L = 0.25 * self.NNZ + self.MU

    def op(self, j):
        config = RunConfig(
            algorithm=self.FAMILIES[j % 2],
            dataset_path=str(self.path),
            loss="logistic",
            mu=self.MU,
            epochs=1.5,
            checkpoint_every=0.25,
            seed=op_seed(self.seed, j),
            diagnostics="none",
        )
        return harness.run_experiment(config, self.op_dir(j))

    def check(self, j, result):
        rows, sidecar = read_run(result)
        got = (sidecar["n"], sidecar["d"], sidecar["L"])
        if got[:2] != (self.N, self.D) or not math.isclose(got[2], self.L, rel_tol=1e-12):
            raise CheckError(f"sidecar (n, d, L) = {got}, generator {self.N, self.D, self.L}")
        return check_trace(rows, self.N, result.name)


class ReferenceLogistic(Workload):
    """solve_reference_cli on normalized a9a-like logistic files, cycling over
    FILES inputs from different data seeds; gradient descent to the
    ||grad|| certificate is the only work.  Epochs are full-gradient passes,
    counted on Oracle.full_grad (the solve writes no trace)."""

    name = "reference-logistic"
    trace_ops = 3
    NOMINAL_OP_S = 1.45
    N, D, NNZ, MU, FILES = 800, 123, 14, 1e-2, 3

    def __init__(self, seed, workdir, generate=True):
        super().__init__(seed, workdir)
        self.paths = [self.workdir / f"ref{f}.txt" for f in range(self.FILES)]
        for f, path in enumerate(self.paths if generate else []):
            rows = a9a_like(self.N, self.D, self.NNZ, seed * self.FILES + f)
            dataset = data.normalize_rows(rows)
            if f == 0:
                write_and_round_trip(dataset, path)
            else:
                data.save_libsvm(dataset, path)
        self.f_star: dict[int, float] = {}

    def op(self, j):
        config = RunConfig(
            algorithm="gd",
            dataset_path=str(self.paths[j % self.FILES]),
            loss="logistic",
            mu=self.MU,
        )
        with count_calls(Oracle, "full_grad") as calls:
            npz = harness.solve_reference_cli(config, self.op_dir(j))
        return npz, calls[0]

    def check(self, j, result):
        npz, full_grads = result
        with open(str(npz).removesuffix(".npz") + ".json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        values = [summary[k] for k in ("f_star", "grad_norm", "tolerance", "L")]
        if not all(math.isfinite(v) for v in values):
            raise CheckError(f"non-finite reference summary {summary}")
        if (summary["n"], summary["d"]) != (self.N, self.D):
            raise CheckError(f"reference solved (n, d) = ({summary['n']}, {summary['d']})")
        if not summary["grad_norm"] <= summary["tolerance"]:
            raise CheckError(
                f"grad_norm {summary['grad_norm']:.3e} > tolerance {summary['tolerance']:.3e}"
            )
        first = self.f_star.setdefault(j % self.FILES, summary["f_star"])
        if not math.isclose(summary["f_star"], first, rel_tol=1e-9, abs_tol=0.0):
            raise CheckError(f"f_star {summary['f_star']!r} != {first!r} on the same input")
        return float(full_grads)


@contextlib.contextmanager
def count_calls(owner, attr: str):
    """Count calls of owner.attr while the block runs (no timing)."""
    original = getattr(owner, attr)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counted)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


WORKLOADS = {
    cls.name: cls for cls in (SweepRidge, LemmasN400, A9aSparse, ReferenceLogistic)
}
