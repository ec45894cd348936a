"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``loopless`` layer from the
outside, at the name each caller looks up: methods on their classes
(``Oracle.grad_i``, ``LSVRG.step``, ``SplitMix64.randbelow``) and module
functions in every module that calls them (``harness`` imports ``run``,
``verify_lemma_bounds``, ``compute_phi`` and ``compute_psi`` by name, so
those are patched in ``harness`` as well as in their home module).

A span is (name, start, end, parent, op): perf_counter_ns bounds, the index
of the enclosing span (-1 at top level) and the op id (-1 during set-up).
Spans go into flat ``array('q')`` columns and are written out once, at the
end.  A span's self time is its duration minus its children's durations;
calls run on one thread, so children never overlap.

Counts that only the arguments or results show (random words consumed,
refreshes, oracle calls, bytes) are accumulated in ``counts`` by hooks that
run just outside the span they belong to.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from array import array
from collections import Counter

import numpy as np

from loopless import data, diagnostics, harness, optimizers
from loopless.oracle import Oracle
from loopless.rng import SplitMix64

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# splitmix64 advances its state by _GAMMA per word, so words consumed by a
# call are (state_after - state_before) * _GAMMA^-1 mod 2^64
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)


def _file_bytes(source) -> int:
    if isinstance(source, str):
        return len(source.encode())
    try:
        return os.fstat(source.fileno()).st_size
    except (AttributeError, OSError):
        return 0


class Tracer:
    COLUMNS = ("name", "start", "end", "parent", "op")

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in self.COLUMNS}
        self._stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._nnz: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        cols = self.cols
        idx = len(cols["name"])
        cols["name"].append(nid)
        cols["parent"].append(self._stack[-1])
        cols["op"].append(self.op_id)
        cols["end"].append(0)
        self._stack.append(idx)
        cols["start"].append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.cols["end"][idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """fn inside a span; after(args, result, before(args)) runs outside it."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, result, token)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, before, after))
        else:
            new = self.wrap(name, raw, before, after)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self):
        counts = self.counts

        def add(key, amount=1):
            def hook(args, result, token):
                counts[key] += amount(args, result, token) if callable(amount) else amount
            return hook

        def evals_of_full_pass(args, result, token):
            counts["evals"] += args[0].n

        def full_grad_done(args, result, token):
            oracle = args[0]
            if oracle not in self._nnz:
                self._nnz[oracle] = sum(row.nnz for row in oracle.dataset.rows)
            counts["full_grad.nnz"] += self._nnz[oracle]
            counts["full_grad.calls"] += 1
            counts["evals"] += oracle.n

        # rng
        self.patch(SplitMix64, "randbelow", "rng.randbelow",
                   before=lambda a: a[0]._state,
                   after=add("rng.words",
                             lambda a, r, s0: ((a[0]._state - s0) * _GAMMA_INV) & _MASK64))
        self.patch(SplitMix64, "bernoulli", "rng.bernoulli")
        # oracle: methods live on the base class; subclasses only add losses
        self.patch(Oracle, "__init__", "oracle.init")
        self.patch(Oracle, "grad_i", "oracle.grad_i", after=add("evals"))
        self.patch(Oracle, "full_grad", "oracle.full_grad", after=full_grad_done)
        self.patch(Oracle, "full_loss", "oracle.full_loss", after=evals_of_full_pass)
        self.patch(Oracle, "grad_table", "oracle.grad_table")
        # optimizers: one step per class; run() as harness looks it up
        for cls in optimizers.ALGORITHMS.values():
            self.patch(cls, "step", "optimizers.step",
                       before=lambda a: a[0].oracle_calls,
                       after=add("optimizers.refreshes",
                                 lambda a, r, calls0: int(a[0].oracle_calls - calls0 > 2)))
        self.patch(harness, "run", "optimizers.run",
                   after=add("optimizers.oracle_calls", lambda a, r, t: a[0].oracle_calls))
        # diagnostics, in diagnostics itself and where harness imported them
        def patch_diagnostics(fn, before=None, after=None):
            traced = self.wrap(f"diagnostics.{fn}", getattr(diagnostics, fn), before, after)
            for module in (diagnostics, harness):
                self._patches.append((module, fn, getattr(module, fn)))
                setattr(module, fn, traced)

        patch_diagnostics("compute_phi")
        patch_diagnostics("compute_psi")
        patch_diagnostics("verify_lemma_bounds", before=lambda a: counts["evals"],
                          after=add("report_evals", lambda a, r, e0: counts["evals"] - e0))
        self.patch(diagnostics, "solve_reference", "diagnostics.solve_reference",
                   before=lambda a: counts["full_grad.calls"],
                   after=add("solve_reference.full_grads",
                             lambda a, r, c0: counts["full_grad.calls"] - c0))
        self.patch(diagnostics.ReferenceSolution, "from_point",
                   "diagnostics.reference_from_point")
        # data
        self.patch(data, "parse_libsvm", "data.parse_libsvm",
                   after=add("parse.bytes", lambda a, r, t: _file_bytes(a[0])))
        self.patch(data, "save_libsvm", "data.save_libsvm",
                   after=add("save.bytes", lambda a, r, t: os.path.getsize(a[1])))
        self.patch(harness, "synthesize_quadratic", "data.synthesize_quadratic")
        # harness
        for fn in ("sweep_p", "run_experiment", "solve_reference_cli", "build_problem",
                   "resolve_params", "build_reference", "make_optimizer"):
            self.patch(harness, fn, f"harness.{fn}")
        self.patch(harness, "write_trace", "harness.write_trace",
                   after=add("trace.bytes", lambda a, r, t: os.path.getsize(a[2])))
        build_metrics = harness.build_metrics
        self._patches.append((harness, "build_metrics", build_metrics))
        harness.build_metrics = functools.wraps(build_metrics)(
            lambda *a, **k: self.wrap("harness.metrics", build_metrics(*a, **k))
        )
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {c: np.frombuffer(self.cols[c], dtype=np.int64) for c in self.COLUMNS}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(cols: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span, in ns."""
    dur = cols["end"] - cols["start"]
    nested = cols["parent"] >= 0
    child = np.bincount(cols["parent"][nested], weights=dur[nested], minlength=dur.size)
    return dur, dur - child.astype(np.int64)


def root_share(names: list[str], cols: dict[str, np.ndarray], roots: tuple[str, ...],
               op_span: str) -> float:
    """Share of op-span time spent inside spans named by a prefix in roots.

    cols must hold op spans only (set-up spans are not under an op span).
    Counts each root span's whole duration once (a root nested in another
    root is already covered)."""
    dur, _ = self_times(cols)
    is_root = [n.startswith(roots) for n in names]
    under = [False] * dur.size
    covered = 0
    for i, (nid, parent) in enumerate(zip(cols["name"].tolist(), cols["parent"].tolist())):
        inherited = parent >= 0 and under[parent]
        if is_root[nid] and not inherited:
            covered += int(dur[i])
        under[i] = inherited or is_root[nid]
    total = int(dur[cols["name"] == names.index(op_span)].sum())
    return covered / total if total else 0.0
