"""Each benchmark output check rejects a corrupted result.

    PYTHONPATH=src python3 -m pytest perfbench -q

Every test runs a real (small where the workload allows) op, confirms the
check accepts it, corrupts one value the op wrote, and expects CheckError.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np
import pytest

from loopless import data, harness
from tracer import Tracer, self_times
from workloads import (
    A9aSparse,
    GEN_BLOCK,
    CheckError,
    LemmasN400,
    ReferenceLogistic,
    SweepRidge,
    WORKLOADS,
    a9a_like,
    check_trace,
    write_and_round_trip,
)


def rewrite_cell(csv_path, row: int, column: str, value: str) -> None:
    """Overwrite one cell of a trace CSV; row counts records (-1 is the last)."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1 if row >= 0 else row][rows[0].index(column)] = value
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def rewrite_json(path, **changes) -> None:
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))


class SmallA9a(A9aSparse):
    N = 400


class SmallReference(ReferenceLogistic):
    N, FILES = 200, 2


def test_trace_check_rejects_non_finite_and_broken_accounting():
    rows = [{"k": 0, "oracle_calls": 10, "epoch": 1.0}, {"k": 3, "oracle_calls": 26, "epoch": 2.6}]
    assert check_trace(rows, 10, "ok") == 2.6
    with pytest.raises(CheckError, match="non-finite"):
        check_trace([{**rows[0], "epoch": math.nan}], 10, "nan")
    with pytest.raises(CheckError, match="oracle_calls"):
        check_trace([rows[0], {**rows[1], "oracle_calls": 27}], 10, "off by one")


def test_round_trip_check_rejects_a_lossy_writer(tmp_path, monkeypatch):
    dataset = a9a_like(50, 20, 4, seed=0)
    write_and_round_trip(dataset, tmp_path / "ok.txt")
    original = data.write_libsvm
    monkeypatch.setattr(data, "write_libsvm", lambda ds: original(ds).replace("+1 ", "-1 ", 1))
    with pytest.raises(CheckError, match="round"):
        write_and_round_trip(dataset, tmp_path / "bad.txt")


def test_generator_is_seeded_and_covers_every_feature():
    n = GEN_BLOCK + 300  # more than one block
    a, b = a9a_like(n, 123, 14, seed=5), a9a_like(n, 123, 14, seed=5)
    assert a == b and a != a9a_like(n, 123, 14, seed=6)
    assert all(row.nnz == 14 for row in a.rows)
    assert data.parse_libsvm(data.write_libsvm(a)).d == 123
    assert set(a.labels.tolist()) == {-1.0, 1.0}


def test_sweep_check_rejects_a_run_that_does_not_converge(tmp_path):
    workload = SweepRidge(seed=1, workdir=tmp_path)
    paths = workload.op(0)
    assert workload.check(0, paths) > 0
    with pytest.raises(CheckError, match="expected 10"):
        workload.check(0, paths[:-1])
    first = harness.read_trace(paths[3])[0]["dist_sq"]
    rewrite_cell(paths[3], -1, "dist_sq", repr(first))
    with pytest.raises(CheckError, match="dist_sq"):
        workload.check(0, paths)


def test_lemma_check_rejects_a_negative_slack(tmp_path):
    workload = LemmasN400(seed=1, workdir=tmp_path)
    paths = workload.op(0)
    assert workload.check(0, paths) > 0
    rewrite_cell(paths[1], 0, "slack_phi_contraction", "-1e-9")
    with pytest.raises(CheckError, match="slack_phi_contraction"):
        workload.check(0, paths)


def test_lemma_probes_report_the_loopy_defect_without_raising(tmp_path):
    # the loopy variants have no attribute p, so lemma-level runs die; a fix
    # to the package should turn both probes to None and update this test
    probes = dict(LemmasN400(seed=1, workdir=tmp_path).probes())
    assert set(probes) == {"svrg", "katyusha"}
    for alg, error in probes.items():
        assert re.match(r"AttributeError: .*'Loopy\w+' object has no attribute 'p'", error), alg


def test_sparse_check_rejects_a_wrong_sidecar(tmp_path):
    workload = SmallA9a(seed=1, workdir=tmp_path)
    path = workload.op(0)
    assert workload.check(0, path) > 0
    for change in ({"n": workload.N - 1}, {"d": workload.D + 1}, {"L": workload.L * 1.01}):
        rewrite_json(path.with_suffix(".json"), **change)
        with pytest.raises(CheckError, match="sidecar"):
            workload.check(0, path)
        rewrite_json(path.with_suffix(".json"), n=workload.N, d=workload.D, L=workload.L)
    rewrite_cell(path, -1, "oracle_calls", "5")
    with pytest.raises(CheckError, match="oracle_calls"):
        workload.check(0, path)


def test_reference_check_rejects_uncertified_or_unrepeatable_solves(tmp_path):
    workload = SmallReference(seed=1, workdir=tmp_path)
    first = workload.op(0)
    assert workload.check(0, first) > 0
    summary = tmp_path / "op0" / first[0].name.replace(".npz", ".json")
    again = workload.op(2)  # same input file as op 0
    assert workload.check(2, again) == first[1]
    repeat = tmp_path / "op2" / summary.name
    rewrite_json(repeat, f_star=json.loads(summary.read_text())["f_star"] * (1 + 1e-8))
    with pytest.raises(CheckError, match="f_star"):
        workload.check(2, again)
    rewrite_json(summary, grad_norm=1.0)
    with pytest.raises(CheckError, match="tolerance"):
        workload.check(0, first)


def test_workload_registry_matches_the_command_line():
    import run

    assert tuple(WORKLOADS) == run.WORKLOADS


def test_tracer_self_time_and_restores_every_patch():
    import loopless.diagnostics as diagnostics
    from loopless.oracle import Oracle

    before = (Oracle.__dict__["grad_i"], harness.compute_phi, diagnostics.compute_phi)
    tracer = Tracer()
    with tracer:
        assert Oracle.__dict__["grad_i"] is not before[0]
        assert harness.compute_phi is diagnostics.compute_phi is not before[1]
    assert (Oracle.__dict__["grad_i"], harness.compute_phi, diagnostics.compute_phi) == before

    cols = {
        "start": np.array([0, 10, 40]),
        "end": np.array([100, 30, 90]),
        "parent": np.array([-1, 0, 0]),
    }
    dur, own = self_times(cols)
    assert dur.tolist() == [100, 20, 50] and own.tolist() == [30, 20, 50]
