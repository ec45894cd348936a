import csv
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from loopless import diagnostics, harness
from loopless.harness import (
    ConfigError,
    DataError,
    _DIAGNOSTIC_LEVELS,
    RunConfig,
    _run_batch,
    build_problem,
    compare_all,
    emit_plotdata,
    epochs_to_threshold,
    normalize_grid,
    probability_grid,
    read_trace,
    resolve_params,
    run_experiment,
    sweep_p,
    trace_columns,
    write_trace,
)
from loopless.oracle import Oracle
from loopless.optimizers import ALGORITHMS, run_lanes
from loopless.rng import SplitMix64

from conftest import read_lines, serial_step, strip_wall


def synthetic_config(**overrides):
    base = dict(
        algorithm="l-svrg",
        synthetic=(10, 4, 25.0),
        loss="ridge",
        mu=1.0,
        epochs=5.0,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "overrides, pattern",
    [
        (dict(algorithm="sgd"), "unknown algorithm"),
        (dict(synthetic=None), "exactly one of"),
        (dict(dataset_path="x.svm"), "exactly one of"),
        (dict(loss="hinge"), "unknown loss"),
        (dict(mu=0.0), "mu must be positive"),
        (dict(epochs=0.0), "epochs must be positive"),
        (dict(checkpoint_every=0.0), "checkpoint_every"),
        (dict(diagnostics="everything"), "unknown diagnostics"),
        (dict(algorithm="gd", diagnostics="lyapunov"), "Lyapunov diagnostics"),
        (dict(ref_tolerance=0.0), "ref_tolerance must be positive"),
        (dict(ref_max_epochs=-1), "ref_max_epochs must be >= 0"),
        (dict(params={"alpha": 1.0}), "unknown params"),
    ],
)
def test_config_validation_errors(overrides, pattern):
    with pytest.raises(ConfigError, match=pattern):
        synthetic_config(**overrides).validate()


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"algorithm": "gd", "synthetic": (1, 1, 1), "foo": 2})


@pytest.mark.parametrize(
    "overrides, pattern",
    [
        (dict(mu="abc"), "mu must be float, got 'abc'"),
        (dict(epochs="5"), "epochs must be float"),
        (dict(seed=1.5), "seed must be int"),
        (dict(data_seed=True), "data_seed must be int"),
        (dict(synthetic=(10, 4)), "synthetic must be"),
        (dict(synthetic=(10, 4, "x")), "synthetic must be"),
        (dict(diagnostics=None), "diagnostics must be str"),
        (dict(params=[1.0]), "params must be dict"),
    ],
)
def test_config_fields_of_the_wrong_type(overrides, pattern):
    with pytest.raises(ConfigError, match=pattern):
        synthetic_config(**overrides).validate()


@pytest.mark.parametrize("synthetic", [[10, 4], 10, ["a", 4, 25]])
def test_config_from_dict_rejects_a_malformed_synthetic_shape(synthetic):
    with pytest.raises(ConfigError, match=r"synthetic=.* is not \[n, d, kappa\]"):
        RunConfig.from_dict({"algorithm": "gd", "synthetic": synthetic})


def test_make_optimizer_rejects_a_non_numeric_x0(tmp_path):
    with pytest.raises(ConfigError, match="x0"):
        run_experiment(synthetic_config(x0=[1.0, "a", 0.0, 0.0]), tmp_path)


def test_resolve_params_theory_values():
    config = synthetic_config()
    oracle, _ = build_problem(config)
    params = resolve_params(config, oracle)
    assert params == {"eta": 1.0 / (6.0 * oracle.L), "p": 1.0 / oracle.n}

    katyusha = synthetic_config(algorithm="l-katyusha")
    kp = resolve_params(katyusha, oracle)
    sigma = oracle.mu / oracle.L
    assert kp["theta1"] == min(np.sqrt(2 * sigma * oracle.n / 3), 0.5)
    assert kp["theta2"] == 0.5 and kp["p"] == 1.0 / oracle.n


def test_resolve_params_explicit_override_and_errors():
    config = synthetic_config(params={"eta": 0.01, "p": 0.2})
    oracle, _ = build_problem(config)
    assert resolve_params(config, oracle) == {"eta": 0.01, "p": 0.2}

    # a partial override keeps the preset's other values, in constructor order
    partial = synthetic_config(params={"p": 0.2})
    assert list(resolve_params(partial, oracle).items()) == [
        ("eta", 1.0 / (6.0 * oracle.L)), ("p", 0.2)]

    mixed = synthetic_config(params={"eta": 0.01, "p": 0.2, "m": 3})
    with pytest.raises(ConfigError, match="do not apply"):
        resolve_params(mixed, oracle)


# ------------------------------------------------------------------- running


def test_run_experiment_writes_trace_and_sidecar(tmp_path):
    config = synthetic_config(diagnostics="lyapunov")
    csv_path = run_experiment(config, tmp_path)
    assert csv_path.exists()
    sidecar = json.loads(csv_path.with_suffix(".json").read_text())
    assert sidecar["algorithm"] == "l-svrg"
    assert sidecar["kappa"] == pytest.approx(25.0, rel=1e-12)
    # resolved parameters satisfy the constructor relations bit-exactly
    assert sidecar["params"]["eta"] == 1.0 / (6.0 * sidecar["L"])
    assert sidecar["params"]["p"] == 1.0 / sidecar["n"]
    assert 0.0 < sidecar["predicted_rate"] < 1.0
    assert sidecar["reference"]["grad_norm"] <= sidecar["reference"]["tolerance"]

    trace = read_trace(csv_path)
    assert trace[0]["epoch"] == 1.0
    epochs = [row["epoch"] for row in trace]
    assert epochs == sorted(epochs)
    assert all(row["phi"] >= row["dist_sq"] >= 0.0 for row in trace)
    # the Lyapunov value decays substantially over 5 epochs on a tame problem
    assert trace[-1]["phi"] < trace[0]["phi"]


def test_katyusha_sidecar_eta_identity(tmp_path):
    config = synthetic_config(algorithm="l-katyusha")
    csv_path = run_experiment(config, tmp_path)
    sidecar = json.loads(csv_path.with_suffix(".json").read_text())
    t1 = sidecar["params"]["theta1"]
    t2 = sidecar["params"]["theta2"]
    assert sidecar["eta"] == t2 / ((1.0 + t2) * t1)
    assert sidecar["sigma"] == sidecar["mu"] / sidecar["L"]


def test_a_predicted_rate_only_where_the_paper_proves_one(tmp_path):
    """The paper proves a per-step rate for the coin rule only: L-SVRG's
    max(1 - eta mu, 1 - p/2) for every p in (0, 1] and L-Katyusha's
    1 - min(sigma / (6 theta1), theta1 / (2n)).  The loopy classes and
    gradient descent claim none.  Each rate is recomputed from its sidecar's
    own params, mu, L and n; both Katyusha classes keep their derived sigma
    and eta."""
    compare_all(synthetic_config(epochs=1.0), tmp_path, seeds=[0])
    sidecars = [json.loads(path.read_text()) for path in tmp_path.glob("*_seed0.json")]
    sidecars = {sidecar["algorithm"]: sidecar for sidecar in sidecars}
    assert set(sidecars) == set(ALGORITHMS)
    for algorithm in ("gd", "svrg", "katyusha"):
        assert "predicted_rate" not in sidecars[algorithm]

    lsvrg = sidecars["l-svrg"]
    eta, p = lsvrg["params"]["eta"], lsvrg["params"]["p"]
    assert lsvrg["predicted_rate"] == max(1.0 - eta * lsvrg["mu"], 1.0 - p / 2.0)
    lkat = sidecars["l-katyusha"]
    sigma, theta1 = lkat["mu"] / lkat["L"], lkat["params"]["theta1"]
    assert lkat["predicted_rate"] == 1.0 - min(sigma / (6.0 * theta1),
                                               theta1 / (2.0 * lkat["n"]))
    for sidecar in (sidecars["katyusha"], lkat):
        t1, t2 = sidecar["params"]["theta1"], sidecar["params"]["theta2"]
        assert sidecar["sigma"] == sidecar["mu"] / sidecar["L"]
        assert sidecar["eta"] == t2 / ((1.0 + t2) * t1)


def test_trace_columns_by_diagnostics_level():
    assert trace_columns(synthetic_config(diagnostics="none")) == [
        "k", "oracle_calls", "epoch", "wall_ns",
    ]
    assert trace_columns(synthetic_config(diagnostics="distance")) == [
        "k", "oracle_calls", "epoch", "dist_sq", "f_gap", "wall_ns",
    ]
    assert "phi" in trace_columns(synthetic_config(diagnostics="lyapunov"))
    katyusha = synthetic_config(algorithm="katyusha", diagnostics="lyapunov")
    cols = trace_columns(katyusha)
    assert {"psi", "zk", "yk", "wk"} <= set(cols)
    lemmas = trace_columns(synthetic_config(diagnostics="lemmas"))
    assert "slack_phi_contraction" in lemmas


# every level each algorithm runs at; the loopy classes' Lyapunov levels end
# in an AttributeError (their potentials read the coin's p), see ROADMAP
_LEVELS = {"gd": ("none", "distance"), "svrg": ("none", "distance"),
           "katyusha": ("none", "distance"), "l-svrg": _DIAGNOSTIC_LEVELS,
           "l-katyusha": _DIAGNOSTIC_LEVELS}


@pytest.mark.parametrize("runs", [1, 3])  # one run by run(), three as lanes
@pytest.mark.parametrize("algorithm, level", [
    (algorithm, level) for algorithm, levels in _LEVELS.items() for level in levels])
def test_a_record_is_the_row_read_trace_reads_back(tmp_path, monkeypatch, algorithm,
                                                   level, runs):
    batches = []  # each run_lanes batch's size

    def recording(optimizers, rngs, **budget):
        batches.append(len(optimizers))
        return run_lanes(optimizers, rngs, **budget)

    monkeypatch.setattr(harness, "run_lanes", recording)
    configs = [synthetic_config(algorithm=algorithm, diagnostics=level, seed=seed,
                                epochs=3.0, checkpoint_every=0.7).validate()
               for seed in range(runs)]
    oracle, minimizer = build_problem(configs[0])
    paths, traces = _run_batch(configs, oracle, minimizer, tmp_path)
    assert batches == ([3] if runs == 3 and algorithm != "gd" else [])
    for config, path, records in zip(configs, paths, traces):
        assert len(records) > 2
        assert read_trace(path) == records
        assert all(list(rec) == trace_columns(config) for rec in records)
        # an integer counter reads back as an int, not as the float it equals
        assert [list(map(type, rec.values())) for rec in read_trace(path)] == [
            list(map(type, rec.values())) for rec in records]


def test_a_record_without_a_column_fails_write_trace(tmp_path):
    # a row holds every column: a missing value is a bug, not a blank cell
    with pytest.raises(KeyError, match="dist_sq"):
        write_trace([{"k": 0, "epoch": 1.0}], ["k", "dist_sq", "epoch"], tmp_path / "t.csv")


# the passes over the data of one checkpoint's metrics, on dense ridge: at
# distance f at the tracked point by full_loss; above it one stacked _margins
# pass, to which the Katyusha lemma report adds full_grad(x) and the two
# passes of loss_along_rows (f at y_bar, then the slopes a_i^T grad f(y_bar))
_PASSES = {
    ("l-svrg", "distance"): {"_margins": 1, "full_loss": 1},
    ("l-svrg", "lyapunov"): {"_margins": 1},
    ("l-svrg", "lemmas"): {"_margins": 1},
    ("l-katyusha", "distance"): {"_margins": 1, "full_loss": 1},
    ("l-katyusha", "lyapunov"): {"_margins": 1},
    ("l-katyusha", "lemmas"): {"_margins": 4, "full_grad": 1},
}


@pytest.mark.parametrize("algorithm, level", list(_PASSES))
def test_a_checkpoint_makes_one_pass_over_the_data(monkeypatch, small_ridge, algorithm,
                                                   level):
    oracle, ref = small_ridge
    assert oracle._dense is not None
    cls = ALGORITHMS[algorithm]
    opt = cls(oracle, np.ones(oracle.d), **cls.theory_params(oracle))
    rng = SplitMix64(1)
    for _ in range(15):
        serial_step(opt, rng)
    metrics = harness.build_metrics(synthetic_config(algorithm=algorithm, diagnostics=level),
                                    oracle, ref)
    metrics(opt)  # what a report builds once per oracle, such as row_norms_sq
    calls = Counter()

    def counted(name, method):
        def count(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return count

    for name in ("_margins", "full_loss", "full_grad"):
        monkeypatch.setattr(Oracle, name, counted(name, getattr(Oracle, name)))
    columns = metrics(opt)
    assert dict(calls) == _PASSES[algorithm, level]
    assert list(columns) == trace_columns(synthetic_config(
        algorithm=algorithm, diagnostics=level))[3:-1]


def test_run_experiment_deterministic_modulo_wall(tmp_path):
    config = synthetic_config(diagnostics="lemmas", epochs=3.0)
    a = run_experiment(config, tmp_path / "a")
    b = run_experiment(config, tmp_path / "b")
    assert strip_wall(read_lines(a)) == strip_wall(read_lines(b))


def test_run_experiment_none_diagnostics_has_no_reference(tmp_path):
    config = synthetic_config(diagnostics="none")
    csv_path = run_experiment(config, tmp_path)
    sidecar = json.loads(csv_path.with_suffix(".json").read_text())
    assert "reference" not in sidecar
    trace = read_trace(csv_path)
    assert "dist_sq" not in trace[0]


def test_run_experiment_logistic_solves_reference(tmp_path):
    config = synthetic_config(loss="logistic", mu=0.5, epochs=3.0)
    csv_path = run_experiment(config, tmp_path)
    sidecar = json.loads(csv_path.with_suffix(".json").read_text())
    assert sidecar["reference"]["grad_norm"] <= sidecar["reference"]["tolerance"]


def test_run_experiment_reads_libsvm_file(tmp_path):
    data = tmp_path / "tiny.svm"
    data.write_text("+1 1:1 2:0.5\n-1 1:-1\n+1 2:2\n", encoding="utf-8")
    config = synthetic_config(
        synthetic=None, dataset_path=str(data), loss="logistic", mu=0.3, epochs=2.0
    )
    csv_path = run_experiment(config, tmp_path / "out")
    assert len(read_trace(csv_path)) >= 2


def test_run_experiment_missing_file_raises_data_error(tmp_path):
    config = synthetic_config(synthetic=None, dataset_path=str(tmp_path / "nope.svm"))
    with pytest.raises(DataError):
        run_experiment(config, tmp_path)


def test_run_experiment_bad_x0_shape(tmp_path):
    config = synthetic_config(x0=[1.0, 2.0])
    with pytest.raises(ConfigError, match="x0"):
        run_experiment(config, tmp_path)


# ---------------------------------------------------------------------- grid


def test_probability_grid_log_uniform_arithmetic():
    grid = probability_grid(100, 1e4)
    assert grid == [100, 316, 1000, 3162, 10000]


def test_probability_grid_collapses_when_kappa_equals_n():
    assert probability_grid(50, 50.0) == [50]


def test_normalize_grid_rejects_a_length_below_one():
    assert normalize_grid([0.6, 3.6, 3.6]) == [1, 4]
    with pytest.raises(ConfigError, match="grid loop length 0.2 rounds below 1"):
        normalize_grid([3.6, 0.2])


def test_sweep_p_writes_pairs(tmp_path):
    config = synthetic_config(epochs=2.0)
    paths = sweep_p(config, tmp_path, grid=[2, 5])
    assert len(paths) == 4
    tags = sorted(p.name for p in paths)
    assert tags == [
        "l-svrg_ridge_seed0_loop2.csv",
        "l-svrg_ridge_seed0_loop5.csv",
        "svrg_ridge_seed0_loop2.csv",
        "svrg_ridge_seed0_loop5.csv",
    ]
    lsvrg_sidecar = json.loads((tmp_path / "l-svrg_ridge_seed0_loop5.json").read_text())
    svrg_sidecar = json.loads((tmp_path / "svrg_ridge_seed0_loop5.json").read_text())
    assert lsvrg_sidecar["params"]["p"] == 0.2
    assert svrg_sidecar["params"]["m"] == 5
    assert lsvrg_sidecar["params"]["eta"] == svrg_sidecar["params"]["eta"]


# 40 rows of 3 real-valued entries among 64 features, which the oracle keeps as CSR
CSR_LOGISTIC = Path(__file__).resolve().parent / "golden" / "inputs" / "sparse_logistic.svm"


def compare_runs(config, out_dir):
    """compare_all over gd, l-svrg and l-katyusha with three seeds (so each
    family runs as lanes); its run CSVs."""
    compare_all(config, out_dir, seeds=[0, 1, 2],
                algorithms=["gd", "l-svrg", "l-katyusha"])
    return sorted(p for p in out_dir.glob("*.csv") if p.name != "summary.csv")


@pytest.mark.parametrize(
    "batch, runs",
    [(lambda config, out_dir: sweep_p(config, out_dir, grid=[2, 7]), 4),
     (compare_runs, 9)],
    ids=["sweep_p", "compare_all"],
)
def test_batch_is_deterministic_and_writes_run_experiment_outputs(tmp_path, batch, runs):
    """On synthetic ridge and on a CSR logistic LIBSVM file, a batch writes
    the same traces twice, and each run's trace (but wall_ns) and sidecar
    are those run_experiment writes for its config, byte for byte."""
    problems = {"ridge": {}, "csr-logistic": dict(synthetic=None, loss="logistic", mu=0.1,
                                                  dataset_path=str(CSR_LOGISTIC))}
    for problem, overrides in problems.items():
        config = synthetic_config(epochs=6.0, checkpoint_every=0.5, **overrides)
        first = batch(config, tmp_path / problem / "a")
        second = batch(config, tmp_path / problem / "b")
        assert len(first) == len(second) == runs
        for a, b in zip(first, second):
            assert strip_wall(read_lines(a)) == strip_wall(read_lines(b))
        for path in first:
            sidecar = json.loads(path.with_suffix(".json").read_text())
            run_id = f"{sidecar['algorithm']}_{sidecar['loss']}_seed{sidecar['seed']}"
            single = replace(config, algorithm=sidecar["algorithm"], seed=sidecar["seed"],
                             params=sidecar["params"],
                             tag=path.stem.removeprefix(run_id).lstrip("_"))
            alone = run_experiment(single, tmp_path / problem / "alone")
            assert alone.name == path.name
            assert (alone.with_suffix(".json").read_bytes()
                    == path.with_suffix(".json").read_bytes())
            assert strip_wall(read_lines(path)) == strip_wall(read_lines(alone))


def test_a_loop_length_past_int64_gives_the_traces_run_experiment_writes(tmp_path):
    huge = 10**20  # a loop length numpy's int64 cannot hold
    config = synthetic_config(epochs=3.0, checkpoint_every=0.5)
    paths = sweep_p(config, tmp_path / "sweep", grid=[5, huge])  # four lanes
    assert len(paths) == 4
    for algorithm in ("l-svrg", "svrg"):
        alone = run_experiment(
            replace(config, algorithm=algorithm, tag=f"loop{huge}",
                    params=ALGORITHMS[algorithm].loop_params(huge)), tmp_path / "alone")
        batched = tmp_path / "sweep" / alone.name
        assert batched in paths
        assert strip_wall(read_lines(batched)) == strip_wall(read_lines(alone))
        assert (batched.with_suffix(".json").read_bytes()
                == alone.with_suffix(".json").read_bytes())


def test_a_family_runs_as_lanes_from_three_runs(tmp_path, monkeypatch):
    reached = []  # the algorithms of each run_lanes batch

    def recording(optimizers, rngs, **budget):
        reached.append([opt.name for opt in optimizers])
        return run_lanes(optimizers, rngs, **budget)

    monkeypatch.setattr(harness, "run_lanes", recording)
    config = synthetic_config(epochs=2.0)
    # a default compare-all: two runs of each family, each made by run
    compare_all(config, tmp_path / "one", seeds=[0])
    assert reached == []
    compare_all(config, tmp_path / "three", seeds=[0, 1, 2],
                algorithms=["gd", "l-svrg", "katyusha"])
    assert reached == [["l-svrg"] * 3, ["katyusha"] * 3]
    reached.clear()
    sweep_p(config, tmp_path / "sweep", grid=[2])  # one l-svrg and one svrg run
    assert reached == []


def test_default_compare_all_writes_the_traces_run_writes(tmp_path):
    config = synthetic_config(epochs=3.0, checkpoint_every=0.5)
    compare_all(config, tmp_path / "batch", seeds=[4])
    for name in ALGORITHMS:
        alone = run_experiment(replace(config, algorithm=name, seed=4), tmp_path / "alone")
        batched = tmp_path / "batch" / alone.name
        assert strip_wall(read_lines(batched)) == strip_wall(read_lines(alone))
        assert (batched.with_suffix(".json").read_bytes()
                == alone.with_suffix(".json").read_bytes())


# ------------------------------------------------------------------- compare


def test_epochs_to_threshold():
    rows = [(1.0, 5.0), (2.0, 0.5), (3.0, 0.01)]
    assert epochs_to_threshold(rows, 0.5) == 2.0
    assert epochs_to_threshold(rows, 1e-9) == float("inf")


def test_compare_all_summary(tmp_path):
    config = synthetic_config(epochs=15.0)
    summary = compare_all(
        config,
        tmp_path,
        seeds=[0, 1],
        algorithms=["gd", "l-svrg"],
        thresholds=(1e-2, 1e-30),
    )
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2
    assert {r["algorithm"] for r in rows} == {"gd", "l-svrg"}
    # the absurd threshold is never reached within the budget
    unreachable = [r for r in rows if float(r["threshold"]) == 1e-30]
    assert all(r["epochs_to_threshold"] == "inf" for r in unreachable)
    reachable = [r for r in rows if float(r["threshold"]) == 1e-2]
    assert all(r["epochs_to_threshold"] != "inf" for r in reachable)


def test_compare_all_single_algorithm_group(tmp_path):
    config = synthetic_config(epochs=2.0)
    summary = compare_all(config, tmp_path, seeds=[0], algorithms=["gd"],
                          thresholds=(1e-2,))
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["algorithm"] for r in rows] == ["gd"]


def test_compare_all_builds_the_problem_and_reference_once(tmp_path, monkeypatch):
    data = tmp_path / "tiny.svm"
    data.write_text("+1 1:1 2:0.5\n-1 1:-1\n+1 2:2\n-1 1:0.3 2:-1\n", encoding="utf-8")
    calls = {"build_problem": 0, "solve_reference": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(harness, "build_problem")
    counted(diagnostics, "solve_reference")
    config = synthetic_config(synthetic=None, dataset_path=str(data), loss="logistic",
                              mu=0.3, epochs=2.0)
    compare_all(config, tmp_path / "out", seeds=[0, 1], algorithms=["gd", "l-svrg"])
    assert calls == {"build_problem": 1, "solve_reference": 1}


def test_compare_all_requires_distance(tmp_path):
    config = synthetic_config(diagnostics="none")
    with pytest.raises(ConfigError, match="distance"):
        compare_all(config, tmp_path, seeds=[0])


@pytest.mark.parametrize(
    "batch, message",
    [(lambda config, out: compare_all(config, out, seeds=[]), "empty batch"),
     (lambda config, out: compare_all(config, out, seeds=[0], algorithms=[]), "empty batch"),
     (lambda config, out: sweep_p(config, out, grid=[]), "empty batch"),
     (lambda config, out: compare_all(config, out, seeds=[0], thresholds=()),
      "need thresholds")],
    ids=["no-seeds", "no-algorithms", "no-loop-lengths", "no-thresholds"],
)
def test_an_empty_batch_is_a_config_error(tmp_path, batch, message):
    with pytest.raises(ConfigError, match=message):
        batch(synthetic_config(), tmp_path / "out")
    assert not (tmp_path / "out").exists()  # nothing run or written


# ------------------------------------------------------------------ plotdata


def test_plotdata_long_format_row_count(tmp_path):
    # 3 checkpoints x 2 metrics -> 6 rows
    config = synthetic_config(epochs=3.0)
    csv_path = run_experiment(config, tmp_path)
    assert len(read_trace(csv_path)) == 3
    out = emit_plotdata([csv_path], tmp_path / "plot.csv",
                        metrics=["dist_sq", "f_gap"])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["metric"] for r in rows} == {"dist_sq", "f_gap"}
    assert all(r["run_id"] == "l-svrg_ridge_seed0" for r in rows)


def test_plotdata_merges_sweep(tmp_path):
    config = synthetic_config(epochs=2.0)
    paths = sweep_p(config, tmp_path, grid=[2, 5])
    out = emit_plotdata(paths, tmp_path / "plot.csv", metrics=["dist_sq"])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["run_id"] for r in rows} == {
        "l-svrg_ridge_seed0_loop2",
        "l-svrg_ridge_seed0_loop5",
        "svrg_ridge_seed0_loop2",
        "svrg_ridge_seed0_loop5",
    }
    assert {r["algorithm"] for r in rows} == {"l-svrg", "svrg"}


def test_plotdata_rejects_empty_selection_and_missing_inputs(tmp_path):
    config = synthetic_config(epochs=2.0)
    csv_path = run_experiment(config, tmp_path)
    with pytest.raises(ConfigError, match="empty metric"):
        emit_plotdata([csv_path], tmp_path / "plot.csv", metrics=[])
    with pytest.raises(ConfigError, match="at least one"):
        emit_plotdata([], tmp_path / "plot.csv")
    with pytest.raises(DataError, match="missing metric"):
        emit_plotdata([csv_path], tmp_path / "plot.csv", metrics=["psi"])


def test_plotdata_rejects_schema_mismatch(tmp_path):
    a = run_experiment(synthetic_config(epochs=2.0), tmp_path)
    b = run_experiment(
        synthetic_config(epochs=2.0, diagnostics="lyapunov", tag="lyap"), tmp_path
    )
    with pytest.raises(DataError, match="schema mismatch"):
        emit_plotdata([a, b], tmp_path / "plot.csv")


def test_plotdata_requires_sidecar(tmp_path):
    config = synthetic_config(epochs=2.0)
    csv_path = run_experiment(config, tmp_path)
    csv_path.with_suffix(".json").unlink()
    with pytest.raises(DataError, match="sidecar"):
        emit_plotdata([csv_path], tmp_path / "plot.csv")
