import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from loopless import diagnostics, harness
from loopless.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_REFERENCE,
    build_parser,
    main,
)
from loopless.harness import (
    RunConfig,
    build_problem,
    read_trace,
    resolve_params,
    trace_columns,
)
from loopless.optimizers import ALGORITHMS, LSVRG
from loopless.oracle import Oracle


def run_cli(*argv):
    return main(list(argv))


def read_lines(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read().splitlines()


def strip_wall(lines):
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_run_success(tmp_path, capsys):
    code = run_cli(
        "run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--alg", "l-svrg", "--preset", "theory", "--epochs", "3",
        "--seed", "7", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("l-svrg_ridge_seed7.csv")
    sidecar = json.loads((tmp_path / "l-svrg_ridge_seed7.json").read_text())
    assert sidecar["seed"] == 7
    assert sidecar["params"]["p"] == 0.1


def test_run_explicit_params_disable_preset(tmp_path):
    code = run_cli(
        "run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--alg", "l-svrg", "--eta", "0.01", "--p", "0.5",
        "--epochs", "2", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    sidecar = json.loads((tmp_path / "l-svrg_ridge_seed0.json").read_text())
    assert sidecar["params"] == {"eta": 0.01, "p": 0.5}


def test_run_twice_identical_modulo_wall(tmp_path):
    argv = (
        "run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--alg", "l-katyusha", "--preset", "theory", "--epochs", "4",
        "--seed", "3", "--diagnostics", "lyapunov",
    )
    assert run_cli(*argv, "--out", str(tmp_path / "a")) == EXIT_OK
    assert run_cli(*argv, "--out", str(tmp_path / "b")) == EXIT_OK
    a = read_lines(tmp_path / "a" / "l-katyusha_ridge_seed3.csv")
    b = read_lines(tmp_path / "b" / "l-katyusha_ridge_seed3.csv")
    assert strip_wall(a) == strip_wall(b)
    assert a[0].split(",")[-1] == "wall_ns"


def test_config_error_exit_code(tmp_path):
    code = run_cli(
        "run", "--synthetic", "10,4,25", "--mu", "-1",
        "--alg", "l-svrg", "--out", str(tmp_path),
    )
    assert code == EXIT_CONFIG


def test_missing_data_exit_code(tmp_path):
    code = run_cli(
        "run", "--data", str(tmp_path / "missing.svm"),
        "--alg", "gd", "--out", str(tmp_path),
    )
    assert code == EXIT_DATA


def test_malformed_data_exit_code(tmp_path):
    bad = tmp_path / "bad.svm"
    bad.write_text("+1 2:1 1:3\n", encoding="utf-8")
    code = run_cli("run", "--data", str(bad), "--alg", "gd", "--out", str(tmp_path))
    assert code == EXIT_DATA


@pytest.mark.parametrize("command", ["run", "solve-ref"])
@pytest.mark.parametrize("text, message", [
    ("1 1:1\nnan 1:2\n", "labels must be finite, got nan"),
    ("1 1:1\ninf 1:2\n", "labels must be finite, got inf"),
    ("1 1:nan 2:1\n-1 1:2\n", "values must be finite"),
    ("1 1:inf 2:1\n-1 1:2\n", "values must be finite"),
])
def test_non_finite_data_exits_with_data_code(tmp_path, capsys, command, text, message):
    data = tmp_path / "bad.svm"
    data.write_text(text, encoding="utf-8")
    code = run_cli(command, "--data", str(data), "--loss", "logistic",
                   "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"data error: cannot parse {data}: ") and message in err
    assert "\n" not in err and "Traceback" not in err


@pytest.mark.parametrize("command", [("run", "--alg", "l-svrg"), ("run", "--alg", "l-katyusha"),
                                     ("run", "--alg", "gd"), ("solve-ref",)],
                         ids=["run-l-svrg", "run-l-katyusha", "run-gd", "solve-ref"])
def test_an_overflowing_row_norm_exits_with_data_code(tmp_path, capsys, command):
    # 1e200 squared overflows, so L is not finite: no run and no reference
    data = tmp_path / "big.svm"
    data.write_text("1 1:1e200 2:1\n-1 1:2 2:3\n", encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*command, "--data", str(data), "--loss", "ridge", "--mu", "1",
                       "--out", str(out))
    assert code == EXIT_DATA and not caught
    err = capsys.readouterr().err.strip()
    assert err == (f"data error: cannot use {data}: smoothness bound L = inf is not "
                   "finite: a squared row norm overflows float64")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--synthetic", "2,2,1e308", "--mu", "1"), "the Hessian A^T A / n + mu I overflows"),
    (("--synthetic", "50,5,10", "--mu", "1e308"), "(condition_number - 1) * mu"),
])
@pytest.mark.parametrize("command", ["run", "solve-ref"])
def test_an_overflowing_synthetic_instance_exits_with_config_code(tmp_path, capsys, command,
                                                                  flags, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(command, *flags, "--loss", "ridge", "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG and not caught
    err = capsys.readouterr().err
    assert err.startswith("config error: synthetic=") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep-p", "compare-all"])
def test_a_theory_preset_that_underflows_names_the_instance(tmp_path, capsys, command):
    # L = mu = 1e308 (condition number 1: empty rows), so 6 L overflows and
    # the preset's eta = 1 / (6 L) is 0
    argv = [command, "--synthetic", "3,1,1", "--loss", "ridge", "--mu", "1e308",
            "--out", str(tmp_path / "out")]
    code = run_cli(*argv, *(["--alg", "l-svrg"] if command == "run" else []))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: synthetic=(3, 1, 1.0): theory preset gives eta = 0.0 at L = 1e+308\n")
    assert not (tmp_path / "out").exists()


def run_quietly(*argv):
    """run_cli, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*argv)
    return code, caught


def test_a_potential_that_overflows_is_divergence(tmp_path, capsys):
    # dk's coefficient 4 eta^2 / (p n) overflows at p = 5e-324: phi and dk
    # are inf at every checkpoint, so the run stops at k = 0
    code, caught = run_quietly(
        "run", "--synthetic", "12,4,25", "--loss", "ridge", "--mu", "0.5",
        "--alg", "l-svrg", "--eta", "0.01", "--p", "5e-324", "--epochs", "2",
        "--diagnostics", "lyapunov", "--out", str(tmp_path))
    assert code == EXIT_DIVERGED and not caught
    err = capsys.readouterr().err
    assert err.startswith("divergence: ") and err.count("\n") == 1
    sidecar = json.loads((tmp_path / "l-svrg_ridge_seed0.json").read_text())
    assert sidecar["diverged_at_k"] == 0
    assert read_trace(tmp_path / "l-svrg_ridge_seed0.csv") == []


def test_a_step_size_whose_square_overflows_is_divergence(tmp_path, capsys):
    # the theory preset's eta = 1/(6L) is about 1.7e304 at mu = 1e-308, and
    # eta^2 in dk and the lemma bounds is inf, not an OverflowError: the run
    # stops at k = 0 and writes its trace and sidecar
    code, caught = run_quietly(
        "run", "--synthetic", "10,4,1e3", "--loss", "ridge", "--mu", "1e-308",
        "--alg", "l-svrg", "--epochs", "0.5", "--diagnostics", "lemmas",
        "--out", str(tmp_path))
    assert code == EXIT_DIVERGED and not caught
    err = capsys.readouterr().err
    assert err.startswith("divergence: ") and err.count("\n") == 1
    sidecar = json.loads((tmp_path / "l-svrg_ridge_seed0.json").read_text())
    assert sidecar["diverged_at_k"] == 0
    assert read_trace(tmp_path / "l-svrg_ridge_seed0.csv") == []


@pytest.mark.parametrize("diagnostics", ["lyapunov", "lemmas"])
def test_a_psi_coefficient_that_underflows_exits_with_config_code(tmp_path, capsys,
                                                                  diagnostics):
    argv = ["run", "--synthetic", "12,4,25", "--loss", "ridge", "--mu", "0.5",
            "--alg", "l-katyusha", "--theta1", "0.01", "--theta2", "0.5", "--p", "5e-324",
            "--epochs", "2"]
    code, caught = run_quietly(*argv, "--diagnostics", diagnostics,
                               "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG and not caught
    assert capsys.readouterr().err == (
        "config error: p * theta1 underflows to 0 at p = 5e-324, theta1 = 0.01: "
        "the psi potential divides by it\n")
    assert not (tmp_path / "out").exists()
    # without the potential the run needs no p * theta1
    assert run_cli(*argv, "--diagnostics", "distance", "--out", str(tmp_path / "d")) == EXIT_OK


@pytest.mark.parametrize("eta", ["1e-320", "1e-200"])
def test_a_step_size_whose_square_underflows_exits_with_config_code_at_lemmas(
        tmp_path, capsys, eta):
    # estimator_second_moment's bound divides by 2 eta^2, which is 0 here
    argv = ["run", "--synthetic", "20,4,10", "--loss", "ridge", "--mu", "1",
            "--alg", "l-svrg", "--eta", eta, "--p", "0.5", "--epochs", "1"]
    code, caught = run_quietly(*argv, "--diagnostics", "lemmas",
                               "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG and not caught
    assert capsys.readouterr().err == (
        f"config error: eta^2 underflows to 0 at eta = {eta}: "
        "the estimator_second_moment bound divides by it\n")
    assert not (tmp_path / "out").exists()
    # at lyapunov the same eta runs: dk's coefficient 4 eta^2 / (p n) is 0
    code, caught = run_quietly(*argv, "--diagnostics", "lyapunov",
                               "--out", str(tmp_path / "lyapunov"))
    assert code == EXIT_OK and not caught
    trace = read_trace(tmp_path / "lyapunov" / "l-svrg_ridge_seed0.csv")
    assert trace and all(row["dk"] == 0.0 for row in trace)


def test_a_kappa_past_the_default_grid_exits_with_config_code(tmp_path, capsys):
    # kappa = 0.25 / 1e-308 on unit rows: kappa^3 overflows float64
    code, caught = run_quietly(
        "sweep-p", "--synthetic", "12,4,25", "--loss", "logistic", "--mu", "1e-308",
        "--normalize", "--epochs", "2", "--diagnostics", "lemmas",
        "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG and not caught
    assert capsys.readouterr().err == (
        "config error: kappa = 2.500000000000001e+307 is too large for the default "
        "loop-length grid (a length overflows float64); pass --grid\n")
    assert not (tmp_path / "out").exists()


# the one report that still enumerates: the Katyusha family's on logistic
# data, loopy Katyusha included
@pytest.mark.parametrize("command, flags", [("run", ["--alg", "l-katyusha"]),
                                           ("run", ["--alg", "katyusha"]),
                                           ("compare-all", ["--algs", "l-svrg,l-katyusha"])])
def test_lemma_diagnostics_past_the_enumeration_guard_exit_with_config_code(
        tmp_path, capsys, monkeypatch, command, flags):
    def no_solve(*args, **kwargs):
        raise AssertionError("the guard is checked before the reference solve")

    monkeypatch.setattr(diagnostics, "solve_reference", no_solve)
    code, caught = run_quietly(
        command, "--synthetic", "1001,3,10", "--loss", "logistic", "--mu", "1", *flags,
        "--epochs", "1", "--diagnostics", "lemmas", "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG and not caught
    assert capsys.readouterr().err == (
        "config error: lemma diagnostics enumerate all n samples: n = 1001 is past "
        "the limit n <= 1000\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("loss, alg", [("ridge", "l-svrg"), ("logistic", "l-svrg"),
                                       ("ridge", "l-katyusha")])
def test_lemma_reports_that_enumerate_nothing_run_past_the_guard(tmp_path, loss, alg):
    # sums of per-sample scalars (and, for ridge Katyusha, a d x d Gram
    # matrix) cost O(nnz) per report at any n
    code, caught = run_quietly(
        "run", "--synthetic", "1001,3,10", "--loss", loss, "--mu", "1", "--alg", alg,
        "--epochs", "2.5", "--diagnostics", "lemmas", "--out", str(tmp_path))
    assert code == EXIT_OK and not caught
    with open(tmp_path / f"{alg}_{loss}_seed0.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    slacks = [float(v) for row in rows for k, v in row.items() if k.startswith("slack_")]
    assert rows and len(slacks) == len(rows) * len(ALGORITHMS[alg].lemmas)
    assert all(np.isfinite(slacks)) and min(slacks) >= -1e-10, slacks


@pytest.mark.parametrize("grid", ["0", "3,0"])
def test_a_grid_length_below_one_exits_with_config_code(tmp_path, capsys, grid):
    code, caught = run_quietly(
        "sweep-p", "--synthetic", "12,4,25", "--loss", "ridge", "--mu", "0.5",
        "--epochs", "1", "--grid", grid, "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG and not caught
    assert capsys.readouterr().err == "config error: grid loop length 0 rounds below 1\n"
    assert not (tmp_path / "out").exists()


def test_a_row_that_normalizes_to_zero_exits_with_data_code(tmp_path, capsys):
    # the row norm 1e200 scales 1e-200 to 0, which a dataset cannot store
    data = tmp_path / "wide.svm"
    data.write_text("+1 1:1e-200 2:1e200\n-1 1:1\n", encoding="utf-8")
    code, caught = run_quietly("run", "--data", str(data), "--loss", "ridge", "--mu", "0.5",
                               "--normalize", "--alg", "gd", "--out", str(tmp_path / "out"))
    assert code == EXIT_DATA and not caught
    assert capsys.readouterr().err == (
        f"data error: cannot use {data}: a row cannot be scaled to unit norm: its "
        "squared norm or a scaled entry leaves the float64 range\n")
    assert not (tmp_path / "out").exists()


def test_a_subnormal_mu_exits_with_config_code_and_no_numpy_warning(tmp_path, capsys):
    # the synthetic row weights underflow to 0 at mu = 5e-324
    code, caught = run_quietly("run", "--synthetic", "12,4,25", "--loss", "logistic",
                               "--mu", "5e-324", "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG and not caught
    assert capsys.readouterr().err == (
        "config error: synthetic=(12, 4, 25.0): the Hessian A^T A / n + mu I "
        "overflows float64\n")
    assert not (tmp_path / "out").exists()


def test_a_reference_solve_with_nan_margins_fails_without_a_numpy_warning(tmp_path,
                                                                          capsys):
    # at mu = 5e-324 the reference solve's full-data products meet invalid
    # values; the solve fails with exit 4 and no RuntimeWarning from numpy
    out = tmp_path / "out"
    code, caught = run_quietly(
        "run", "--synthetic", "10,4,1e3", "--loss", "logistic", "--mu", "5e-324",
        "--ref-max-epochs", "1", "--alg", "l-katyusha", "--epochs", "0.5",
        "--diagnostics", "distance", "--out", str(out))
    assert code == EXIT_REFERENCE and not caught
    assert capsys.readouterr().err.startswith("reference solve failed: ")
    assert [p.name for p in out.iterdir()] == [
        "synthetic10x4k1000_data0_logistic_mu5e-324_ref.json"]
    # a subnormal L makes the step 1/L overflow the iterate: the solve stops
    # at the first gradient norm that is not finite, long before the default
    # 100,000 passes of --ref-max-epochs, and still without a warning
    for argv in (["solve-ref", "--synthetic", "5,2,1e3", "--loss", "logistic"],
                 ["solve-ref", "--synthetic", "6,3,10", "--loss", "ridge"],
                 ["run", "--synthetic", "5,2,1e3", "--loss", "logistic", "--alg", "l-svrg",
                  "--eta", "0.1", "--p", "0.5"]):
        code, caught = run_quietly(*argv, "--mu", "1e-320", "--out", str(tmp_path / argv[0]))
        err = capsys.readouterr().err
        assert code == EXIT_REFERENCE and not caught, argv
        passes = re.fullmatch(r"reference solve failed: made (\d+) full-gradient passes "
                              r"with \|\|grad\|\| = \S+ still above tolerance\n", err)
        assert passes and int(passes.group(1)) < 100_000, err


def test_reference_failure_exit_code(tmp_path, capsys):
    for command in ("run", "solve-ref"):
        run_args = ["--alg", "l-svrg", "--epochs", "2"] if command == "run" else []
        out = tmp_path / command
        # logistic has no closed form; one epoch of GD cannot hit the tolerance
        code = run_cli(
            command, "--synthetic", "10,4,25", "--loss", "logistic", "--mu", "0.1",
            *run_args, "--ref-max-epochs", "1",
            "--ref-tolerance", "1e-14", "--out", str(out / "logistic"),
        )
        assert code == EXIT_REFERENCE
        # a synthetic ridge instance's closed form is held to the tolerance too
        code = run_cli(
            command, "--synthetic", "50,5,100", "--loss", "ridge", "--mu", "1",
            *run_args, "--ref-max-epochs", "1",
            "--ref-tolerance", "1e-30", "--out", str(out / "ridge" / "nested"),
        )
        assert code == EXIT_REFERENCE
        # a failed solve leaves its record, in the output directory it made
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == [
            "logistic/synthetic10x4k25_data0_logistic_mu0.1_ref.json",
            "ridge/nested/synthetic50x5k100_data0_ridge_mu1.0_ref.json",
        ], command
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("reference solve failed: made 2 "
                                                     "full-gradient passes")
                                     for line in err)


@pytest.mark.parametrize("command", ["run", "solve-ref"])
def test_a_failed_reference_leaves_its_record(tmp_path, capsys, monkeypatch, command):
    data = tmp_path / "small.svm"
    data.write_text("+1 1:0.5 3:-1.25\n-1 2:2 4:0.75\n+1 1:-1 4:1.5\n-1 3:0.25\n",
                    encoding="utf-8")
    full_grads = []
    full_grad = Oracle.full_grad
    monkeypatch.setattr(Oracle, "full_grad",
                        lambda self, x: full_grads.append(1) or full_grad(self, x))
    solve = diagnostics.solve_reference
    passes = []

    def counted(*args, **kwargs):
        before = len(full_grads)
        try:
            return solve(*args, **kwargs)
        finally:
            passes.append(len(full_grads) - before)

    monkeypatch.setattr(diagnostics, "solve_reference", counted)
    out = tmp_path / "out"
    code = run_cli(command, "--data", str(data), "--loss", "logistic", "--mu", "0.1",
                   *(["--alg", "l-svrg"] if command == "run" else []),
                   "--ref-max-epochs", "1", "--ref-tolerance", "1e-14", "--out", str(out))
    assert code == EXIT_REFERENCE
    err = capsys.readouterr().err
    assert err.startswith("reference solve failed: ") and err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == ["small_logistic_mu0.1_ref.json"]
    record = json.loads((out / "small_logistic_mu0.1_ref.json").read_text())
    oracle, _ = build_problem(RunConfig("gd", dataset_path=str(data), mu=0.1))
    assert record.keys() == {"grad_norm", "f_star", "tolerance", "epochs", "n", "d", "L", "mu"}
    assert record["grad_norm"] > record["tolerance"] == 1e-14
    assert record["epochs"] == passes[0] == 2
    assert (record["n"], record["d"], record["L"], record["mu"]) == (
        oracle.n, oracle.d, oracle.L, oracle.mu)


@pytest.mark.parametrize("command", ["run", "solve-ref"])
def test_a_closed_form_reference_records_the_tolerance_asked_for(tmp_path, command):
    problem = ["--synthetic", "50,5,100", "--loss", "ridge", "--mu", "1"]
    argv = [command, *problem, *(["--alg", "l-svrg"] if command == "run" else [])]
    assert run_cli(*argv, "--out", str(tmp_path / "default")) == EXIT_OK
    assert run_cli(*argv, "--ref-tolerance", "0.001",
                   "--out", str(tmp_path / "loose")) == EXIT_OK
    references = []
    for out in ("default", "loose"):
        sidecar = json.loads(next((tmp_path / out).glob("*.json")).read_text())
        references.append(sidecar.get("reference", sidecar))
    default, loose = references
    assert default["tolerance"] < 1e-7 and default["grad_norm"] <= default["tolerance"]
    assert loose["tolerance"] == 0.001
    assert loose["grad_norm"] == default["grad_norm"]  # the closed form, as before
    # the closed form is certified by the solve's first full-gradient pass
    assert default["epochs"] == loose["epochs"] == 1


def test_config_file_with_flag_override(tmp_path):
    config = {
        "algorithm": "l-svrg",
        "synthetic": [10, 4, 25.0],
        "loss": "ridge",
        "mu": 1.0,
        "epochs": 2.0,
        "seed": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli("run", "--config", str(path), "--seed", "9",
                   "--out", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "l-svrg_ridge_seed9.csv").exists()


def test_invalid_config_file(tmp_path, capsys):
    path, out = tmp_path / "config.json", tmp_path / "out"
    # the second file is UTF-16 with its byte-order mark, not UTF-8
    for content, message in ((b"not json", "Expecting value"),
                             (b"\xff\xfe" + '{"mu": 1.0}'.encode("utf-16-le"),
                              "can't decode byte 0xff"),
                             (b'{"mu": 1' + b"0" * 5000 + b"}", "(4300 digits)")):
        path.write_bytes(content)
        assert run_cli("run", "--config", str(path), "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {path} is not valid JSON: ")
        assert message in err and "Traceback" not in err and not out.exists()


def test_a_loop_length_past_int64_runs(tmp_path):
    huge = str(10**20)
    problem = ["--synthetic", "20,4,100", "--loss", "ridge", "--mu", "1", "--epochs", "2"]
    assert run_cli("sweep-p", *problem, "--grid", f"5,{huge}",
                   "--out", str(tmp_path / "sweep")) == EXIT_OK
    assert (tmp_path / "sweep" / f"svrg_ridge_seed0_loop{huge}.csv").exists()
    assert run_cli("run", *problem, "--alg", "svrg", "--preset", "theory", "--m", huge,
                   "--out", str(tmp_path / "run")) == EXIT_OK


@pytest.mark.parametrize("alg", ["svrg", "l-svrg", "katyusha", "l-katyusha"])
def test_a_file_with_no_features_runs_as_its_lanes_do(tmp_path, capsys, alg):
    """A LIBSVM file of bare labels has d = 0.  A lone run sizes its tables
    of corrections by d, and still exits 0 with the trace that the same run
    gives as a lane of a three-run batch."""
    data = tmp_path / "bare.txt"
    data.write_text("1\n-1\n")
    problem = ["--data", str(data), "--loss", "logistic", "--mu", "1", "--epochs", "2"]
    assert run_cli("run", *problem, "--alg", alg, "--out", str(tmp_path / "run")) == EXIT_OK
    assert run_cli("compare-all", *problem, "--algs", alg, "--seeds", "0,1,2",
                   "--out", str(tmp_path / "lanes")) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    name = f"{alg}_logistic_seed0.csv"
    lone = read_lines(tmp_path / "run" / name)
    assert len(lone) > 2
    assert strip_wall(lone) == strip_wall(read_lines(tmp_path / "lanes" / name))


def test_sweep_p_subcommand(tmp_path):
    code = run_cli(
        "sweep-p", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--epochs", "2", "--grid", "2,5", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == [
        "l-svrg_ridge_seed0_loop2.csv",
        "l-svrg_ridge_seed0_loop5.csv",
        "svrg_ridge_seed0_loop2.csv",
        "svrg_ridge_seed0_loop5.csv",
    ]


def test_compare_all_subcommand(tmp_path):
    code = run_cli(
        "compare-all", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--epochs", "3", "--seeds", "0,1", "--algs", "gd,l-svrg",
        "--thresholds", "1e-2,1e-30", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8


def test_plotdata_subcommand(tmp_path):
    assert run_cli(
        "run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--alg", "l-svrg", "--epochs", "3", "--out", str(tmp_path),
    ) == EXIT_OK
    trace = tmp_path / "l-svrg_ridge_seed0.csv"
    out = tmp_path / "plot.csv"
    assert run_cli(
        "plotdata", str(trace), "--metrics", "dist_sq", "--out", str(out)
    ) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert run_cli("plotdata", str(trace), "--metrics", "", "--out", str(out)) == EXIT_CONFIG


def test_solve_ref_subcommand(tmp_path):
    code = run_cli(
        "solve-ref", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    npz = list(tmp_path.glob("*_ref.npz"))
    assert len(npz) == 1
    summary = json.loads(npz[0].with_suffix(".json").read_text())
    assert summary["grad_norm"] <= summary["tolerance"]


def test_solve_ref_names_the_data_seed(tmp_path, capsys):
    f_stars = []
    for data_seed in ("1", "2"):
        code = run_cli(
            "solve-ref", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
            "--data-seed", data_seed, "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        npz = capsys.readouterr().out.strip()
        assert f"_data{data_seed}_" in npz
        summary = json.loads((tmp_path / npz).with_suffix(".json").read_text())
        f_stars.append(summary["f_star"])
    assert len(list(tmp_path.glob("*_ref.npz"))) == 2
    assert f_stars[0] != f_stars[1]


def test_normalize_flag(tmp_path):
    data = tmp_path / "tiny.svm"
    data.write_text("+1 1:3 2:4\n-1 1:1\n", encoding="utf-8")
    code = run_cli(
        "run", "--data", str(data), "--loss", "logistic", "--mu", "0.5",
        "--alg", "gd", "--epochs", "2", "--normalize", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    sidecar = json.loads((tmp_path / "gd_logistic_seed0.json").read_text())
    assert sidecar["normalize"] is True
    # unit rows + mu=0.5 -> L = 0.25 + 0.5
    assert sidecar["L"] == pytest.approx(0.75, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [("sweep-p", "--grid", "1,abc"), ("compare-all", "--thresholds", "1e-4,x")],
)
def test_malformed_list_flags_exit_with_config_code(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--synthetic", "10,4,25", "--out", str(tmp_path))
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "expected comma-separated" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "params, message",
    [({"eta": "abc", "p": 0.5}, "param eta='abc' is not a valid float"),
     ({"eta": 0.1, "p": [0.5]}, "param p=[0.5] is not a valid float"),
     ({"eta": -1.0, "p": 0.5}, "eta must be positive")],
)
def test_bad_param_values_exit_with_config_code(tmp_path, capsys, params, message):
    config = {"algorithm": "l-svrg", "synthetic": [10, 4, 25.0], "loss": "ridge",
              "mu": 1.0, "params": params, "preset": None}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path)) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: ") and message in err
    assert "\n" not in err and "Traceback" not in err


@pytest.mark.parametrize("algorithm, params, message", [
    ("svrg", {"eta": 0.01, "m": 2.7}, "param m=2.7 is not a valid int"),
    ("svrg", {"eta": 0.01, "m": True}, "param m=True is not a valid int"),
    ("svrg", {"eta": "0.01", "m": 3}, "param eta='0.01' is not a valid float"),
    ("l-katyusha", {"theta1": 0.1, "theta2": 0.5, "p": True},
     "param p=True is not a valid float"),
])
def test_config_params_get_the_type_check_of_every_field(tmp_path, capsys, monkeypatch,
                                                         algorithm, params, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("params are checked before the reference solve")

    monkeypatch.setattr(diagnostics, "solve_reference", no_solve)
    config = {"algorithm": algorithm, "synthetic": [10, 4, 25.0], "loss": "ridge",
              "mu": 1.0, "params": params, "preset": None}
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("run", "--config", str(path), "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, config, flags", [
    pytest.param("run", {"seed": 10**300}, [], id="run-seed-past-a-file-name"),
    pytest.param("run", {}, ["--tag", "a/b"], id="run-tag-with-slash"),
    pytest.param("run", {"tag": "a\0b"}, [], id="run-tag-with-nul"),
    pytest.param("sweep-p", {"seed": 10**300}, [], id="sweep-p-seed-past-a-file-name"),
    pytest.param("compare-all", {}, ["--tag", "a/b", "--seeds", "1,2"],
                 id="compare-all-tag-with-slash"),
])
def test_a_run_id_that_is_not_a_file_name_exits_with_config_code(
        tmp_path, capsys, monkeypatch, command, config, flags):
    def no_solve(*args, **kwargs):
        raise AssertionError("the run id is checked before the reference solve")

    monkeypatch.setattr(diagnostics, "solve_reference", no_solve)
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli(command, "--config", str(path), "--synthetic", "20,4,10", "--loss",
                   "ridge", "--mu", "1", "--epochs", "1", *flags,
                   "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: run id ") and err.count("\n") == 1
    assert not out.exists()


BIG = 2**1024  # the first int past float64's range


@pytest.mark.parametrize(
    "field, message",
    [({"synthetic": [10, 4]}, "synthetic=[10, 4] is not [n, d, kappa]"),
     ({"mu": "abc"}, "mu must be float, got 'abc'"),
     ({"epochs": "5"}, "epochs must be float, got '5'"),
     ({"synthetic": [30.9, 5, 10]}, "synthetic=[30.9, 5, 10] is not [n, d, kappa]"),
     ({"synthetic": [30, "5", 10]}, "synthetic=[30, '5', 10] is not [n, d, kappa]"),
     ({"synthetic": [30, 5, True]}, "synthetic=[30, 5, True] is not [n, d, kappa]"),
     # an int float() cannot convert, named by its field
     pytest.param({"mu": BIG}, f"mu must be float, got {BIG}", id="mu-past-float64"),
     pytest.param({"x0": [BIG, 0, 0, 0]},
                  f"x0=[{BIG}, 0, 0, 0] is not a list of finite numbers", id="x0-past-float64"),
     pytest.param({"synthetic": [10, 4, BIG]}, f"synthetic=[10, 4, {BIG}] is not [n, d, kappa]",
                  id="kappa-past-float64"),
     pytest.param({"params": {"eta": BIG}}, f"param eta={BIG} is not a valid float",
                  id="eta-past-float64")],
)
def test_config_fields_of_the_wrong_type_exit_with_config_code(tmp_path, capsys,
                                                               field, message):
    config = {"algorithm": "l-svrg", "synthetic": [10, 4, 25.0], "loss": "ridge",
              "mu": 1.0, **field}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path)) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err == f"config error: {message}"


def test_config_synthetic_is_converted_after_its_type_check(tmp_path):
    config = {"algorithm": "l-svrg", "synthetic": [30, 5, 10], "loss": "ridge",
              "mu": 1.0, "epochs": 1.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path)) == EXIT_OK
    sidecar = json.loads((tmp_path / "l-svrg_ridge_seed0.json").read_text())
    assert sidecar["dataset"] == "synthetic(30, 5, 10.0)"


@pytest.mark.parametrize(
    "flags, message",
    [(("--seeds", "0,0"), "runs ['l-svrg_ridge_seed0'] would share one trace file"),
     (("--algs", "l-svrg,l-svrg"), "runs ['l-svrg_ridge_seed0'] would share one trace file"),
     (("--algs", ""), "unknown algorithm ''"),
     # 1e-4 and 0.0001 are one threshold, whose summary rows would be written twice
     (("--thresholds", "1e-4,1e-2,0.0001"), "thresholds [0.0001] would write the same "
      "summary rows twice; list each threshold once")],
    ids=["repeated-seed", "repeated-algorithm", "empty-algs", "repeated-threshold"],
)
def test_compare_all_rejects_runs_that_share_files(tmp_path, capsys, flags, message):
    argv = ["compare-all", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
            "--epochs", "1", "--algs", "l-svrg", *flags, "--out", str(tmp_path)]
    assert run_cli(*argv) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"config error: {message}") and "\n" not in err
    assert not list(tmp_path.iterdir())  # rejected before any run


@pytest.mark.parametrize(
    "breaks, message",
    [(lambda csv, sidecar: sidecar.write_text("{not json"), "as a run sidecar"),
     (lambda csv, sidecar: sidecar.write_text("[1, 2]"), "as a run sidecar"),
     (lambda csv, sidecar: csv.write_text(csv.read_text().replace("\n0,", "\nzero,", 1)),
      "is not a number"),
     (lambda csv, sidecar: csv.unlink(), "cannot read")],
    ids=["sidecar-not-json", "sidecar-a-list", "cell-not-a-number", "trace-missing"],
)
def test_plotdata_bad_input_exits_with_data_code(tmp_path, capsys, breaks, message):
    assert run_cli("run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
                   "--epochs", "2", "--out", str(tmp_path)) == EXIT_OK
    trace = tmp_path / "l-svrg_ridge_seed0.csv"
    breaks(trace, trace.with_suffix(".json"))
    capsys.readouterr()
    assert run_cli("plotdata", str(trace), "--out", str(tmp_path / "plot.csv")) == EXIT_DATA
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: ") and message in err and "\n" not in err
    assert "l-svrg_ridge_seed0." in err  # names the file


@pytest.mark.parametrize(
    "flags, message",
    [(("--synthetic", "0,5,10"), "need n >= 1 and d >= 1"),
     (("--synthetic", "10,0,10"), "need n >= 1 and d >= 1"),
     (("--synthetic", "10,5,0.5"), "condition_number must be finite and >= 1"),
     (("--synthetic", "10,5,nan"), "condition_number must be finite and >= 1"),
     (("--synthetic", "10,5,inf"), "condition_number must be finite and >= 1"),
     (("--checkpoint-every", "nan"), "checkpoint_every must be positive and finite"),
     (("--epochs", "inf"), "epochs must be positive and finite"),
     (("--epochs", "nan"), "epochs must be positive and finite"),
     (("--mu", "nan"), "mu must be positive and finite"),
     (("--eta", "nan", "--p", "0.1"), "eta must be positive and finite"),
     (("--eta", "inf", "--p", "0.1"), "eta must be positive and finite"),
     (("--ref-tolerance", "nan"), "ref_tolerance must be positive and finite"),
     (("--ref-tolerance", "-1"), "ref_tolerance must be positive and finite"),
     (("--ref-max-epochs", "-1"), "ref_max_epochs must be >= 0"),
     ({"x0": [0.0, float("nan"), 0.0, 0.0]}, "is not a list of finite numbers"),
     (("--checkpoint-every", "1e-17"), "gives more than 1e7 checkpoints in 5.0 epochs"),
     (("--checkpoint-every", "1e-300"), "gives more than 1e7 checkpoints in 5.0 epochs"),
     (("--eta", "-1", "--p", "0.5"), "eta must be positive and finite, got -1.0")],
)
def test_bad_numbers_exit_with_config_code(tmp_path, capsys, flags, message):
    if isinstance(flags, dict):  # a field without a flag, from a config file
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(flags), encoding="utf-8")
        flags = ("--config", str(path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1",
                       "--epochs", "5", *flags, "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG and not caught
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: ") and message in err
    assert "\n" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # the optimizers' own checks included


@pytest.mark.parametrize("command", ["run", "sweep-p", "compare-all", "solve-ref", "plotdata"])
def test_an_output_that_cannot_be_written_exits_with_data_code(tmp_path, capsys, monkeypatch,
                                                                command):
    problem = ["--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0"]
    trace = tmp_path / "traces" / "l-svrg_ridge_seed0.csv"
    assert run_cli("run", *problem, "--epochs", "1", "--out", str(trace.parent)) == EXIT_OK
    (tmp_path / "afile").write_text("", encoding="utf-8")

    def not_before_the_output(*args, **kwargs):
        raise AssertionError("ran before the output directory was made")

    for name in ("run", "run_lanes", "_reference"):
        monkeypatch.setattr(harness, name, not_before_the_output)
    out = str(tmp_path / "afile" / "x")
    argv = {"solve-ref": ["solve-ref", *problem, "--out", out],
            "plotdata": ["plotdata", str(trace), "--out", out]}.get(
        command, [command, *problem, "--epochs", "1", "--out", out])
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_DATA
    err = capsys.readouterr().err.strip()
    assert err.startswith("data error: cannot write to ") and "afile" in err
    assert "\n" not in err and "Traceback" not in err


@pytest.mark.parametrize("thresholds", ["nan,-1", "0", "inf", "1e-4,-1e-8"])
def test_compare_all_rejects_thresholds_that_are_not_positive_and_finite(
        tmp_path, capsys, thresholds):
    argv = ["compare-all", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
            "--epochs", "1", "--thresholds", thresholds, "--out", str(tmp_path)]
    assert run_cli(*argv) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error: need thresholds, each positive and finite")
    assert "\n" not in err
    assert not list(tmp_path.iterdir())  # rejected before any run


def test_plotdata_rejects_a_repeated_metric(tmp_path, capsys):
    assert run_cli("run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
                   "--epochs", "2", "--out", str(tmp_path / "run")) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "plot" / "plot.csv"
    assert run_cli("plotdata", str(tmp_path / "run" / "l-svrg_ridge_seed0.csv"),
                   "--metrics", "dist_sq,f_gap,dist_sq", "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: metrics ['dist_sq'] would write every row twice; "
        "list each metric once\n")
    assert not out.parent.exists()


def test_diverging_run_exits_with_divergence_code(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(
            "run", "--synthetic", "100,20,1e4", "--loss", "ridge", "--mu", "1.0",
            "--alg", "l-svrg", "--eta", "10", "--p", "0.02", "--epochs", "5",
            "--out", str(tmp_path),
        )
    assert code == EXIT_DIVERGED
    out, err = capsys.readouterr()
    assert out.strip().endswith("l-svrg_ridge_seed0.csv")
    assert err.startswith("divergence: ") and "Traceback" not in err
    sidecar = json.loads((tmp_path / "l-svrg_ridge_seed0.json").read_text())
    trace = read_trace(tmp_path / "l-svrg_ridge_seed0.csv")
    # the rows before the first non-finite checkpoint are kept
    assert trace and trace[-1]["k"] < sidecar["diverged_at_k"]
    assert all(row["epoch"] < 5.0 for row in trace)
    # the overflowing metrics stop the run without an inf row or a numpy warning
    assert sidecar["diverged_at_k"] == 50 and [row["k"] for row in trace] == [0]
    assert err.count("\n") == 1 and not caught


def test_diverging_sweep_writes_every_run_then_exits_with_divergence_code(
        tmp_path, capsys):
    # an iterate next to the largest double overflows on the first step
    config = {"synthetic": [10, 4, 25.0], "loss": "ridge", "mu": 1.0,
              "epochs": 4.0, "x0": [1e308] * 4}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("sweep-p", "--config", str(path), "--grid", "2,5",
                       "--out", str(tmp_path / "out"))
    assert code == EXIT_DIVERGED and not caught
    out, err = capsys.readouterr()
    assert err.startswith("divergence: ") and err.count("\n") == 1
    printed = out.split()
    assert len(printed) == 4
    for csv_path in printed:
        sidecar = json.loads(Path(csv_path).with_suffix(".json").read_text())
        # the initial distance already overflows: no row is finite
        assert sidecar["diverged_at_k"] == 0
        assert read_trace(csv_path) == []


def test_diverging_compare_all_writes_every_run_then_exits_without_a_summary(
        tmp_path, capsys):
    config = {"synthetic": [10, 4, 25.0], "loss": "ridge", "mu": 1.0,
              "epochs": 4.0, "x0": [1e308] * 4}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("compare-all", "--config", str(path), "--seeds", "0,1",
                       "--out", str(tmp_path / "out"))
    assert code == EXIT_DIVERGED and not caught
    out, err = capsys.readouterr()
    assert err.startswith("divergence: ") and err.count("\n") == 1
    printed = out.split()
    assert sorted(Path(p).name for p in printed) == sorted(
        f"{alg}_ridge_seed{seed}.csv" for alg in ALGORITHMS for seed in (0, 1))
    for csv_path in printed:
        sidecar = json.loads(Path(csv_path).with_suffix(".json").read_text())
        assert sidecar["diverged_at_k"] == 0
    assert not (tmp_path / "out" / "summary.csv").exists()


# flags each batch command would otherwise accept and ignore: it chooses every
# run's algorithm and params, sweep-p names its runs by loop length, and
# compare-all takes its seeds from --seeds
_PARAM_FLAGS = [("--alg", "katyusha"), ("--preset", "theory"), ("--eta", "10"),
                ("--p", "0.5"), ("--m", "3"), ("--theta1", "0.1"), ("--theta2", "0.5"),
                ("--step-size", "0.1")]
_IGNORED = {"sweep-p": [*_PARAM_FLAGS, ("--tag", "mine")],
            "compare-all": [*_PARAM_FLAGS, ("--seed", "7")]}


@pytest.mark.parametrize(
    "command, flag",
    [pytest.param(command, flag, id=f"{command}:{flag[0] if flag else 'params'}")
     for command, flags in _IGNORED.items() for flag in [*flags, None]],
)
def test_batch_commands_reject_flags_and_params_they_would_ignore(
        tmp_path, capsys, command, flag):
    config = {"synthetic": [10, 4, 25.0], "loss": "ridge", "mu": 1.0, "epochs": 1.0}
    if flag is None:  # params from a config file
        config["params"] = {"eta": 10.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = (command, "--config", str(path), "--out", str(tmp_path / "out"))
    if flag is None:
        assert run_cli(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert err.startswith("config error: ") and "['eta']" in err
        assert "\n" not in err
    else:
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, *flag)
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _run_batch_with_config(tmp_path, capsys, command, fields):
    config = {"synthetic": [10, 4, 25.0], "loss": "ridge", "mu": 1.0, "epochs": 1.0,
              **fields}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))
    return code, capsys.readouterr().err.strip()


def test_sweep_p_rejects_a_config_algorithm_or_tag(tmp_path, capsys):
    code, err = _run_batch_with_config(tmp_path, capsys, "sweep-p",
                                       {"algorithm": "katyusha", "tag": "mine"})
    assert code == EXIT_CONFIG
    assert err == ("config error: sweep-p sets every run's algorithm and tag "
                   "itself; remove ['algorithm', 'tag'] from the config")
    assert not (tmp_path / "out").exists()


def test_compare_all_rejects_a_config_algorithm_or_seed(tmp_path, capsys):
    code, err = _run_batch_with_config(tmp_path, capsys, "compare-all",
                                       {"algorithm": "gd", "seed": 7})
    assert code == EXIT_CONFIG
    assert err == ("config error: compare-all sets every run's algorithm and seed "
                   "itself; remove ['algorithm', 'seed'] from the config")
    assert not (tmp_path / "out").exists()


def test_solve_ref_takes_no_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve-ref", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
                "--seed", "5", "--out", str(tmp_path))
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_finished_runs_record_no_divergence(tmp_path):
    assert run_cli("run", "--synthetic", "10,4,25", "--loss", "ridge",
                   "--epochs", "2", "--out", str(tmp_path)) == EXIT_OK
    sidecar = json.loads((tmp_path / "l-svrg_ridge_seed0.json").read_text())
    assert sidecar["diverged_at_k"] is None


class DampedLSVRG(LSVRG):
    """A sixth algorithm defined only here: L-SVRG with a damped step size."""

    name = "l-svrg-damped"
    param_types = {**LSVRG.param_types, "damping": float}
    step = LSVRG.step

    def __init__(self, oracle, x0, eta: float, p: float, damping: float):
        super().__init__(oracle, x0, eta * damping, p=p)

    @classmethod
    def theory_params(cls, oracle):
        return {**super().theory_params(oracle), "damping": 0.5}


def test_algorithm_facts_come_from_the_class(tmp_path, monkeypatch):
    monkeypatch.setitem(ALGORITHMS, DampedLSVRG.name, DampedLSVRG)
    oracle, _ = build_problem(
        RunConfig(algorithm="gd", synthetic=(10, 4, 25.0), loss="ridge", mu=1.0)
    )
    for name, cls in ALGORITHMS.items():
        assert cls.name == name
        assert build_parser().parse_args(["run", "--alg", name]).alg == name
        config = RunConfig(algorithm=name, synthetic=(10, 4, 25.0), loss="ridge",
                           mu=1.0, diagnostics="lemmas" if cls.potential else "distance")
        params = resolve_params(config, oracle)
        assert list(params) == list(cls.param_types)
        assert set(cls.theory_params(oracle)) == set(params)
        # the declared table is the constructor's keywords: all of them, no more
        cls(oracle, np.zeros(oracle.d), **cls.theory_params(oracle))
        for dropped in params:
            with pytest.raises(TypeError):
                cls(oracle, np.zeros(oracle.d),
                    **{k: v for k, v in params.items() if k != dropped})
        with pytest.raises(TypeError):
            cls(oracle, np.zeros(oracle.d), **params, unknown=1.0)
        assert trace_columns(config) == (
            ["k", "oracle_calls", "epoch", "dist_sq", "f_gap", *cls.potential]
            + [f"slack_{lemma}" for lemma in cls.lemmas] + ["wall_ns"]
        )

    # the new class's own parameter gets a flag, and its runs trace its family
    code = run_cli(
        "run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--alg", "l-svrg-damped", "--eta", "0.01", "--p", "0.5", "--damping", "0.5",
        "--epochs", "2", "--diagnostics", "lemmas", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    sidecar = json.loads((tmp_path / "l-svrg-damped_ridge_seed0.json").read_text())
    assert sidecar["params"] == {"eta": 0.01, "p": 0.5, "damping": 0.5}
    trace = read_trace(tmp_path / "l-svrg-damped_ridge_seed0.csv")
    assert all(row["slack_phi_contraction"] >= -1e-10 for row in trace)
