"""CLI tests.  Every failing command keeps one exit contract, which check
asserts on each row (an Exit) of EXITS:

* its exit code, and on stderr one line: the code's prefix (PREFIX) and the
  row's message, "..." standing for any text.  argparse's refusals print
  their usage first, then one `loopless: error:` line, or `loopless
  <command>: error:` for a subcommand's own flags;
* no Python warning;
* at 2 and 3 no reference solve, and nothing left outside the inputs in/,
  so no `--out`; at 4 and 5 the row's tree of the paths left; at 0 an empty
  stderr and only finite cells in each trace printed.

Each exit reason README.md lists has at least one row, so a new reason is a
new row.  A row's id in EXITS is a test id: the rows of one test name make
one test, parametrized by the ids in brackets, and rows that share an id
run in turn.  The tests after the table that check more than the contract
(a failed reference's record, a diverged run's traces, a follow-up run)
run their commands through check too.
"""

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from test_golden import execute

from loopless import diagnostics
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

PREFIX = {EXIT_CONFIG: "config error: ", EXIT_DATA: "data error: ",
          EXIT_REFERENCE: "reference solve failed: ", EXIT_DIVERGED: "divergence: "}


@dataclass(frozen=True)
class Exit:
    """A `loopless` command line ({tmp} for the directory it runs in), the
    code it exits with, its stderr line after the code's prefix ("..." for
    any text), the files it finds in {tmp}/in (name: text or bytes), and at
    exit 4 or 5 the paths it leaves outside in/.  usage: argparse refuses
    the command line."""

    argv: list[str]
    code: int
    message: str = ""
    inputs: dict = field(default_factory=dict)
    tree: tuple[str, ...] = ()
    usage: bool = False


def check(row: Exit, tmp: Path, monkeypatch) -> list[str]:
    """Run row's command in tmp/run, assert the exit contract on it, and
    return the lines it printed."""
    inputs, run = tmp / "inputs", tmp / "run"
    inputs.mkdir(parents=True)
    for name, content in row.inputs.items():
        (inputs / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    solves, solve = [], diagnostics.solve_reference
    monkeypatch.setattr(diagnostics, "solve_reference",
                        lambda *args, **kwargs: solves.append(args) or solve(*args, **kwargs))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr, tree = execute(row.argv, run, inputs)
    assert (code, [str(warning.message) for warning in caught]) == (row.code, []), stderr
    if code == EXIT_OK:
        assert stderr == ""
        for path in stdout.splitlines():
            if path.endswith(".csv") and Path(path).with_suffix(".json").exists():
                trace = read_trace(path)
                assert trace and all(math.isfinite(v) for r in trace for v in r.values()), path
        return stdout.splitlines()
    assert stderr.endswith("\n"), stderr
    *usage, line = stderr.replace(str(run), "{tmp}").splitlines()
    if row.usage:  # the parser that refused it: loopless, or its subcommand's
        assert usage and usage[0].startswith("usage: loopless "), stderr
        prefix = usage[0].removeprefix("usage: ").split(" [")[0] + ": error: "
    else:
        assert usage == [], stderr
        prefix = PREFIX[code]
    assert re.fullmatch(".*".join(map(re.escape, (prefix + row.message).split("..."))),
                        line), line
    if code in (EXIT_CONFIG, EXIT_DATA):  # refused before the reference solve and --out
        assert (tree, solves) == ([], [])
    else:
        assert tree == list(row.tree)
    return stdout.splitlines()


_OUT = ["--out", "{tmp}/out"]
_CONFIG = ["--config", "{tmp}/in/config.json"]  # the inputs _config writes
# 10**14 float64s are 728 TiB, past a 47-bit address space: numpy's allocation
# fails at once, whatever the overcommit setting, and touches no memory
_HUGE = 10**14
_BIG = 2**1024  # the first int past float64's range
_SMALL = ["--synthetic", "12,4,25", "--loss", "ridge", "--mu", "1", "--epochs", "1"]
# a run's trace and sidecar, as plotdata reads them
_CSV, _SIDECAR = "l-svrg_ridge_seed0.csv", "l-svrg_ridge_seed0.json"
_HEADER = "k,oracle_calls,epoch,dist_sq,f_gap,wall_ns\n"
_TRACE = {_CSV: _HEADER + "0,10,1.0,0.5,0.25,17\n5,20,2.0,0.25,0.125,34\n",
          _SIDECAR: '{"run_id": "l-svrg_ridge_seed0", "algorithm": "l-svrg"}'}
_PLOT = ["plotdata", "{tmp}/in/l-svrg_ridge_seed0.csv", "--out", "{tmp}/plot.csv"]


def _runs(stems) -> tuple[str, ...]:
    """The tree of runs' traces and sidecars in {tmp}/out."""
    return ("out/", *sorted(f"out/{stem}.{ext}" for stem in stems for ext in ("csv", "json")))


def _config(**fields) -> dict:
    """The inputs of _CONFIG: a config file of fields."""
    return {"config.json": json.dumps(fields)}


def _broken(old: str, new: str) -> dict:
    """_TRACE with the first match of regular expression old in its CSV
    replaced by new."""
    return {**_TRACE, _CSV: re.sub(old, new, _TRACE[_CSV], 1)}


# flags each batch command would otherwise accept and ignore: it chooses every
# run's algorithm and params, sweep-p names its runs by loop length, and
# compare-all takes its seeds from --seeds
_PARAM_FLAGS = [("--alg", "katyusha"), ("--preset", "theory"), ("--eta", "10"),
                ("--p", "0.5"), ("--m", "3"), ("--theta1", "0.1"), ("--theta2", "0.5"),
                ("--step-size", "0.1")]
_IGNORED = {"sweep-p": [*_PARAM_FLAGS, ("--tag", "mine")],
            "compare-all": [*_PARAM_FLAGS, ("--seed", "7")]}
_BATCH = {"synthetic": [10, 4, 25.0], "loss": "ridge", "mu": 1.0, "epochs": 1.0}

EXITS = [
    # argparse refuses a flag a subcommand does not take, or a value of the wrong kind
    ("test_preset_is_not_a_flag",
     Exit(["run", "--synthetic", "10,4,25", "--alg", "l-svrg", "--preset", "theory"], 2,
          "unrecognized arguments: --preset theory", usage=True)),
    ("test_solve_ref_takes_no_seed",
     Exit(["solve-ref", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
           "--seed", "5", *_OUT], 2, "unrecognized arguments: --seed 5", usage=True)),
    *[(f"test_malformed_list_flags_exit_with_config_code[argv{i}]",
       Exit([*argv, "--synthetic", "10,4,25", *_OUT], 2, "...expected comma-separated...",
            usage=True))
      for i, argv in enumerate([["sweep-p", "--grid", "1,abc"],
                                ["compare-all", "--thresholds", "1e-4,x"]])],
    ("test_exit_contract[synthetic-of-two-numbers]",
     Exit(["run", "--synthetic", "10,4", *_OUT], 2, "argument --synthetic: expected n,d,kappa "
          "(e.g. 100,20,100), got '10,4'", usage=True)),
    *[(f"test_batch_commands_reject_flags_and_params_they_would_ignore[{command}:{flag[0]}]",
       Exit([command, *_CONFIG, *_OUT, *flag], 2,
            f"unrecognized arguments: {' '.join(flag)}", _config(**_BATCH), usage=True))
      for command, flags in _IGNORED.items() for flag in flags],
    *[(f"test_batch_commands_reject_flags_and_params_they_would_ignore[{command}:params]",
       Exit([command, *_CONFIG, *_OUT], 2, "...['eta']...",
            _config(**_BATCH, params={"eta": 10.0})))
      for command in _IGNORED],
    ("test_sweep_p_rejects_a_config_algorithm_or_tag",
     Exit(["sweep-p", *_CONFIG, *_OUT], 2,
          "sweep-p sets every run's algorithm and tag itself; remove ['algorithm', 'tag'] "
          "from the config", _config(**_BATCH, algorithm="katyusha", tag="mine"))),
    ("test_compare_all_rejects_a_config_algorithm_or_seed",
     Exit(["compare-all", *_CONFIG, *_OUT], 2,
          "compare-all sets every run's algorithm and seed itself; remove ['algorithm', "
          "'seed'] from the config", _config(**_BATCH, algorithm="gd", seed=7))),

    # a number out of range
    ("test_config_error_exit_code",
     Exit(["run", "--synthetic", "10,4,25", "--mu", "-1", "--alg", "l-svrg", *_OUT], 2,
          "mu must be positive and finite, got -1.0")),
    *[(f"test_bad_numbers_exit_with_config_code[flags{i}-{message}]",
       Exit(["run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1", "--epochs", "5",
             *flags, *_OUT], 2, f"...{message}...", inputs))
      for i, (flags, inputs, message) in enumerate([
          (["--synthetic", "0,5,10"], {}, "need n >= 1 and d >= 1"),
          (["--synthetic", "10,0,10"], {}, "need n >= 1 and d >= 1"),
          (["--synthetic", "10,5,0.5"], {}, "condition_number must be finite and >= 1"),
          (["--synthetic", "10,5,nan"], {}, "condition_number must be finite and >= 1"),
          (["--synthetic", "10,5,inf"], {}, "condition_number must be finite and >= 1"),
          (["--checkpoint-every", "nan"], {}, "checkpoint_every must be positive and finite"),
          (["--epochs", "inf"], {}, "epochs must be positive and finite"),
          (["--epochs", "nan"], {}, "epochs must be positive and finite"),
          (["--mu", "nan"], {}, "mu must be positive and finite"),
          (["--eta", "nan", "--p", "0.1"], {}, "eta must be positive and finite"),
          (["--eta", "inf", "--p", "0.1"], {}, "eta must be positive and finite"),
          (["--ref-tolerance", "nan"], {}, "ref_tolerance must be positive and finite"),
          (["--ref-tolerance", "-1"], {}, "ref_tolerance must be positive and finite"),
          (["--ref-max-epochs", "-1"], {}, "ref_max_epochs must be >= 0"),
          # a field without a flag, from a config file
          ([*_CONFIG], _config(x0=[0.0, math.nan, 0.0, 0.0]),
           "is not a list of finite numbers"),
          (["--checkpoint-every", "1e-17"], {}, "gives more than 1e7 checkpoints in 5.0 epochs"),
          (["--checkpoint-every", "1e-300"], {},
           "gives more than 1e7 checkpoints in 5.0 epochs"),
          (["--eta", "-1", "--p", "0.5"], {}, "eta must be positive and finite, got -1.0")])],
    *[(f"test_exit_contract[{name}]",
       Exit(["run", *_SMALL, "--alg", *flags, *_OUT], 2, message))
      for name, flags, message in [
          ("p-past-one", ["l-svrg", "--eta", "0.1", "--p", "1.5"],
           "probability must lie in (0, 1], got 1.5"),
          ("theta-sum-past-one", ["l-katyusha", "--theta1", "0.6", "--theta2", "0.6", "--p",
                                  "0.5"], "theta1 + theta2 must be <= 1, got 0.6 + 0.6"),
          ("m-below-one", ["svrg", "--eta", "0.1", "--m", "0"],
           "inner loop length m must be >= 1, got 0"),
          ("gd-at-lyapunov", ["gd", "--diagnostics", "lyapunov"],
           "Lyapunov diagnostics are defined only for the SVRG/Katyusha families, not gd")]],
    ("test_exit_contract[x0-of-the-wrong-length]",
     Exit(["run", *_CONFIG, "--alg", "l-svrg", *_OUT], 2,
          "x0 has shape (2,), expected (4,)", _config(synthetic=[10, 4, 25.0], x0=[0, 0]))),

    # a synthetic shape or instance past float64 or memory
    *[(f"test_an_overflowing_synthetic_instance_exits_with_config_code"
       f"[{command}-flags{i}-{message}]",
       Exit([command, *flags, "--loss", "ridge", *_OUT], 2, f"synthetic=...{message}..."))
      for command in ["run", "solve-ref"]
      for i, (flags, message) in enumerate([
          (["--synthetic", "2,2,1e308", "--mu", "1"], "the Hessian A^T A / n + mu I overflows"),
          (["--synthetic", "50,5,10", "--mu", "1e308"], "(condition_number - 1) * mu")])],
    *[(f"test_a_synthetic_shape_past_memory_exits_with_config_code[{key}-{command}]",
       Exit([command, "--synthetic", shape, "--loss", "ridge", "--mu", "1", *_OUT], 2,
            f"synthetic=({shape.replace(',', ', ')}.0): ..."))
      for key, shape in [("n", f"{_HUGE},4,10"), ("d", f"4,{_HUGE},10")]
      for command in ["run", "sweep-p", "compare-all", "solve-ref"]],
    ("test_a_subnormal_mu_exits_with_config_code_and_no_numpy_warning",
     # the synthetic row weights underflow to 0 at mu = 5e-324
     Exit(["run", "--synthetic", "12,4,25", "--loss", "logistic", "--mu", "5e-324", *_OUT], 2,
          "synthetic=(12, 4, 25.0): the Hessian A^T A / n + mu I overflows float64")),

    # a theory preset value, diagnostics coefficient or step constant past float64
    *[(f"test_a_theory_preset_that_underflows_names_the_instance[{command}]",
       # L = mu = 1e308 (condition number 1: empty rows), so 6 L overflows and
       # the preset's eta = 1 / (6 L) is 0
       Exit([command, "--synthetic", "3,1,1", "--loss", "ridge", "--mu", "1e308", *_OUT,
             *(["--alg", "l-svrg"] if command == "run" else [])], 2,
            "synthetic=(3, 1, 1.0): theory preset gives eta = 0.0 at L = 1e+308"))
      for command in ["run", "sweep-p", "compare-all"]],
    # a potential or bound whose coefficient is inf is not finite at any
    # checkpoint: the run would stop at k = 0, having taken no step
    *[(f"test_a_diagnostics_coefficient_that_overflows_exits_with_config_code[{key}]",
       Exit(["run", *problem, *flags, *_OUT], 2, message))
      for key, problem, flags, message in [
          ("psi", _SMALL, ["--alg", "l-katyusha", "--theta1", "0.5", "--theta2", "0.5",
                           "--p", "1e-320", "--diagnostics", "lyapunov"],
           "the psi potential's coefficient theta2 (1 + theta1) / (p theta1) overflows "
           "float64 at theta1 = 0.5, theta2 = 0.5, p = 1e-320, n = 12"),
          ("estimator-bound", _SMALL, ["--alg", "l-svrg", "--eta", "1e-160", "--p", "0.5",
                                       "--diagnostics", "lemmas"],
           "the estimator_second_moment bound's coefficient p / (2 eta^2) overflows "
           "float64 at eta = 1e-160, p = 0.5, n = 12"),
          ("dk", _SMALL, ["--alg", "l-svrg", "--eta", "0.01", "--p", "1e-320",
                          "--diagnostics", "lyapunov"],
           "dk's coefficient 4 eta^2 / (p n) overflows float64 at eta = 0.01, "
           "p = 1e-320, n = 12"),
          # the theory preset's eta = 1/(6L) is about 1.7e304 at mu = 1e-308, and
          # eta^2 is inf, not an OverflowError
          ("dk-eta-squared", ["--synthetic", "10,4,1e3", "--loss", "ridge", "--mu", "1e-308",
                              "--epochs", "0.5"], ["--alg", "l-svrg", "--diagnostics", "lemmas"],
           "dk's coefficient 4 eta^2 / (p n) overflows float64 at "
           "eta = 1.6666666666666666e+304, p = 0.1, n = 10"),
          # zk's coefficient at eta = theta2 / ((1 + theta2) theta1) = 2e-320, and
          # yk's 1 / theta1 at a subnormal theta1, at each level that reports them
          *[(f"{key}-{level}", _SMALL, ["--alg", "l-katyusha", "--theta1", theta1,
                                        "--theta2", theta2, "--p", "0.5", "--diagnostics", level],
             f"the psi potential's coefficient {name} overflows float64 at "
             f"theta1 = {theta1}, theta2 = {theta2}, p = 0.5, n = 12")
            for key, name, theta1, theta2 in [
                ("zk", "L (1 + eta sigma) / (2 eta)", "0.5", "1e-320"),
                ("yk", "1 / theta1", "1e-310", "1e-310")]
            for level in ("lyapunov", "lemmas")]]],
    # L-Katyusha's step takes eta / L, eta = theta2 / ((1 + theta2) theta1): inf
    # at a subnormal L, or at a subnormal theta1
    *[(f"test_an_l_katyusha_step_constant_that_is_not_finite_exits_with_config_code[{key}]",
       Exit([*argv, *_OUT], 2, "eta / L must be positive and finite, got inf"))
      for key, argv in [
          ("subnormal-L", ["run", "--synthetic", "12,2,1", "--loss", "ridge", "--mu", "1e-320",
                           "--alg", "l-katyusha", "--epochs", "2"]),
          ("subnormal-theta1", ["run", "--synthetic", "12,4,10", "--loss", "ridge", "--mu", "1",
                                "--alg", "l-katyusha", "--theta1", "1e-320", "--theta2", "0.5",
                                "--p", "0.5", "--epochs", "2"]),
          ("lanes", ["compare-all", "--synthetic", "5,4,1", "--loss", "ridge", "--mu", "1e-320",
                     "--epochs", "2", "--seeds", "0,1,2", "--algs", "l-katyusha"])]],
    # kappa = 0.25 / 1e-308 on unit rows: kappa^3 overflows float64
    ("test_a_kappa_past_the_default_grid_exits_with_config_code",
     Exit(["sweep-p", "--synthetic", "12,4,25", "--loss", "logistic", "--mu", "1e-308",
           "--normalize", "--epochs", "2", "--diagnostics", "lemmas", *_OUT], 2,
          "kappa = 2.500000000000001e+307 is too large for the default loop-length grid "
          "(a length overflows float64); pass --grid")),
    *[(f"test_a_grid_length_below_one_exits_with_config_code[{grid}]",
       Exit(["sweep-p", "--synthetic", "12,4,25", "--loss", "ridge", "--mu", "0.5",
             "--epochs", "1", "--grid", grid, *_OUT], 2, "grid loop length 0 rounds below 1"))
      for grid in ["0", "3,0"]],
    # the one report that still enumerates: the Katyusha family's on logistic
    # data, loopy Katyusha included
    *[(f"test_lemma_diagnostics_past_the_enumeration_guard_exit_with_config_code"
       f"[{command}-flags{i}]",
       Exit([command, "--synthetic", "1001,3,10", "--loss", "logistic", "--mu", "1", *flags,
             "--epochs", "1", "--diagnostics", "lemmas", *_OUT], 2,
            "lemma diagnostics enumerate all n samples: n = 1001 is past the limit n <= 1000"))
      for i, (command, flags) in enumerate([("run", ["--alg", "l-katyusha"]),
                                            ("run", ["--alg", "katyusha"]),
                                            ("compare-all", ["--algs", "l-svrg,l-katyusha"])])],

    # batch lists: algorithms, seeds and thresholds
    *[(f"test_compare_all_rejects_runs_that_share_files[{key}]",
       Exit(["compare-all", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
             "--epochs", "1", "--algs", "l-svrg", *flags, *_OUT], 2, f"{message}..."))
      for key, flags, message in [
          ("repeated-seed", ["--seeds", "0,0"],
           "runs ['l-svrg_ridge_seed0'] would share one trace file"),
          ("repeated-algorithm", ["--algs", "l-svrg,l-svrg"],
           "runs ['l-svrg_ridge_seed0'] would share one trace file"),
          ("empty-algs", ["--algs", ""], "unknown algorithm ''"),
          # 1e-4 and 0.0001 are one threshold, whose summary rows would be written twice
          ("repeated-threshold", ["--thresholds", "1e-4,1e-2,0.0001"],
           "thresholds [0.0001] would write the same summary rows twice; "
           "list each threshold once")]],
    ("test_exit_contract[unknown-algorithm]",
     Exit(["compare-all", *_SMALL, "--algs", "l-svrg,sgd", *_OUT], 2,
          "unknown algorithm 'sgd'; expected one of "
          "['gd', 'katyusha', 'l-katyusha', 'l-svrg', 'svrg']")),
    *[(f"test_compare_all_rejects_thresholds_that_are_not_positive_and_finite[{thresholds}]",
       Exit(["compare-all", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
             "--epochs", "1", "--thresholds", thresholds, *_OUT], 2,
            "need thresholds, each positive and finite..."))
      for thresholds in ["nan,-1", "0", "inf", "1e-4,-1e-8"]],
    ("test_exit_contract[compare-all-without-distance]",
     Exit(["compare-all", *_SMALL, "--diagnostics", "none", *_OUT], 2,
          "compare-all needs distance diagnostics to measure thresholds")),

    # a run id that is not one file name
    *[(f"test_a_run_id_that_is_not_a_file_name_exits_with_config_code[{key}]",
       Exit([command, *_CONFIG, "--synthetic", "20,4,10", "--loss",
             "ridge", "--mu", "1", "--epochs", "1", *flags, *_OUT], 2, "run id ...",
            _config(**config)))
      for key, command, config, flags in [
          ("run-seed-past-a-file-name", "run", {"seed": 10**300}, []),
          ("run-tag-with-slash", "run", {}, ["--tag", "a/b"]),
          ("run-tag-with-nul", "run", {"tag": "a\0b"}, []),
          ("sweep-p-seed-past-a-file-name", "sweep-p", {"seed": 10**300}, []),
          ("compare-all-tag-with-slash", "compare-all", {}, ["--tag", "a/b", "--seeds", "1,2"])]],

    # --config: not JSON, not an object, or a field of the wrong type
    *[("test_invalid_config_file",
       Exit(["run", *_CONFIG, *_OUT], 2,
            f"config {{tmp}}/in/config.json is not valid JSON: ...{message}...",
            {"config.json": content}))
      # the second file is UTF-16 with its byte-order mark, not UTF-8
      for content, message in [(b"not json", "Expecting value"),
                               (b"\xff\xfe" + '{"mu": 1.0}'.encode("utf-16-le"),
                                "can't decode byte 0xff"),
                               (b'{"mu": 1' + b"0" * 5000 + b"}", "(4300 digits)")]],
    ("test_a_config_file_that_is_unreadable_or_not_an_object_exits_in_one_line[unreadable]",
     Exit(["run", *_CONFIG, *_OUT], 3,
          "cannot read config {tmp}/in/config.json: [Errno 2] No such file...")),
    ("test_a_config_file_that_is_unreadable_or_not_an_object_exits_in_one_line[not-an-object]",
     Exit(["run", *_CONFIG, *_OUT], 2,
          "config {tmp}/in/config.json must hold a JSON object", {"config.json": "[1, 2]"})),
    *[(f"test_bad_param_values_exit_with_config_code[params{i}-{message}]",
       Exit(["run", *_CONFIG, *_OUT], 2, f"...{message}...",
            _config(algorithm="l-svrg", synthetic=[10, 4, 25.0], loss="ridge", mu=1.0,
                    params=params)))
      for i, (params, message) in enumerate([
          ({"eta": "abc", "p": 0.5}, "param eta='abc' is not a valid float"),
          ({"eta": 0.1, "p": [0.5]}, "param p=[0.5] is not a valid float"),
          ({"eta": -1.0, "p": 0.5}, "eta must be positive")])],
    *[(f"test_config_params_get_the_type_check_of_every_field[{algorithm}-params{i}-{message}]",
       Exit(["run", *_CONFIG, *_OUT], 2, message,
            _config(algorithm=algorithm, synthetic=[10, 4, 25.0], loss="ridge", mu=1.0,
                    params=params)))
      for i, (algorithm, params, message) in enumerate([
          ("svrg", {"eta": 0.01, "m": 2.7}, "param m=2.7 is not a valid int"),
          ("svrg", {"eta": 0.01, "m": True}, "param m=True is not a valid int"),
          ("svrg", {"eta": "0.01", "m": 3}, "param eta='0.01' is not a valid float"),
          ("l-katyusha", {"theta1": 0.1, "theta2": 0.5, "p": True},
           "param p=True is not a valid float")])],
    *[(f"test_config_fields_of_the_wrong_type_exit_with_config_code[{key}]",
       Exit(["run", *_CONFIG, *_OUT], 2, message,
            _config(**{"algorithm": "l-svrg", "synthetic": [10, 4, 25.0], "loss": "ridge",
                       "mu": 1.0, **fields})))
      for key, fields, message in [
          *[(f"field{i}-{message}", fields, message) for i, (fields, message) in enumerate([
              ({"synthetic": [10, 4]}, "synthetic=[10, 4] is not [n, d, kappa]"),
              ({"mu": "abc"}, "mu must be float, got 'abc'"),
              ({"epochs": "5"}, "epochs must be float, got '5'"),
              ({"synthetic": [30.9, 5, 10]}, "synthetic=[30.9, 5, 10] is not [n, d, kappa]"),
              ({"synthetic": [30, "5", 10]}, "synthetic=[30, '5', 10] is not [n, d, kappa]"),
              ({"synthetic": [30, 5, True]}, "synthetic=[30, 5, True] is not [n, d, kappa]")])],
          # an int float() cannot convert, named by its field
          ("mu-past-float64", {"mu": _BIG}, f"mu must be float, got {_BIG}"),
          ("x0-past-float64", {"x0": [_BIG, 0, 0, 0]},
           f"x0=[{_BIG}, 0, 0, 0] is not a list of finite numbers"),
          ("kappa-past-float64", {"synthetic": [10, 4, _BIG]},
           f"synthetic=[10, 4, {_BIG}] is not [n, d, kappa]"),
          ("eta-past-float64", {"params": {"eta": _BIG}}, f"param eta={_BIG} is not a valid float"),
          ("params-a-list", {"params": [1]}, "params must be a JSON object, got [1]"),
          # params lie over the theory preset, so no config names a preset
          ("preset-unknown", {"preset": None}, "unknown config keys ['preset']")]],

    # a LIBSVM file that cannot be read or used
    ("test_missing_data_exit_code",
     Exit(["run", "--data", "{tmp}/in/missing.svm", "--alg", "gd", *_OUT], 3,
          "cannot read {tmp}/in/missing.svm: [Errno 2] No such file...")),
    ("test_malformed_data_exit_code",
     Exit(["run", "--data", "{tmp}/in/bad.svm", "--alg", "gd", *_OUT], 3,
          "cannot parse {tmp}/in/bad.svm: line 1: feature index 1 not increasing (previous 2)",
          {"bad.svm": "+1 2:1 1:3\n"})),
    *[(f"test_non_finite_data_exits_with_data_code[{text}-{message}-{command}]",
       Exit([command, "--data", "{tmp}/in/bad.svm", "--loss", "logistic", *_OUT], 3,
            f"cannot parse {{tmp}}/in/bad.svm: ...{message}...", {"bad.svm": text}))
      for text, message in [("1 1:1\nnan 1:2\n", "labels must be finite, got nan"),
                            ("1 1:1\ninf 1:2\n", "labels must be finite, got inf"),
                            ("1 1:nan 2:1\n-1 1:2\n", "values must be finite"),
                            ("1 1:inf 2:1\n-1 1:2\n", "values must be finite")]
      for command in ["run", "solve-ref"]],
    # a file of bare labels has d = 0, and still runs
    ("test_exit_contract[bare-labels-at-ridge]",
     Exit(["run", "--data", "{tmp}/in/bare.txt", "--loss", "ridge", "--mu", "1", "--alg",
           "l-svrg", "--epochs", "1", *_OUT], 0, inputs={"bare.txt": "1\n-1\n"})),
    # 1e200 squared overflows, so L is not finite: no run and no reference
    *[(f"test_an_overflowing_row_norm_exits_with_data_code[{key}]",
       Exit([*command, "--data", "{tmp}/in/big.svm", "--loss", "ridge", "--mu", "1", *_OUT], 3,
            "cannot use {tmp}/in/big.svm: smoothness bound L = inf is not finite: "
            "a squared row norm overflows float64", {"big.svm": "1 1:1e200 2:1\n-1 1:2 2:3\n"}))
      for key, command in [("run-l-svrg", ["run", "--alg", "l-svrg"]),
                           ("run-l-katyusha", ["run", "--alg", "l-katyusha"]),
                           ("run-gd", ["run", "--alg", "gd"]), ("solve-ref", ["solve-ref"])]],
    # the row norm 1e200 scales 1e-200 to 0, which a dataset cannot store
    ("test_a_row_that_normalizes_to_zero_exits_with_data_code",
     Exit(["run", "--data", "{tmp}/in/wide.svm", "--loss", "ridge", "--mu", "0.5",
           "--normalize", "--alg", "gd", *_OUT], 3,
          "cannot use {tmp}/in/wide.svm: a row cannot be scaled to unit norm: its squared "
          "norm or a scaled entry leaves the float64 range",
          {"wide.svm": "+1 1:1e-200 2:1e200\n-1 1:1\n"})),
    *[(f"test_a_file_dimension_past_memory_exits_with_data_code[{command}]",
       Exit([command, "--data", "{tmp}/in/wide.svm", "--loss", "logistic", "--mu", "1", *_OUT],
            3, "cannot use {tmp}/in/wide.svm: Unable to allocate ...",
            {"wide.svm": f"1 3:1\n-1 {_HUGE}:2\n"}))
      for command in ["run", "sweep-p", "compare-all", "solve-ref"]],

    # --out, or a file in it, cannot be written: refused before any run or
    # reference solve
    *[(f"test_an_output_that_cannot_be_written_exits_with_data_code[{command}]",
       Exit(argv, 3, "cannot write to {tmp}/in/afile...", {**_TRACE, "afile": ""}))
      for command, argv in [
          *[(command, [command, "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
                       "--epochs", "1", "--out", "{tmp}/in/afile/x"])
            for command in ["run", "sweep-p", "compare-all"]],
          ("solve-ref", ["solve-ref", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
                         "--out", "{tmp}/in/afile/x"]),
          ("plotdata", ["plotdata", "{tmp}/in/l-svrg_ridge_seed0.csv",
                        "--out", "{tmp}/in/afile/x"])]],

    # plotdata: a trace or sidecar that is missing or cannot be read, or
    # metrics that cannot be written
    *[(f"test_plotdata_bad_input_exits_with_data_code[{key}]", Exit(_PLOT, 3, message, inputs))
      for key, inputs, message in [
          ("sidecar-not-json", {**_TRACE, _SIDECAR: "{not json"},
           "cannot read {tmp}/in/l-svrg_ridge_seed0.json as a run sidecar: ..."),
          ("sidecar-a-list", {**_TRACE, _SIDECAR: "[1, 2]"},
           "cannot read {tmp}/in/l-svrg_ridge_seed0.json as a run sidecar: ..."),
          ("cell-not-a-number", _broken("\n0,", "\nzero,"),
           "{tmp}/in/l-svrg_ridge_seed0.csv: k='zero' on line 2 is not a number"),
          ("trace-missing", {_SIDECAR: _TRACE[_SIDECAR]},
           "cannot read {tmp}/in/l-svrg_ridge_seed0.csv: ..."),
          # no writer leaves a cell blank or a row short: each is not a number
          ("cell-blank", _broken("\n0,", "\n,"),
           "{tmp}/in/l-svrg_ridge_seed0.csv: k='' on line 2 is not a number"),
          ("row-short", _broken(r",\d+\n", "\n"),
           "{tmp}/in/l-svrg_ridge_seed0.csv: wall_ns=None on line 2 is not a number"),
          # every output row takes its epoch from the trace
          ("epoch-missing", _broken(",epoch,", ",epochs,"),
           "{tmp}/in/l-svrg_ridge_seed0.csv: missing metric columns ['epoch']")]],
    *[(f"test_exit_contract[plotdata-{key}]", Exit(_PLOT, 3, message, inputs))
      for key, inputs, message in [
          ("empty-trace", {**_TRACE, _CSV: ""},
           "{tmp}/in/l-svrg_ridge_seed0.csv: empty trace file"),
          ("header-only", {**_TRACE, _CSV: _HEADER},
           "{tmp}/in/l-svrg_ridge_seed0.csv: no records"),
          ("sidecar-missing", {_CSV: _TRACE[_CSV]},
           "missing sidecar {tmp}/in/l-svrg_ridge_seed0.json"),
          ("sidecar-without-run-id", {**_TRACE, _SIDECAR: '{"algorithm": "l-svrg"}'},
           "cannot read {tmp}/in/l-svrg_ridge_seed0.json as a run sidecar: KeyError('run_id')")]],
    ("test_exit_contract[plotdata-columns-that-differ]",
     Exit(["plotdata", "{tmp}/in/l-svrg_ridge_seed0.csv", "{tmp}/in/psi.csv",
           "--out", "{tmp}/plot.csv"], 3,
          "{tmp}/in/psi.csv: schema mismatch, columns ['dist_sq', 'f_gap', 'psi'] vs "
          "['dist_sq', 'f_gap']",
          {**_TRACE, "psi.json": _TRACE[_SIDECAR],
           "psi.csv": _HEADER.replace(",wall_ns", ",psi,wall_ns") + "0,10,1.0,0.5,0.25,1.0,17\n"})),
    ("test_plotdata_rejects_a_repeated_metric",
     Exit(["plotdata", "{tmp}/in/l-svrg_ridge_seed0.csv", "--metrics", "dist_sq,f_gap,dist_sq",
           "--out", "{tmp}/plot/plot.csv"], 2,
          "metrics ['dist_sq'] would write every row twice; list each metric once", _TRACE)),
    ("test_exit_contract[plotdata-no-metrics]",
     Exit(["plotdata", "{tmp}/in/l-svrg_ridge_seed0.csv", "--metrics", "",
           "--out", "{tmp}/plot.csv"], 2, "empty metric selection", _TRACE)),

    # a reference solve that is not certified leaves its record
    *[("test_reference_failure_exit_code",
       Exit([command, *problem, *(["--alg", "l-svrg", "--epochs", "2"] if command == "run" else []),
             "--ref-max-epochs", "1", "--ref-tolerance", tolerance, "--out", f"{{tmp}}/{out}"],
            4, "made 2 full-gradient passes...", tree=tree))
      for command in ["run", "solve-ref"]
      for problem, tolerance, out, tree in [
          # logistic has no closed form; one epoch of GD cannot hit the tolerance
          (["--synthetic", "10,4,25", "--loss", "logistic", "--mu", "0.1"], "1e-14", "out",
           ("out/", "out/synthetic10x4k25_data0_logistic_mu0.1_ref.json")),
          # a synthetic ridge instance's closed form is held to the tolerance too,
          # and the record is left in the output directory the command made
          (["--synthetic", "50,5,100", "--loss", "ridge", "--mu", "1"], "1e-30", "out/nested",
           ("out/", "out/nested/", "out/nested/synthetic50x5k100_data0_ridge_mu1.0_ref.json"))]],

    # a run that overflows between two checkpoints steps on, unwarned, to the
    # next one, where it stops as diverged
    ("test_exit_contract[diverged-between-checkpoints]",
     Exit(["run", "--synthetic", "20,4,10", "--loss", "ridge", "--mu", "1", "--alg", "l-svrg",
           "--eta", "10", "--epochs", "100", "--checkpoint-every", "100", *_OUT], 5,
          "diverged: l-svrg_ridge_seed0 at k=640; each trace stops at its last finite checkpoint",
          tree=_runs(["l-svrg_ridge_seed0"]))),
]


def _table_test(cases: dict):
    """The test of one test name's rows: {id in brackets: rows}, checked in
    turn, and parametrized by those ids unless the one id is ''."""
    def test(rows, tmp_path, monkeypatch):
        for i, row in enumerate(rows):
            check(row, tmp_path / str(i), monkeypatch)

    if list(cases) == [""]:
        return lambda tmp_path, monkeypatch: test(cases[""], tmp_path, monkeypatch)
    return pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))(test)


_CASES: dict = {}
for _id, _row in EXITS:
    _name, _, _case = _id.partition("[")
    _CASES.setdefault(_name, {}).setdefault(_case.removesuffix("]"), []).append(_row)
globals().update({name: _table_test(cases) for name, cases in _CASES.items()})


def run_cli(*argv):
    return main(list(argv))


def read_lines(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read().splitlines()


def strip_wall(lines):
    return [",".join(line.split(",")[:-1]) for line in lines]


@pytest.mark.parametrize("diagnostics", ["lyapunov", "lemmas"])
def test_a_psi_coefficient_that_underflows_exits_with_config_code(tmp_path, monkeypatch,
                                                                  diagnostics):
    argv = ["run", "--synthetic", "12,4,25", "--loss", "ridge", "--mu", "0.5",
            "--alg", "l-katyusha", "--theta1", "0.01", "--theta2", "0.5", "--p", "5e-324",
            "--epochs", "2", *_OUT]
    check(Exit([*argv, "--diagnostics", diagnostics], 2,
               "the psi potential's coefficient theta2 (1 + theta1) / (p theta1) overflows "
               "float64 at theta1 = 0.01, theta2 = 0.5, p = 5e-324, n = 12"),
          tmp_path / "potential", monkeypatch)
    # without the potential the run needs no p * theta1
    check(Exit([*argv, "--diagnostics", "distance"], 0), tmp_path / "distance", monkeypatch)


@pytest.mark.parametrize("eta", ["1e-320", "1e-200"])
def test_a_step_size_whose_square_underflows_exits_with_config_code_at_lemmas(
        tmp_path, monkeypatch, eta):
    # estimator_second_moment's bound divides by 2 eta^2, which is 0 here
    argv = ["run", "--synthetic", "20,4,10", "--loss", "ridge", "--mu", "1",
            "--alg", "l-svrg", "--eta", eta, "--p", "0.5", "--epochs", "1", *_OUT]
    check(Exit([*argv, "--diagnostics", "lemmas"], 2,
               "the estimator_second_moment bound's coefficient p / (2 eta^2) "
               f"overflows float64 at eta = {eta}, p = 0.5, n = 20"),
          tmp_path / "lemmas", monkeypatch)
    # at lyapunov the same eta runs: dk's coefficient 4 eta^2 / (p n) is 0
    trace, = check(Exit([*argv, "--diagnostics", "lyapunov"], 0), tmp_path / "lyapunov",
                   monkeypatch)
    assert all(row["dk"] == 0.0 for row in read_trace(trace))


@pytest.mark.parametrize("loss, alg", [("ridge", "l-svrg"), ("logistic", "l-svrg"),
                                       ("ridge", "l-katyusha")])
def test_lemma_reports_that_enumerate_nothing_run_past_the_guard(tmp_path, monkeypatch,
                                                                 loss, alg):
    # sums of per-sample scalars (and, for ridge Katyusha, a d x d Gram
    # matrix) cost O(nnz) per report at any n
    trace, = check(Exit(["run", "--synthetic", "1001,3,10", "--loss", loss, "--mu", "1",
                         "--alg", alg, "--epochs", "2.5", "--diagnostics", "lemmas", *_OUT], 0),
                   tmp_path, monkeypatch)
    rows = read_trace(trace)
    slacks = [v for row in rows for k, v in row.items() if k.startswith("slack_")]
    assert rows and len(slacks) == len(rows) * len(ALGORITHMS[alg].lemmas)
    assert min(slacks) >= -1e-10, slacks


def test_a_reference_solve_with_nan_margins_fails_without_a_numpy_warning(tmp_path,
                                                                          monkeypatch):
    # at mu = 5e-324 the reference solve's full-data products meet invalid
    # values; the solve fails with exit 4 and no RuntimeWarning from numpy
    check(Exit(["run", "--synthetic", "10,4,1e3", "--loss", "logistic", "--mu", "5e-324",
                "--ref-max-epochs", "1", "--alg", "l-svrg", "--eta", "0.1", "--p", "0.5",
                "--epochs", "0.5", "--diagnostics", "distance", *_OUT], 4, "...",
               tree=("out/", "out/synthetic10x4k1000_data0_logistic_mu5e-324_ref.json")),
          tmp_path / "margins", monkeypatch)
    # a subnormal L makes the step 1/L overflow the iterate: the solve stops
    # at the first gradient norm that is not finite, long before the default
    # 100,000 passes of --ref-max-epochs, and still without a warning
    for i, (name, argv) in enumerate([
            ("synthetic5x2k1000_data0_logistic",
             ["solve-ref", "--synthetic", "5,2,1e3", "--loss", "logistic"]),
            ("synthetic6x3k10_data0_ridge",
             ["solve-ref", "--synthetic", "6,3,10", "--loss", "ridge"]),
            ("synthetic5x2k1000_data0_logistic",
             ["run", "--synthetic", "5,2,1e3", "--loss", "logistic", "--alg", "l-svrg",
              "--eta", "0.1", "--p", "0.5"])]):
        record, tmp = f"out/{name}_mu1e-320_ref.json", tmp_path / str(i)
        check(Exit([*argv, "--mu", "1e-320", *_OUT], 4, "made ... full-gradient passes "
                   "with ||grad|| = ... still above tolerance", tree=("out/", record)),
              tmp, monkeypatch)
        assert json.loads((tmp / "run" / record).read_text())["epochs"] < 100_000, argv


@pytest.mark.parametrize("command", ["run", "solve-ref"])
def test_a_failed_reference_leaves_its_record(tmp_path, monkeypatch, command):
    data = "+1 1:0.5 3:-1.25\n-1 2:2 4:0.75\n+1 1:-1 4:1.5\n-1 3:0.25\n"
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
    check(Exit([command, "--data", "{tmp}/in/small.svm", "--loss", "logistic", "--mu", "0.1",
                *(["--alg", "l-svrg"] if command == "run" else []), "--ref-max-epochs", "1",
                "--ref-tolerance", "1e-14", *_OUT], 4, "...", {"small.svm": data},
               tree=("out/", "out/small_logistic_mu0.1_ref.json")), tmp_path, monkeypatch)
    record = json.loads((tmp_path / "run" / "out" / "small_logistic_mu0.1_ref.json").read_text())
    oracle, _ = build_problem(RunConfig("gd", dataset_path=str(tmp_path / "inputs" / "small.svm"),
                                        mu=0.1))
    assert record.keys() == {"grad_norm", "f_star", "tolerance", "epochs", "n", "d", "L", "mu"}
    assert record["grad_norm"] > record["tolerance"] == 1e-14
    assert record["epochs"] == passes[0] == 2
    assert (record["n"], record["d"], record["L"], record["mu"]) == (
        oracle.n, oracle.d, oracle.L, oracle.mu)


# an iterate next to the largest double overflows on the first step
_HUGE_X0 = _config(synthetic=[10, 4, 25.0], loss="ridge", mu=1.0, epochs=4.0, x0=[1e308] * 4)


def test_diverging_run_exits_with_divergence_code(tmp_path, monkeypatch):
    printed = check(Exit(["run", "--synthetic", "100,20,1e4", "--loss", "ridge", "--mu", "1.0",
                          "--alg", "l-svrg", "--eta", "10", "--p", "0.02", "--epochs", "5",
                          *_OUT], 5, "...", tree=_runs(["l-svrg_ridge_seed0"])),
                    tmp_path, monkeypatch)
    assert printed == [str(tmp_path / "run" / "out" / "l-svrg_ridge_seed0.csv")]
    sidecar = json.loads(Path(printed[0]).with_suffix(".json").read_text())
    trace = read_trace(printed[0])
    # the rows before the first non-finite checkpoint are kept
    assert trace and trace[-1]["k"] < sidecar["diverged_at_k"]
    assert all(row["epoch"] < 5.0 for row in trace)
    # the overflowing metrics stop the run without an inf row or a numpy warning
    assert sidecar["diverged_at_k"] == 50 and [row["k"] for row in trace] == [0]


def test_diverging_sweep_writes_every_run_then_exits_with_divergence_code(tmp_path,
                                                                          monkeypatch):
    stems = [f"{alg}_ridge_seed0_loop{m}" for alg in ("l-svrg", "svrg") for m in (2, 5)]
    printed = check(Exit(["sweep-p", *_CONFIG, "--grid", "2,5",
                          *_OUT], 5, "...", _HUGE_X0, tree=_runs(stems)), tmp_path, monkeypatch)
    assert len(printed) == 4
    for csv_path in printed:
        sidecar = json.loads(Path(csv_path).with_suffix(".json").read_text())
        # the initial distance already overflows: no row is finite
        assert sidecar["diverged_at_k"] == 0
        assert read_trace(csv_path) == []


def test_diverging_compare_all_writes_every_run_then_exits_without_a_summary(tmp_path,
                                                                             monkeypatch):
    stems = [f"{alg}_ridge_seed{seed}" for alg in ALGORITHMS for seed in (0, 1)]
    printed = check(Exit(["compare-all", *_CONFIG, "--seeds", "0,1",
                          *_OUT], 5, "...", _HUGE_X0, tree=_runs(stems)), tmp_path, monkeypatch)
    assert sorted(Path(p).name for p in printed) == sorted(f"{stem}.csv" for stem in stems)
    for csv_path in printed:
        sidecar = json.loads(Path(csv_path).with_suffix(".json").read_text())
        assert sidecar["diverged_at_k"] == 0


@pytest.mark.parametrize("alg", ["svrg", "l-svrg", "katyusha", "l-katyusha"])
def test_a_file_with_no_features_runs_as_its_lanes_do(tmp_path, monkeypatch, alg):
    """A LIBSVM file of bare labels has d = 0.  A lone run sizes its tables
    of corrections by d, and still exits 0 with the trace that the same run
    gives as a lane of a three-run batch."""
    problem = ["--data", "{tmp}/in/bare.txt", "--loss", "logistic", "--mu", "1", "--epochs", "2",
               *_OUT]
    lone, = check(Exit(["run", *problem, "--alg", alg], 0, inputs={"bare.txt": "1\n-1\n"}),
                  tmp_path / "run", monkeypatch)
    check(Exit(["compare-all", *problem, "--algs", alg, "--seeds", "0,1,2"], 0,
               inputs={"bare.txt": "1\n-1\n"}), tmp_path / "lanes", monkeypatch)
    lanes = tmp_path / "lanes" / "run" / "out" / Path(lone).name
    assert len(read_lines(lone)) > 2
    assert strip_wall(read_lines(lone)) == strip_wall(read_lines(lanes))


def test_run_success(tmp_path, capsys):
    code = run_cli(
        "run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--alg", "l-svrg", "--epochs", "3",
        "--seed", "7", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("l-svrg_ridge_seed7.csv")
    sidecar = json.loads((tmp_path / "l-svrg_ridge_seed7.json").read_text())
    assert sidecar["seed"] == 7
    assert sidecar["params"]["p"] == 0.1


def test_run_explicit_params_override_every_preset_value(tmp_path):
    code = run_cli(
        "run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--alg", "l-svrg", "--eta", "0.01", "--p", "0.5",
        "--epochs", "2", "--out", str(tmp_path),
    )
    assert code == EXIT_OK
    sidecar = json.loads((tmp_path / "l-svrg_ridge_seed0.json").read_text())
    assert sidecar["params"] == {"eta": 0.01, "p": 0.5}


@pytest.mark.parametrize("alg, p", [("l-svrg", 0.01), ("l-katyusha", 0.5)])
def test_run_partial_explicit_params_keep_the_other_preset_values(tmp_path, alg, p):
    problem = ["--synthetic", "12,4,25", "--loss", "ridge", "--mu", "1", "--alg", alg,
               "--epochs", "2", "--diagnostics", "lyapunov"]
    assert run_cli("run", *problem, "--p", str(p), "--out", str(tmp_path / "p")) == EXIT_OK
    assert run_cli("run", *problem, "--out", str(tmp_path / "preset")) == EXIT_OK
    stem = f"{alg}_ridge_seed0"
    preset = json.loads((tmp_path / "preset" / f"{stem}.json").read_text())["params"]
    assert preset["p"] != p
    assert json.loads((tmp_path / "p" / f"{stem}.json").read_text())["params"] == {
        **preset, "p": p}
    # the preset's values passed explicitly write the preset run's files
    flags = [f"--{name.replace('_', '-')}={value!r}" for name, value in preset.items()]
    assert run_cli("run", *problem, *flags, "--out", str(tmp_path / "explicit")) == EXIT_OK
    assert ((tmp_path / "explicit" / f"{stem}.json").read_bytes()
            == (tmp_path / "preset" / f"{stem}.json").read_bytes())
    assert (strip_wall(read_lines(tmp_path / "explicit" / f"{stem}.csv"))
            == strip_wall(read_lines(tmp_path / "preset" / f"{stem}.csv")))


def test_run_twice_identical_modulo_wall(tmp_path):
    argv = (
        "run", "--synthetic", "10,4,25", "--loss", "ridge", "--mu", "1.0",
        "--alg", "l-katyusha", "--epochs", "4",
        "--seed", "3", "--diagnostics", "lyapunov",
    )
    assert run_cli(*argv, "--out", str(tmp_path / "a")) == EXIT_OK
    assert run_cli(*argv, "--out", str(tmp_path / "b")) == EXIT_OK
    a = read_lines(tmp_path / "a" / "l-katyusha_ridge_seed3.csv")
    b = read_lines(tmp_path / "b" / "l-katyusha_ridge_seed3.csv")
    assert strip_wall(a) == strip_wall(b)
    assert a[0].split(",")[-1] == "wall_ns"


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


def test_a_loop_length_past_int64_runs(tmp_path):
    huge = str(10**20)
    problem = ["--synthetic", "20,4,100", "--loss", "ridge", "--mu", "1", "--epochs", "2"]
    assert run_cli("sweep-p", *problem, "--grid", f"5,{huge}",
                   "--out", str(tmp_path / "sweep")) == EXIT_OK
    assert (tmp_path / "sweep" / f"svrg_ridge_seed0_loop{huge}.csv").exists()
    assert run_cli("run", *problem, "--alg", "svrg", "--m", huge,
                   "--out", str(tmp_path / "run")) == EXIT_OK


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


def test_config_synthetic_is_converted_after_its_type_check(tmp_path):
    config = {"algorithm": "l-svrg", "synthetic": [30, 5, 10], "loss": "ridge",
              "mu": 1.0, "epochs": 1.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path)) == EXIT_OK
    sidecar = json.loads((tmp_path / "l-svrg_ridge_seed0.json").read_text())
    assert sidecar["dataset"] == "synthetic(30, 5, 10.0)"


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
