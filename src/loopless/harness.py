"""Experiment runner: configs, trace CSVs with JSON sidecars, sweeps.

Traces are written one CSV per run (RFC-4180, fixed column order per config)
plus a sidecar JSON holding every resolved parameter, so each curve is fully
reproducible from its sidecar.  The epoch column counts oracle work in units
of n stochastic gradients; the distance column tracks x for the SVRG family
and gradient descent, y for the Katyusha family.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import os
import sys
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import diagnostics
from .data import load_libsvm, normalize_rows, synthesize_quadratic
# compute_phi, compute_psi and verify_lemma_bounds are not called here, but
# perfbench/tracer.py patches them here too (ROADMAP item 14)
from .diagnostics import ReferenceSolution, compute_phi, compute_psi, verify_lemma_bounds
from .oracle import LOSSES, Oracle, make_oracle
from .optimizers import ALGORITHMS, all_param_types, check_budget, run, run_lanes
from .rng import SplitMix64


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class DataError(RuntimeError):
    """Input could not be read or parsed, or output written (CLI exit code 3)."""


class DivergenceError(RuntimeError):
    """A run's tracked point or metrics stopped being finite (CLI exit code
    5).  Raised after every trace and sidecar is written: each trace keeps
    its rows up to the last finite checkpoint, and each sidecar records
    diverged_at_k."""

    def __init__(self, message: str, paths: list[Path]):
        super().__init__(message)
        self.paths = paths


_DIAGNOSTIC_LEVELS = ("none", "distance", "lyapunov", "lemmas")


@dataclass
class RunConfig:
    """Everything one run needs; see README for the CLI flag mapping."""

    algorithm: str
    dataset_path: str | None = None
    synthetic: tuple[int, int, float] | None = None  # (n, d, condition number)
    loss: str = "logistic"
    mu: float = 0.1
    params: dict = field(default_factory=dict)  # explicit values, or empty
    preset: str | None = "theory"
    epochs: float = 20.0
    checkpoint_every: float = 1.0
    seed: int = 0
    data_seed: int = 0  # synthetic instances depend on this, not on seed
    diagnostics: str = "distance"
    normalize: bool = False
    x0: list | None = None
    tag: str = ""
    ref_tolerance: float | None = None
    ref_max_epochs: int = 100_000

    def validate(self):
        for name, (check, type_name) in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if not check(value):
                raise ConfigError(f"{name} must be {type_name}, got {value!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{sorted(ALGORITHMS)}"
            )
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ConfigError("exactly one of dataset_path or synthetic is required")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        for name in ("mu", "epochs", "checkpoint_every", "ref_tolerance"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:  # NaN fails too
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        try:
            check_budget(self.epochs, self.checkpoint_every)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.ref_max_epochs < 0:
            raise ConfigError(f"ref_max_epochs must be >= 0, got {self.ref_max_epochs}")
        if self.x0 is not None and not all(
                _is_float(v) and math.isfinite(v) for v in self.x0):
            raise ConfigError(f"x0={self.x0!r} is not a list of finite numbers")
        if self.diagnostics not in _DIAGNOSTIC_LEVELS:
            raise ConfigError(
                f"unknown diagnostics level {self.diagnostics!r}; "
                f"expected one of {_DIAGNOSTIC_LEVELS}"
            )
        if (self.diagnostics in ("lyapunov", "lemmas")
                and not ALGORITHMS[self.algorithm].potential):
            raise ConfigError("Lyapunov diagnostics are defined only for the "
                              f"SVRG/Katyusha families, not {self.algorithm}")
        if self.preset is None and not self.params:
            raise ConfigError("either a preset or explicit params are required")
        if self.preset is not None and self.preset != "theory":
            raise ConfigError(f"unknown preset {self.preset!r}")
        unknown = set(self.params) - set(all_param_types())
        if unknown:
            raise ConfigError(f"unknown params {sorted(unknown)}")
        # the run writes <run_id>.csv and <run_id>.json: each one file name
        run_id = self.run_id()
        if "/" in run_id or "\0" in run_id:
            raise ConfigError(f"run id {run_id!r} holds '/' or NUL, so it is not "
                              "a file name (check tag)")
        if len(os.fsencode(run_id + ".json")) > 255:
            raise ConfigError(f"run id {run_id[:40]}... is too long: <run_id>.json "
                              "passes 255 bytes (check seed and tag)")
        return self

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        payload = dict(payload)
        synthetic = payload.get("synthetic")
        if synthetic is not None:
            # the raw entries are type-checked, then converted
            if not _FIELD_CHECKS["synthetic"][0](synthetic):
                raise ConfigError(f"synthetic={synthetic!r} is not [n, d, kappa]")
            n, d, kappa = synthetic
            payload["synthetic"] = (int(n), int(d), float(kappa))
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - fields
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        return cls(**payload)

    def run_id(self) -> str:
        parts = [self.algorithm, self.loss, f"seed{self.seed}"]
        if self.tag:
            parts.append(self.tag)
        return "_".join(parts)


def _is_float(value) -> bool:
    """Whether float() converts value as a config number: a bool is not one
    (JSON true is not a number), nor an int past float64's range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (isinstance(value, int) and abs(value) > sys.float_info.max))


def _type_check(hint):
    """The predicate "value has the annotated type hint", resolved from the
    hint once: unions try each member, a tuple checks its arity and each
    entry, a float is _is_float, an int any integer but a bool, and any other
    class an isinstance test."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        checks = tuple(map(_type_check, args))
        return lambda value: any(check(value) for check in checks)
    if origin is tuple:
        checks = tuple(map(_type_check, args))
        return lambda value: (isinstance(value, (tuple, list)) and len(value) == len(checks)
                              and all(check(v) for check, v in zip(checks, value)))
    if hint is float:
        return _is_float
    if hint is int:
        return lambda value: isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return lambda value: isinstance(value, origin or hint)


def _type_name(hint) -> str:
    return str(hint) if typing.get_args(hint) else hint.__name__


# each field's type check and the name its error gives, resolved once at import
_FIELD_CHECKS = {name: (_type_check(hint), _type_name(hint))
                 for name, hint in typing.get_type_hints(RunConfig).items()}


def build_problem(config: RunConfig) -> tuple[Oracle, np.ndarray | None]:
    """Load or synthesize the dataset and construct the oracle.

    Returns the oracle and, for synthetic ridge instances (generated at the
    run's mu), the closed-form minimizer (where the reference solve starts).
    """
    minimizer = None
    if config.dataset_path is not None:
        try:
            dataset = load_libsvm(config.dataset_path)
        except OSError as exc:
            raise DataError(f"cannot read {config.dataset_path}: {exc}") from exc
        except ValueError as exc:
            raise DataError(f"cannot parse {config.dataset_path}: {exc}") from exc
    else:
        n, d, kappa = config.synthetic
        try:
            dataset, x_star = synthesize_quadratic(
                n, d, kappa, seed=config.data_seed, mu=config.mu
            )
        except ValueError as exc:
            raise ConfigError(f"synthetic={config.synthetic}: {exc}") from None
        if config.loss == "ridge" and not config.normalize:
            minimizer = x_star
    try:
        if config.normalize:
            dataset = normalize_rows(dataset)
        oracle = make_oracle(dataset, config.loss, config.mu)
    except ValueError as exc:  # the config checks loss and mu: a row norm left float64
        if config.dataset_path is None:
            raise ConfigError(f"synthetic={config.synthetic}: {exc}") from None
        raise DataError(f"cannot use {config.dataset_path}: {exc}") from None
    return oracle, minimizer


def resolve_params(config: RunConfig, oracle: Oracle) -> dict:
    """Merge the preset with explicit overrides into constructor kwargs,
    in constructor order and converted to the constructor's types."""
    cls = ALGORITHMS[config.algorithm]
    params = cls.theory_params(oracle) if config.preset else {}
    for name in params.keys() - config.params.keys():
        # e.g. eta = 1 / (6 L) is 0 once 6 L overflows, at L near float64's edge
        if not 0.0 < params[name] < math.inf:
            instance = (f"synthetic={config.synthetic}" if config.dataset_path is None
                        else config.dataset_path)
            raise ConfigError(f"{instance}: theory preset gives {name} = "
                              f"{params[name]} at L = {oracle.L}")
    params.update(config.params)
    types = cls.param_types
    missing = set(types) - set(params)
    if missing:
        raise ConfigError(
            f"{config.algorithm} needs params {sorted(missing)} "
            "(pass them explicitly or use --preset theory)"
        )
    extra = set(params) - set(types)
    if extra:
        raise ConfigError(f"params {sorted(extra)} do not apply to {config.algorithm}")
    for name, kind in types.items():
        if not _type_check(kind)(params[name]):  # as every other field is checked
            raise ConfigError(f"param {name}={params[name]!r} is not a valid {kind.__name__}")
    resolved = {name: kind(params[name]) for name, kind in types.items()}
    # the psi potential's coefficient theta2 (1 + theta1) / (p theta1)
    if (config.diagnostics in ("lyapunov", "lemmas") and "p" in resolved
            and "theta1" in resolved and resolved["p"] * resolved["theta1"] == 0.0):
        raise ConfigError(f"p * theta1 underflows to 0 at p = {resolved['p']}, "
                          f"theta1 = {resolved['theta1']}: the psi potential divides by it")
    # the estimator_second_moment bound's coefficient p / (2 eta^2); eta * eta,
    # since a Python float ** raises where it overflows
    if (config.diagnostics == "lemmas" and "eta" in resolved
            and resolved["eta"] * resolved["eta"] == 0.0):
        raise ConfigError(f"eta^2 underflows to 0 at eta = {resolved['eta']}: "
                          "the estimator_second_moment bound divides by it")
    # checked before the reference solve, not at the first checkpoint
    if (config.diagnostics == "lemmas" and oracle.n > diagnostics.ENUMERATION_GUARD
            and diagnostics.enumerates(cls, oracle)):
        raise ConfigError(f"lemma diagnostics enumerate all n samples: n = {oracle.n} "
                          f"is past the limit n <= {diagnostics.ENUMERATION_GUARD}")
    return resolved


def build_reference(config: RunConfig, oracle: Oracle, minimizer,
                    out_dir: Path) -> ReferenceSolution | None:
    if config.diagnostics == "none":
        return None
    return _reference(config, oracle, minimizer, out_dir)


def _reference(config: RunConfig, oracle: Oracle, minimizer, out_dir: Path) -> ReferenceSolution:
    """A certified solve, from the closed-form minimizer when there is one.
    A failed solve leaves the record of its best point in out_dir."""
    try:
        return diagnostics.solve_reference(
            oracle, tolerance=config.ref_tolerance, max_epochs=config.ref_max_epochs,
            x0=minimizer,
        )
    except diagnostics.ReferenceSolveError as exc:
        _write_reference(exc.best, config, oracle, out_dir)
        raise


def _reference_record(ref: ReferenceSolution) -> dict:
    """The record of a reference solve, certified or failed."""
    return {"grad_norm": ref.grad_norm, "f_star": ref.f_star,
            "tolerance": ref.tolerance, "epochs": ref.epochs}


def _write_reference(ref: ReferenceSolution, config: RunConfig, oracle: Oracle, out_dir):
    """Write the record, with the n, d, L and mu of the problem, as <stem>.json."""
    with open(out_dir / f"{_reference_stem(config)}.json", "w", encoding="utf-8") as fh:
        json.dump({**_reference_record(ref), "n": oracle.n, "d": oracle.d, "L": oracle.L,
                   "mu": oracle.mu}, fh, indent=2)
        fh.write("\n")


def make_optimizer(config: RunConfig, oracle: Oracle, params: dict):
    x0 = np.zeros(oracle.d) if config.x0 is None else np.asarray(config.x0, float)
    if x0.shape != (oracle.d,):
        raise ConfigError(f"x0 has shape {x0.shape}, expected ({oracle.d},)")
    try:
        return ALGORITHMS[config.algorithm](oracle, x0, **params)
    except ValueError as exc:  # a parameter out of range, e.g. eta <= 0 or p > 1
        raise ConfigError(str(exc)) from None


def build_metrics(config: RunConfig, oracle: Oracle, ref: ReferenceSolution | None):
    """The diagnostics columns of an optimizer's trace row (trace_columns),
    as a function of the optimizer: one diagnostics report per checkpoint."""
    level = config.diagnostics
    return lambda opt: diagnostics.report(opt, ref, oracle, level)


def trace_columns(config: RunConfig) -> list[str]:
    cls = ALGORITHMS[config.algorithm]
    cols = ["k", "oracle_calls", "epoch"]
    if config.diagnostics != "none":
        cols += ["dist_sq", "f_gap"]
    if config.diagnostics in ("lyapunov", "lemmas"):
        cols += cls.potential
    if config.diagnostics == "lemmas":
        cols += [f"slack_{name}" for name in cls.lemmas]
    cols.append("wall_ns")
    return cols


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # plain-float repr is the shortest exact round-trip form (and avoids
        # the np.float64(...) wrapper for numpy scalars)
        return repr(float(value))
    return str(value)


@contextlib.contextmanager
def _output_dir(path):
    """Make the output directory path and yield it as a Path, for a block
    that makes outputs in it; an OSError becomes a DataError naming path.
    The directory is made before the block's work, so an unwritable path
    fails first."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
        yield path
    except OSError as exc:
        raise DataError(f"cannot write to {path}: {exc}") from None


def write_trace(records: list[dict], columns: list[str], path: Path):
    """One CSV row per {column: value} record; a column it lacks is blank."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec.get(col)) for col in columns])


def run_experiment(config: RunConfig, out_dir) -> Path:
    """Execute one configured run; write <run_id>.csv and <run_id>.json.

    Returns the CSV path.  The sidecar carries every resolved parameter
    (step sizes, probabilities, L, mu, kappa, predicted contraction rate,
    reference quality) exactly as used, so traces are reproducible.  Raises
    DivergenceError, after writing both files, if the run diverged.
    """
    config.validate()
    oracle, minimizer = build_problem(config)
    paths, _ = _run_batch([config], oracle, minimizer, out_dir)
    return paths[0]


def _repeated(values) -> list:
    """The values of a list or tuple listed more than once, sorted."""
    return sorted({v for v in values if values.count(v) > 1})


def _run_batch(configs: list[RunConfig], oracle: Oracle, minimizer,
               out_dir) -> tuple[list[Path], list[list[dict]]]:
    """Run validated configs that share one problem (oracle, minimizer) and
    one epoch budget, building the reference once; write each run's trace
    and sidecar, and return the CSV paths and the records in config order.

    The runs of one family (SVRG or Katyusha) go through run_lanes as one
    batch when there are at least three of them (a lane's trace is run's:
    bitwise on dense ridge data, its floats to rounding otherwise; the rule's
    measurements are at it, below), every other run through run.  Raises
    ConfigError before any run if two runs would write the same files, and
    DivergenceError, after writing every run, if any diverged."""
    if not configs:
        raise ConfigError("empty batch: no seed, algorithm or loop length to run")
    shared = _repeated([config.run_id() for config in configs])
    if shared:
        raise ConfigError(f"runs {shared} would share one trace file; "
                          "list each seed and algorithm once")
    resolved = [resolve_params(config, oracle) for config in configs]
    # overflow at a huge x0 is reported once, as divergence at k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        optimizers = [make_optimizer(c, oracle, p) for c, p in zip(configs, resolved)]
    with _output_dir(out_dir) as out_dir:
        ref = build_reference(configs[0], oracle, minimizer, out_dir)
        metrics = [build_metrics(config, oracle, ref) for config in configs]
        epochs, every = configs[0].epochs, configs[0].checkpoint_every
        families: dict = {}  # a family's lane_state -> its runs
        for s, opt in enumerate(optimizers):
            families.setdefault(getattr(opt, "lane_state", None), []).append(s)
        by_run = {}
        # Three runs of a family make lanes, on any storage.  On CSR data they
        # pay from there: L-SVRG and L-Katyusha at theory presets on
        # a9a_like(32561, 123, 14, seed=1) logistic, mu = 1e-3, 1.5 epochs, a
        # checkpoint every 0.25, no diagnostics, least of 6 rounds in one
        # process, one core of a 2-vCPU VM; seconds one by one / as lanes:
        #
        #     runs   L-SVRG          L-Katyusha
        #      1     0.062 / 0.122   0.097 / 0.161
        #      2     0.118 / 0.131   0.186 / 0.172
        #      3     0.179 / 0.149   0.285 / 0.204
        #      4     0.242 / 0.162   0.379 / 0.205
        #      5     0.307 / 0.181   0.531 / 0.254
        #     10     0.573 / 0.252   0.896 / 0.323
        #
        # On the dense criterion-7 instance (100 x 20, kappa = 1e5, 150
        # epochs, L-SVRG) two lanes took 0.037 s against 0.040 s, and ten
        # 0.050 s against 0.211 s.  The rule stays at three: moving it would
        # change which driver a batch takes, and so its traces' last bits
        # on logistic or CSR data.  CHANGES.md records how the crossover moved.
        for family, lanes in families.items():
            if family is not None and len(lanes) >= 3:
                by_run.update(zip(lanes, run_lanes(
                    [optimizers[s] for s in lanes],
                    [SplitMix64(configs[s].seed) for s in lanes], epochs=epochs,
                    checkpoint_every=every, metrics=[metrics[s] for s in lanes])))
        for s, config in enumerate(configs):
            if s not in by_run:
                by_run[s] = run(optimizers[s], SplitMix64(config.seed), epochs=epochs,
                                checkpoint_every=every, metrics=metrics[s])
        traces = [by_run[s] for s in range(len(configs))]
        paths = [write_run(c, p, opt, ref, records, out_dir)
                 for c, p, opt, records in zip(configs, resolved, optimizers, traces)]
    diverged = [f"{config.run_id()} at k={opt.k}"
                for config, opt in zip(configs, optimizers)
                if opt.diverged_at is not None]
    if diverged:
        raise DivergenceError(
            f"diverged: {', '.join(diverged)}; each trace stops at its last "
            "finite checkpoint",
            paths,
        )
    return paths, traces


def write_run(config: RunConfig, params: dict, optimizer, ref: ReferenceSolution | None,
              records: list[dict], out_dir) -> Path:
    """Write one run's <run_id>.csv and <run_id>.json; returns the CSV path."""
    csv_path = out_dir / f"{config.run_id()}.csv"
    write_trace(records, trace_columns(config), csv_path)

    oracle = optimizer.oracle
    sidecar = {
        "run_id": config.run_id(),
        "algorithm": config.algorithm,
        "loss": config.loss,
        "mu": oracle.mu,
        "L": oracle.L,
        "kappa": oracle.L / oracle.mu,
        "n": oracle.n,
        "d": oracle.d,
        "seed": config.seed,
        "epochs": config.epochs,
        "checkpoint_every": config.checkpoint_every,
        "diagnostics": config.diagnostics,
        "params": params,
        "dataset": config.dataset_path or f"synthetic{config.synthetic}",
        "normalize": config.normalize,
        "x0": "origin" if config.x0 is None else list(map(float, config.x0)),
    }
    sidecar.update(optimizer.theory_facts())
    if ref is not None:
        sidecar["reference"] = _reference_record(ref)
    sidecar["diverged_at_k"] = optimizer.diverged_at
    with open(out_dir / f"{config.run_id()}.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    return csv_path


def normalize_grid(values) -> list[int]:
    """Round loop lengths to integers and deduplicate preserving order;
    ConfigError when one rounds below 1."""
    out: list[int] = []
    for value in values:
        ell = int(round(value))
        if ell < 1:
            raise ConfigError(f"grid loop length {value:.3g} rounds below 1")
        if ell not in out:
            out.append(ell)
    return out


def probability_grid(n: int, kappa: float) -> list[int]:
    """The five loop lengths n, (k n^3)^(1/4), (k n)^(1/2), (k^3 n)^(1/4), k,
    log-uniform between n and kappa.  ConfigError when one overflows float64."""
    try:
        return normalize_grid(
            [
                float(n),
                (kappa * n**3) ** 0.25,
                (kappa * n) ** 0.5,
                (kappa**3 * n) ** 0.25,
                float(kappa),
            ]
        )
    except OverflowError:  # kappa**3 raises; an infinite length fails int()
        raise ConfigError(f"kappa = {kappa} is too large for the default loop-length "
                          "grid (a length overflows float64); pass --grid") from None


def sweep_p(base_config: RunConfig, out_dir, grid: list[int] | None = None) -> list[Path]:
    """Figure-3 protocol: L-SVRG with p = 1/l and loopy SVRG with m = l for
    every loop length l in the grid (default: the five-point kappa grid),
    each at its theory preset otherwise.

    One batch on one problem (see _run_batch): each run's trace and sidecar
    are those run_experiment writes for its config (bitwise on dense ridge
    data, its floats to rounding otherwise).
    Raises DivergenceError, after writing every run, if any diverged.
    """
    _check_batch_base(base_config, "sweep-p")
    oracle, minimizer = build_problem(base_config)
    if grid is None:
        grid = probability_grid(oracle.n, oracle.L / oracle.mu)
    else:
        grid = normalize_grid(grid)
    configs = [replace(base_config, algorithm=algorithm, preset="theory",
                       params=ALGORITHMS[algorithm].loop_params(ell),
                       tag=f"loop{ell}").validate()
               for ell in grid for algorithm in ("l-svrg", "svrg")]
    return _run_batch(configs, oracle, minimizer, out_dir)[0]


def _check_batch_base(base_config: RunConfig, command: str):
    """A batch command sets each run's params, so its base carries none."""
    base_config.validate()
    if base_config.params:
        raise ConfigError(f"{command} sets every run's params itself; remove "
                          f"params {sorted(base_config.params)} from the config")


def epochs_to_threshold(records_or_rows, threshold: float) -> float:
    """First checkpoint epoch with dist_sq <= threshold, or inf."""
    for epoch, dist_sq in records_or_rows:
        if dist_sq is not None and dist_sq <= threshold:
            return epoch
    return float("inf")


def compare_all(
    base_config: RunConfig,
    out_dir,
    seeds: list[int],
    algorithms: list[str] | None = None,
    thresholds: tuple[float, ...] = (1e-4, 1e-8),
) -> Path:
    """Run every algorithm at its theory preset over a shared seed set, as
    one batch on one problem (see _run_batch), and summarize
    epochs-to-threshold (on dist_sq) per (algorithm, seed, threshold) in
    summary.csv.  Raises DivergenceError, after writing every run and before
    the summary, if any diverged."""
    _check_batch_base(base_config, "compare-all")
    if base_config.diagnostics == "none":
        raise ConfigError("compare-all needs distance diagnostics to measure thresholds")
    if not thresholds or not all(0 < t < math.inf for t in thresholds):
        raise ConfigError(f"need thresholds, each positive and finite; got {list(thresholds)}")
    if _repeated(thresholds):
        raise ConfigError(f"thresholds {_repeated(thresholds)} would write the same summary "
                          "rows twice; list each threshold once")
    configs = [replace(base_config, algorithm=alg, preset="theory", seed=seed).validate()
               for alg in (ALGORITHMS if algorithms is None else algorithms) for seed in seeds]
    oracle, minimizer = build_problem(base_config)
    _, traces = _run_batch(configs, oracle, minimizer, out_dir)

    rows = []
    for config, records in zip(configs, traces):
        pairs = [(rec["epoch"], rec["dist_sq"]) for rec in records]
        rows += [{"algorithm": config.algorithm, "seed": config.seed, "threshold": threshold,
                  "epochs_to_threshold": epochs_to_threshold(pairs, threshold)}
                 for threshold in thresholds]
    with _output_dir(out_dir) as out_dir:
        summary_path = out_dir / "summary.csv"
        write_trace(rows, ["algorithm", "seed", "threshold", "epochs_to_threshold"],
                    summary_path)
    return summary_path


def read_trace(path) -> list[dict]:
    """Load a trace CSV back into a list of {column: float|int|None} dicts."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header, rows = reader.fieldnames, list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty trace file")
    out = []
    for line, row in enumerate(rows, start=2):
        parsed = {}
        for key, value in row.items():
            if value == "" or value is None:
                parsed[key] = None
                continue
            try:
                parsed[key] = (int if key in ("k", "oracle_calls", "wall_ns")
                               else float)(value)
            except (TypeError, ValueError):  # TypeError: a surplus cell
                raise DataError(f"{path}: {key}={value!r} on line {line} "
                                "is not a number") from None
        out.append(parsed)
    return out


_CORE_COLUMNS = {"k", "oracle_calls", "epoch", "wall_ns"}


def emit_plotdata(trace_paths, out_path, metrics: list[str] | None = None) -> Path:
    """Concatenate traces into one long-format CSV
    (run_id, algorithm, epoch, metric, value) for external plotting tools.

    Each trace needs its JSON sidecar next to it.  metrics=None takes every
    non-core column; an explicitly empty selection is an error.
    """
    trace_paths = [Path(p) for p in trace_paths]
    if not trace_paths:
        raise ConfigError("plotdata needs at least one trace file")
    if metrics is not None and not metrics:
        raise ConfigError("empty metric selection")
    if metrics is not None and _repeated(metrics):
        raise ConfigError(f"metrics {_repeated(metrics)} would write every row twice; "
                          "list each metric once")

    rows = []
    shared_schema: set[str] | None = None
    for path in trace_paths:
        sidecar_path = path.with_suffix(".json")
        if not sidecar_path.exists():
            raise DataError(f"missing sidecar {sidecar_path}")
        try:
            with open(sidecar_path, "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            run_id, algorithm = sidecar["run_id"], sidecar["algorithm"]
        except (OSError, ValueError, TypeError, KeyError) as exc:  # ValueError: not JSON
            raise DataError(f"cannot read {sidecar_path} as a run sidecar: {exc!r}") from None
        trace = read_trace(path)
        if not trace:
            raise DataError(f"{path}: no records")
        available = [c for c in trace[0] if c not in _CORE_COLUMNS]
        if metrics is None:
            if shared_schema is None:
                shared_schema = set(available)
            elif shared_schema != set(available):
                raise DataError(
                    f"{path}: schema mismatch, columns {sorted(available)} vs "
                    f"{sorted(shared_schema)}"
                )
        wanted = metrics if metrics is not None else available
        missing = set(wanted) - set(trace[0])
        if missing:
            raise DataError(f"{path}: missing metric columns {sorted(missing)}")
        for record in trace:
            for metric in wanted:
                if record[metric] is None:
                    continue
                rows.append({"run_id": run_id, "algorithm": algorithm,
                             "epoch": record["epoch"], "metric": metric,
                             "value": record[metric]})

    out_path = Path(out_path)
    with _output_dir(out_path.parent):
        write_trace(rows, ["run_id", "algorithm", "epoch", "metric", "value"], out_path)
    return out_path


def _reference_stem(config: RunConfig) -> str:
    """<source>_<loss>_mu<mu>_ref, where the source names the data a
    reference solves: the file's stem, or the synthetic shape and data seed
    (the optimizer seed does not change the problem)."""
    if config.synthetic is not None:
        n, d, kappa = config.synthetic
        source = f"synthetic{n}x{d}k{kappa:g}_data{config.data_seed}"
    else:
        source = Path(config.dataset_path).stem
    if config.normalize:
        source += "_normalized"
    return f"{source}_{config.loss}_mu{config.mu}_ref"


def solve_reference_cli(config: RunConfig, out_dir) -> Path:
    """Standalone reference solve; writes <stem>.npz (see _reference_stem)
    and its record as <stem>.json beside it (only the record if it fails)."""
    config.validate()
    oracle, minimizer = build_problem(config)
    with _output_dir(out_dir) as out_dir:
        ref = _reference(config, oracle, minimizer, out_dir)
        npz_path = out_dir / f"{_reference_stem(config)}.npz"
        np.savez(npz_path, x_star=ref.x_star, f_star=ref.f_star, grad_norm=ref.grad_norm)
        _write_reference(ref, config, oracle, out_dir)
    return npz_path
