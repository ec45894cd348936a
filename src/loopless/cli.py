"""Command-line experiment runner.

Subcommands and the flags each reads:
  run          problem and budget flags, --alg, --preset, the parameter flags
               (--eta --p --m --theta1 --theta2 --step-size), --seed, --tag
  sweep-p      problem and budget flags, --seed, --grid
  compare-all  problem and budget flags, --tag, --seeds, --algs, --thresholds
  plotdata     trace files, --metrics, --out
  solve-ref    problem flags
Problem flags: --data or --synthetic, --loss, --mu, --normalize, --data-seed,
--ref-tolerance, --ref-max-epochs, --config, --out.  Budget flags: --epochs,
--checkpoint-every, --diagnostics.  Flags are spelled in full.
Exit codes: 0 success, 2 invalid configuration (Katyusha-family lemma
diagnostics on logistic data or CSR ridge rows past
diagnostics.ENUMERATION_GUARD samples included), 3 data error,
4 reference solve failure, 5 divergence (a run's iterate or its metrics
stopped being finite; its trace and sidecar are still written, see the
README).
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagnostics import ReferenceSolveError
from .harness import (
    _DIAGNOSTIC_LEVELS,
    ConfigError,
    DataError,
    DivergenceError,
    RunConfig,
    compare_all,
    emit_plotdata,
    run_experiment,
    solve_reference_cli,
    sweep_p,
)
from .optimizers import ALGORITHMS, all_param_types
from .oracle import LOSSES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_REFERENCE = 4
EXIT_DIVERGED = 5


def _parse_synthetic(text: str) -> tuple[int, int, float]:
    try:
        n, d, kappa = text.split(",")
        return int(n), int(d), float(kappa)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected n,d,kappa (e.g. 100,20,100), got {text!r}"
        )


def _comma_list(convert, what: str):
    """argparse type for a comma-separated list, e.g. _comma_list(int, "seeds")."""

    def parse(text: str) -> list:
        try:
            return [convert(s) for s in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}"
            )

    return parse


def _add_problem_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--data", help="LIBSVM file path")
    parser.add_argument(
        "--synthetic",
        type=_parse_synthetic,
        metavar="N,D,KAPPA",
        help="synthetic ridge instance (seeded by --data-seed)",
    )
    parser.add_argument("--loss", choices=LOSSES)
    parser.add_argument("--mu", type=float, help="regularization weight (> 0)")
    parser.add_argument("--normalize", action="store_true", default=None,
                        help="scale rows to unit Euclidean norm before training")
    parser.add_argument("--data-seed", type=int, dest="data_seed",
                        help="seed for synthetic instance generation")
    parser.add_argument("--ref-tolerance", type=float, dest="ref_tolerance")
    parser.add_argument("--ref-max-epochs", type=int, dest="ref_max_epochs")
    parser.add_argument("--config", help="JSON file with RunConfig fields "
                        "(explicit flags override it)")
    parser.add_argument("--out", default="traces", help="output directory")


def _add_budget_flags(parser: argparse.ArgumentParser):
    """Flags that run, sweep-p and compare-all all read."""
    parser.add_argument("--epochs", type=float)
    parser.add_argument("--checkpoint-every", type=float, dest="checkpoint_every")
    parser.add_argument("--diagnostics", choices=_DIAGNOSTIC_LEVELS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopless",
        description="Loopless variance-reduced optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one algorithm, one trace file")
    _add_problem_flags(run_p)
    _add_budget_flags(run_p)
    # the batch commands choose each run's algorithm and params themselves
    run_p.add_argument("--alg", choices=ALGORITHMS)
    run_p.add_argument("--preset", choices=("theory",))
    for name, kind in all_param_types().items():
        run_p.add_argument("--" + name.replace("_", "-"), type=kind, dest=name)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--tag", help="suffix for the trace file name")

    sweep = sub.add_parser(
        "sweep-p", help="L-SVRG vs loopy SVRG over the five-point loop-length grid"
    )
    _add_problem_flags(sweep)
    _add_budget_flags(sweep)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--grid", type=_comma_list(int, "loop lengths"),
                       help="comma-separated loop lengths overriding "
                       "the default kappa grid")

    comp = sub.add_parser(
        "compare-all", help="all algorithms at theory presets over a seed set"
    )
    _add_problem_flags(comp)
    _add_budget_flags(comp)
    comp.add_argument("--tag", help="suffix for the trace file names")
    comp.add_argument("--seeds", type=_comma_list(int, "seeds"), default=[0],
                      metavar="S0,S1,...")
    comp.add_argument("--algs", help="comma-separated algorithm subset")
    comp.add_argument("--thresholds", type=_comma_list(float, "thresholds"),
                      default="1e-4,1e-8",
                      help="comma-separated dist_sq thresholds")

    plot = sub.add_parser("plotdata", help="merge traces into long-format CSV")
    plot.add_argument("traces", nargs="+", help="trace CSV files")
    plot.add_argument("--metrics", help="comma-separated metric selection")
    plot.add_argument("--out", default="plotdata.csv", help="output CSV path")

    ref = sub.add_parser("solve-ref", help="solve and store a reference solution")
    _add_problem_flags(ref)

    for command in sub.choices.values():  # or sweep-p --m would mean --mu
        command.allow_abbrev = False
    return parser


# RunConfig fields whose flag has another name; every other field's flag
# (if it has one) carries the field's own name
_FIELD_TO_FLAG = {"algorithm": "alg", "dataset_path": "data"}

# RunConfig fields a batch command sets for each of its runs, so a --config
# file may not set them (params are rejected by the harness)
_BATCH_FIELDS = {"sweep-p": ("algorithm", "tag"), "compare-all": ("algorithm", "seed")}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    payload: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {args.config}: {exc}") from exc
        except ValueError as exc:  # bad bytes or JSON, or an int past 4300 digits
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        command = getattr(args, "command", None)
        fixed = [name for name in _BATCH_FIELDS.get(command, ()) if name in payload]
        if fixed:
            raise ConfigError(f"{command} sets every run's {' and '.join(fixed)} "
                              f"itself; remove {fixed} from the config")

    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be a JSON object, got {params!r}")
    params = dict(params)
    explicit_param = False
    for name in all_param_types():
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
            explicit_param = True
    if params:
        payload["params"] = params
    if explicit_param and getattr(args, "preset", None) is None:
        payload.setdefault("preset", None)

    for field in RunConfig.__dataclass_fields__:
        value = getattr(args, _FIELD_TO_FLAG.get(field, field), None)
        if value is not None:
            payload[field] = value

    payload.setdefault("algorithm", "l-svrg")
    return RunConfig.from_dict(payload)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            paths = [run_experiment(config_from_args(args), args.out)]
        elif args.command == "sweep-p":
            paths = sweep_p(config_from_args(args), args.out, grid=args.grid)
        elif args.command == "compare-all":
            algorithms = args.algs.split(",") if args.algs is not None else None
            paths = [compare_all(
                config_from_args(args),
                args.out,
                seeds=args.seeds,
                algorithms=algorithms,
                thresholds=tuple(args.thresholds),
            )]
        elif args.command == "plotdata":
            metrics = args.metrics.split(",") if args.metrics is not None else None
            if args.metrics == "":
                metrics = []
            paths = [emit_plotdata(args.traces, args.out, metrics=metrics)]
        else:  # solve-ref, the last command argparse allows
            paths = [solve_reference_cli(config_from_args(args), args.out)]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ReferenceSolveError as exc:
        print(f"reference solve failed: {exc}", file=sys.stderr)
        return EXIT_REFERENCE
    except DivergenceError as exc:
        for path in exc.paths:
            print(path)
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
