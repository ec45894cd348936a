"""Loopless variance-reduced optimization: L-SVRG, L-Katyusha, their loopy
originals, Lyapunov diagnostics, and a benchmark harness."""

from .data import (
    Dataset,
    ParseError,
    load_libsvm,
    normalize_rows,
    parse_libsvm,
    save_libsvm,
    synthesize_quadratic,
    write_libsvm,
)
from .diagnostics import (
    BoundSlack,
    ReferenceSolution,
    ReferenceSolveError,
    compute_phi,
    compute_psi,
    solve_reference,
    verify_lemma_bounds,
)
from .oracle import LogisticOracle, Oracle, RidgeOracle, make_oracle
from .optimizers import (
    ALGORITHMS,
    GradientDescent,
    LKatyusha,
    LSVRG,
    LoopyKatyusha,
    LoopySVRG,
    run,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BoundSlack",
    "Dataset",
    "GradientDescent",
    "LKatyusha",
    "LSVRG",
    "LogisticOracle",
    "LoopyKatyusha",
    "LoopySVRG",
    "Oracle",
    "ParseError",
    "ReferenceSolution",
    "ReferenceSolveError",
    "RidgeOracle",
    "SplitMix64",
    "compute_phi",
    "compute_psi",
    "load_libsvm",
    "make_oracle",
    "normalize_rows",
    "parse_libsvm",
    "run",
    "save_libsvm",
    "solve_reference",
    "synthesize_quadratic",
    "verify_lemma_bounds",
    "write_libsvm",
]
