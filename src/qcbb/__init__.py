"""Quantum-classical branch and bound for binary linear programs.

Binary linear programs with equality constraints are encoded as Ising
Hamiltonians with a big-M penalty, attacked per node with a simulated QAOA
whose samples supply candidate solutions, bounded classically through a
Goemans-Williamson MaxCut relaxation that also picks the branching variable,
and pruned until proven optimality or a target gap.
"""

from .blp import (
    BlpInstance,
    BruteForceResult,
    InstanceFormatError,
    brute_force_optimum,
    compute_big_m,
    generate_spp,
    load_instance,
    penalized_cost,
    save_instance,
)
from .bound import BoundResult, lower_bound
from .engine import (
    BaselineResult,
    SolveResult,
    SolverConfig,
    run_plain_qaoa,
    solve,
)
from .ising import IsingModel, encode, many_body_count, reduce
from .metrics import (
    BoundSeries,
    TraceEvent,
    bound_series,
    export_trace,
    load_trace,
    many_body_fraction,
    primal_dual_integral,
)
from .vqa import QaoaParams, SampleSet, build_diagonal, expectation, qaoa_state, sample

__version__ = "0.1.0"

__all__ = [
    "BaselineResult",
    "BlpInstance",
    "BoundResult",
    "BoundSeries",
    "BruteForceResult",
    "InstanceFormatError",
    "IsingModel",
    "QaoaParams",
    "SampleSet",
    "SolveResult",
    "SolverConfig",
    "TraceEvent",
    "bound_series",
    "brute_force_optimum",
    "build_diagonal",
    "compute_big_m",
    "encode",
    "expectation",
    "export_trace",
    "generate_spp",
    "load_instance",
    "load_trace",
    "lower_bound",
    "many_body_count",
    "many_body_fraction",
    "penalized_cost",
    "primal_dual_integral",
    "qaoa_state",
    "reduce",
    "run_plain_qaoa",
    "sample",
    "save_instance",
    "solve",
]
