"""Capacity and efficiency analysis of instruction-set timing models.

A computer is modeled as a set of instructions with execution times; the
largest real root X0 of sum(X ** -tau(x)) = 1 gives its capacity
log2(X0) in bits per time unit.  The package solves that equation,
derives the capacity-achieving instruction distribution, estimates the
efficiency of observed instruction traces, counts time-exact instruction
sequences with exact integers, and optimizes memory cell counts under a
budget.  Bundled example models live under data_path().
"""

from pathlib import Path

from .counting import (
    CountingError,
    CountTable,
    UnreachableTimeError,
    capacity_estimate,
    count_sequences,
)
from .efficiency import (
    DistributionError,
    InstructionDistribution,
    OrderEstimate,
    TraceEfficiencyReport,
    TraceError,
    TraceStatistics,
    efficiency,
    efficiency_from_trace,
    entropy_order_n,
    optimal_distribution,
    parse_trace,
)
from .memory import (
    AccessClass,
    Allocation,
    MemoryDesignProblem,
    MemoryKind,
    ProblemError,
    instantiate,
    optimize_grid,
    optimize_vertex,
    parse_problem,
)
from .model import (
    BindingError,
    BoundClass,
    BoundFamily,
    BoundInstructionSet,
    InstructionClass,
    InstructionFamily,
    InstructionSet,
    ModelError,
    ParameterBinding,
    TimeExpression,
    bind,
    instruction_set_from_object,
    parse_model,
    serialize_model,
    total_count,
)
from .solver import (
    CapacityResult,
    eval_characteristic,
    member_log2_weight,
    member_mean_time,
    solve_capacity,
)

__version__ = "0.1.0"

_DATA = Path(__file__).resolve().parent / "data"


def data_path(name: str) -> Path:
    """Path of a bundled example file (e.g. "mix.json", "toy-trace.txt")."""
    path = _DATA / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path


__all__ = [
    "AccessClass",
    "Allocation",
    "BindingError",
    "BoundClass",
    "BoundFamily",
    "BoundInstructionSet",
    "CapacityResult",
    "CountTable",
    "CountingError",
    "DistributionError",
    "InstructionClass",
    "InstructionDistribution",
    "InstructionFamily",
    "InstructionSet",
    "MemoryDesignProblem",
    "MemoryKind",
    "ModelError",
    "OrderEstimate",
    "ParameterBinding",
    "ProblemError",
    "TimeExpression",
    "TraceEfficiencyReport",
    "TraceError",
    "TraceStatistics",
    "UnreachableTimeError",
    "bind",
    "capacity_estimate",
    "count_sequences",
    "data_path",
    "efficiency",
    "efficiency_from_trace",
    "entropy_order_n",
    "eval_characteristic",
    "instantiate",
    "instruction_set_from_object",
    "member_log2_weight",
    "member_mean_time",
    "optimal_distribution",
    "optimize_grid",
    "optimize_vertex",
    "parse_model",
    "parse_problem",
    "parse_trace",
    "serialize_model",
    "solve_capacity",
    "total_count",
]
