"""Capacity and efficiency analysis of instruction-set timing models.

A computer is modeled as a set of instructions with execution times; the
largest real root X0 of sum(X ** -tau(x)) = 1 gives its capacity
log2(X0) in bits per time unit.  The package solves that equation,
derives the capacity-achieving instruction distribution, estimates the
efficiency of observed instruction traces, counts time-exact instruction
sequences with exact integers, and optimizes memory cell counts under a
budget.  Bundled example models live under data_path().

Importing the package loads none of its submodules: each public name is
resolved from its submodule on first access (PEP 562), so a program pays
only for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "counting": (
        "CountingError",
        "CountTable",
        "UnreachableTimeError",
        "capacity_estimate",
        "count_sequences",
    ),
    "efficiency": (
        "OrderEstimate",
        "TraceEfficiencyReport",
        "TraceError",
        "TraceStatistics",
        "efficiency_from_distribution",
        "efficiency_from_trace",
        "entropy_order_n",
        "parse_trace",
    ),
    "memory": (
        "AccessClass",
        "Allocation",
        "MemoryDesignProblem",
        "MemoryKind",
        "ProblemError",
        "instantiate",
        "optimize_grid",
        "optimize_vertex",
        "parse_problem",
    ),
    "model": (
        "BindingError",
        "BoundClass",
        "BoundFamily",
        "BoundInstructionSet",
        "InstructionClass",
        "InstructionFamily",
        "InstructionSet",
        "ModelError",
        "ParameterBinding",
        "TimeExpression",
        "bind",
        "instruction_set_from_object",
        "parse_model",
        "serialize_model",
        "total_count",
    ),
    "solver": (
        "CapacityResult",
        "DistributionError",
        "InstructionDistribution",
        "eval_characteristic",
        "optimal_distribution",
        "solve_capacity",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "data_path"])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


def data_path(name: str):
    """Path of a bundled example file (e.g. "mix.json", "toy-trace.txt");
    `name` is a bare file name, not a path."""
    from pathlib import Path

    path = Path(__file__).resolve().parent / "data" / name
    if path.name != str(name) or not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path
