"""Command-line interface.

Subcommands mirror the library: capacity, distribution, efficiency,
count, optimize-memory.  Reports render either as readable text or, with
--json, as deterministic JSON: keys sorted, floats at 15 significant
digits, no timestamps — identical inputs produce byte-identical output.
A report is printed only once it is complete, so failures never leave a
partial JSON object on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .counting import CountingError, UnreachableTimeError, capacity_estimate, count_sequences
from .efficiency import (
    DistributionError,
    TraceError,
    efficiency_from_trace,
    optimal_distribution,
    parse_trace,
)
from .memory import ProblemError, optimize_grid, optimize_vertex, parse_problem
from .model import (
    BindingError,
    BoundClass,
    BoundInstructionSet,
    ModelError,
    ParameterBinding,
    bind,
    parse_model,
    total_count,
)
from .solver import solve_capacity

_TOP_TERMS = 10


# --- deterministic rendering ---


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return f'"{x!r}"'  # JSON has no non-finite numbers; keep them visible
    return format(x, ".15g")


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 15 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, Fraction):
        return str(int(value)) if value.denominator == 1 else f'"{value}"'
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f'{inner}{render_json(str(k))}: {render_json(v, indent + 1)}'
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot render {type(value).__name__}")


def _text_lines(value, prefix: str = "") -> list[str]:
    if isinstance(value, dict):
        lines = []
        for k in sorted(value, key=str):
            lines.extend(_text_lines(value[k], f"{prefix}{k}." if prefix else f"{k}."))
        return lines
    if isinstance(value, (list, tuple)):
        lines = []
        for i, v in enumerate(value):
            lines.extend(_text_lines(v, f"{prefix}{i}."))
        return lines
    if isinstance(value, float):
        rendered = _fmt_float(value)
    elif value is None:
        rendered = "none"
    else:
        rendered = str(value)
    return [f"{prefix[:-1]} = {rendered}"]


def render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return render_json(report)
    lines = [f"command: {report['command']}"]
    for warning in report.get("warnings", []):
        lines.append(f"warning: {warning}")
    lines.extend(_text_lines(report["results"]))
    return "\n".join(lines)


def _file_input(path: Path, text: str) -> dict:
    return {
        "path": str(path),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


# --- subcommand implementations ---


def _load_bound(args) -> tuple[BoundInstructionSet, dict]:
    path = Path(args.model)
    text = path.read_text(encoding="utf-8")
    iset = parse_model(text)
    binding = ParameterBinding.from_strings(args.param)
    return bind(iset, binding), _file_input(path, text)


def _capacity_results(bound: BoundInstructionSet, tolerance: float) -> dict:
    cap = solve_capacity(bound, tolerance)
    masses = optimal_distribution(bound, cap).masses
    terms = sorted(masses.items(), key=lambda item: (-item[1], item[0]))
    return {
        "set": bound.name,
        "total_instructions": total_count(bound),
        "capacity_bits": cap.capacity_bits,
        "log2_x0": cap.capacity_bits,
        "residual": cap.residual,
        "bracket_width": cap.bracket_width,
        "iterations": cap.iterations,
        "top_terms": [
            {"member": name, "share": share} for name, share in terms[:_TOP_TERMS]
        ],
    }


def cmd_capacity(args) -> dict:
    bound, model_input = _load_bound(args)
    return {
        "command": "capacity",
        "inputs": {"model": model_input},
        "results": _capacity_results(bound, args.tolerance),
        "warnings": [],
    }


def cmd_distribution(args) -> dict:
    bound, model_input = _load_bound(args)
    cap = solve_capacity(bound, args.tolerance)
    dist = optimal_distribution(bound, cap)
    members = []
    for m in bound.members:
        entry: dict = {"member": m.name, "mass": dist.mass(m.name)}
        if isinstance(m, BoundClass):
            entry["kind"] = "class"
            entry["count"] = m.count
            entry["time"] = float(m.time)
            entry["per_instruction"] = dist.instruction_probability(m.time)
        else:
            entry["kind"] = "family"
            entry["count_per_term"] = m.count_per_term
            entry["num_terms"] = m.num_terms
            entry["time_base"] = float(m.time_base)
            entry["step"] = float(m.step)
            entry["per_instruction_base"] = dist.instruction_probability(m.time_base)
        members.append(entry)
    return {
        "command": "distribution",
        "inputs": {"model": model_input},
        "results": {
            "set": bound.name,
            "capacity_bits": cap.capacity_bits,
            "log2_x0": cap.capacity_bits,
            "mass_total": sum(dist.masses.values()),
            "members": members,
        },
        "warnings": [],
    }


def cmd_efficiency(args) -> dict:
    bound, model_input = _load_bound(args)
    trace_path = Path(args.trace)
    trace_text = trace_path.read_text(encoding="utf-8")
    symbols = parse_trace(trace_text)
    report = efficiency_from_trace(bound, symbols, args.order, args.tolerance)
    return {
        "command": "efficiency",
        "inputs": {
            "model": model_input,
            "trace": _file_input(trace_path, trace_text),
        },
        "results": {
            "set": bound.name,
            "trace_length": report.length,
            "mean_time": report.mean_time,
            "capacity_bits": report.capacity_bits,
            "orders": [
                {
                    "order": e.order,
                    "entropy_bits": e.entropy_bits,
                    "efficiency_bits": e.efficiency_bits,
                    "utilization": e.utilization,
                }
                for e in report.orders
            ],
        },
        "warnings": [],
    }


def cmd_count(args) -> dict:
    bound, model_input = _load_bound(args)
    table = count_sequences(bound, args.max_time)
    warnings = []
    estimate: Optional[float] = None
    if args.max_time >= 1:
        try:
            estimate = capacity_estimate(table, args.max_time)
        except UnreachableTimeError as exc:
            warnings.append(f"{exc}; no growth-rate estimate at that time")
    else:
        warnings.append("growth-rate estimate needs max-time >= 1")
    return {
        "command": "count",
        "inputs": {"model": model_input},
        "results": {
            "set": bound.name,
            "max_time": table.max_time,
            "counts": list(table.counts),
            "estimate_bits": estimate,
        },
        "warnings": warnings,
    }


def cmd_optimize_memory(args) -> dict:
    path = Path(args.problem)
    text = path.read_text(encoding="utf-8")
    problem = parse_problem(text, base_dir=path.parent)
    if args.param:
        override = ParameterBinding.from_strings(args.param)
        merged = {**problem.binding.values, **override.values}
        problem = dataclasses.replace(problem, binding=ParameterBinding(merged))
    if args.mode == "vertex":
        allocation = optimize_vertex(problem, args.tolerance)
    else:
        allocation = optimize_grid(problem, args.step, args.tolerance)
    warnings = []
    if allocation.tie_with:
        warnings.append(
            "capacity tie within 1e-11 against: " + ", ".join(allocation.tie_with)
        )
    return {
        "command": "optimize-memory",
        "inputs": {"problem": _file_input(path, text)},
        "results": {
            "mode": args.mode,
            "label": allocation.label,
            "cells": dict(allocation.cells),
            "total_cost": allocation.total_cost,
            "budget": problem.budget,
            "registers": problem.registers,
            "capacity_bits": allocation.capacity.capacity_bits,
            "residual": allocation.capacity.residual,
            "tie_with": list(allocation.tie_with),
            "justification": allocation.justification,
        },
        "warnings": warnings,
    }


# --- argument parsing and entry point ---


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1e-12,
        help="solver bracket tolerance (default 1e-12)",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a model parameter (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compucap",
        description="Capacity and efficiency analysis of instruction-set timing models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="solve the characteristic equation")
    p.add_argument("model", help="model JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("distribution", help="capacity-achieving instruction probabilities")
    p.add_argument("model", help="model JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("efficiency", help="entropy and efficiency of an observed trace")
    p.add_argument("model", help="model JSON file")
    p.add_argument("trace", help="whitespace-separated symbol trace file")
    p.add_argument("--order", type=int, default=1, help="highest entropy order (default 1)")
    _add_common(p)
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("count", help="exact sequence counts by total time")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--max-time", type=int, required=True, help="largest total time")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("optimize-memory", help="choose cell counts under a budget")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument(
        "--mode", choices=("vertex", "grid"), default="vertex", help="search strategy"
    )
    p.add_argument("--step", type=int, default=1, help="grid step (grid mode)")
    _add_common(p)
    p.set_defaults(func=cmd_optimize_memory)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except BindingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        ModelError,
        ProblemError,
        CountingError,
        TraceError,
        DistributionError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(report, args.json))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
