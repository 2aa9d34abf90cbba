"""Command-line interface.

Subcommands mirror the library: capacity, distribution, efficiency,
count, optimize-memory.  Reports render either as readable text or, with
--json, as deterministic JSON: keys sorted, floats at 15 significant
digits, no timestamps — identical inputs produce byte-identical output.
A report is printed only once it is complete, so failures never leave a
partial JSON object on stdout.  Each subcommand imports only the layers
it runs, so a command starts without loading the others.  A subcommand
returns its inputs, results and warnings; `main` alone builds the report
around them and names the command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

try:
    # Importing hashlib loads OpenSSL, about 4 ms of a cold command; like the
    # stdlib's random module, take the same digest from the builtin first.
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .model import (
    BindingError,
    BoundClass,
    BoundInstructionSet,
    ParameterBinding,
    bind,
    parse_model,
    total_count,
)

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


def _read(path: Path) -> tuple[str, dict]:
    """A file's UTF-8 text and its input record: path and SHA-256."""
    text = path.read_text(encoding="utf-8")
    return text, {"path": str(path), "sha256": sha256(text.encode("utf-8")).hexdigest()}


# --- subcommand implementations: each returns (inputs, results, warnings) ---


def _load_bound(args) -> tuple[BoundInstructionSet, dict]:
    text, record = _read(Path(args.model))
    iset = parse_model(text)
    binding = ParameterBinding.from_strings(args.param)
    return bind(iset, binding), {"model": record}


def _load_and_solve(args):
    """The bound model, its inputs, its capacity and its optimal distribution."""
    from .efficiency import optimal_distribution
    from .solver import solve_capacity

    bound, inputs = _load_bound(args)
    cap = solve_capacity(bound)
    return bound, inputs, cap, optimal_distribution(bound, cap)


def cmd_capacity(args) -> tuple[dict, dict, list]:
    bound, inputs, cap, dist = _load_and_solve(args)
    terms = sorted(dist.masses.items(), key=lambda item: (-item[1], item[0]))
    return inputs, {
        "set": bound.name,
        "total_instructions": total_count(bound),
        "capacity_bits": cap.capacity_bits,
        "residual": cap.residual,
        "bracket_width": cap.bracket_width,
        "iterations": cap.iterations,
        "top_terms": [
            {"member": name, "share": share} for name, share in terms[:_TOP_TERMS]
        ],
    }, []


def cmd_distribution(args) -> tuple[dict, dict, list]:
    bound, inputs, cap, dist = _load_and_solve(args)
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
    return inputs, {
        "set": bound.name,
        "capacity_bits": cap.capacity_bits,
        "mass_total": sum(dist.masses.values()),
        "members": members,
    }, []


def cmd_efficiency(args) -> tuple[dict, dict, list]:
    from .efficiency import efficiency_from_trace, split_trace

    bound, inputs = _load_bound(args)
    trace_text, inputs["trace"] = _read(Path(args.trace))
    report = efficiency_from_trace(bound, split_trace(trace_text), args.order)
    return inputs, {
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
    }, []


def cmd_count(args) -> tuple[dict, dict, list]:
    from .counting import UnreachableTimeError, capacity_estimate, count_sequences

    bound, inputs = _load_bound(args)
    table = count_sequences(bound, args.max_time)
    warnings = []
    estimate: float | None = None
    if args.max_time >= 1:
        try:
            estimate = capacity_estimate(table, args.max_time)
        except UnreachableTimeError as exc:
            warnings.append(f"{exc}; no growth-rate estimate at that time")
    else:
        warnings.append("growth-rate estimate needs max-time >= 1")
    return inputs, {
        "set": bound.name,
        "max_time": table.max_time,
        "counts": list(table.counts),
        "estimate_bits": estimate,
    }, warnings


def cmd_optimize_memory(args) -> tuple[dict, dict, list]:
    from .memory import optimize_grid, optimize_vertex, parse_problem

    if args.step is not None and args.mode != "grid":
        raise ValueError("--step applies only to --mode grid")
    path = Path(args.problem)
    text, record = _read(path)
    inputs = {"problem": record}

    def read_base(base_path: Path) -> str:
        base_text, inputs["base"] = _read(base_path)
        return base_text

    params = ParameterBinding.from_strings(args.param).values
    problem = parse_problem(text, base_dir=path.parent, params=params, read_base=read_base)
    if args.mode == "vertex":
        allocation = optimize_vertex(problem)
    else:
        allocation = optimize_grid(problem, 1 if args.step is None else args.step)
    warnings = []
    if allocation.tie_with:
        warnings.append(
            "capacity tie within 1e-11 against: " + ", ".join(allocation.tie_with)
        )
    return inputs, {
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
    }, warnings


# --- argument parsing and entry point ---


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")
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
    p.add_argument("--step", type=int, help="grid step (--mode grid only; default 1)")
    _add_common(p)
    p.set_defaults(func=cmd_optimize_memory)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs, results, warnings = args.func(args)
    except BindingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"command": args.command, "inputs": inputs, "results": results, "warnings": warnings}
    try:
        print(render_report(report, args.json))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Python flushes stdout again at
        # exit, so point it at devnull to keep that flush from failing too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
