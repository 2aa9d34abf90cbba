"""Check each distinct query's first answer against the oracles.

`verify()` returns, per query id, the list of problems found (empty when
the answer is right), and the set of query ids whose failure is the
known count-render defect: `compucap count` exits 1 when an N(T) has
more than 4,300 decimal digits, because render_json calls str() on it
outside main's error handling.  Such a query still counts as failed; it
only does not make the run incorrect.  Any other failure does.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import oracle
from workloads import INT_STR_DIGITS

KNOWN_DEFECT = "integer string conversion"


class Verifier:
    def __init__(self, manifest: dict):
        self.manifest = manifest
        self._members: dict = {}

    def members(self, model_path: str, params: dict) -> list:
        key = (model_path, tuple(sorted(params.items())))
        if key not in self._members:
            self._members[key] = oracle.members(oracle.read_json(model_path), params)
        return self._members[key]

    # --- in-process workloads ---

    def solve_stream(self, query: dict, rec: dict) -> list[str]:
        mems = self.members(query["model"], query["params"])
        what = f"capacity of {query['model']} {query['params']}"
        problems = oracle.check_capacity(mems, rec["y"], what)
        if not rec["residual"] <= oracle.RESIDUAL_LIMIT:
            problems.append(f"{what}: residual {rec['residual']!r}")
        if abs(rec["mass_total"] - 1.0) > 1e-9:
            problems.append(f"{what}: distribution mass totals {rec['mass_total']!r}")
        return problems + oracle.check_masses(mems, rec["y"], dict(rec["top"]), what)

    def trace_scoring(self, query: dict, rec: dict) -> list[str]:
        spec = self.manifest["sets"][query["set"]]
        mems = self.members(spec["model"], spec["params"])
        text = Path(query["trace"]).read_text(encoding="utf-8")
        expect = oracle.trace_expectation(mems, text, query["order"])
        what = f"trace {query['trace']} on {spec['model']}"
        orders = [(o, h, eff) for o, h, eff, _ in rec["orders"]]
        return oracle.check_trace(expect, rec["length"], rec["mean_time"], orders, what) + oracle.check_capacity(
            mems, rec["capacity"], what
        )

    def memory_design(self, query: dict, rec: dict) -> list[str]:
        path = Path(query["problem"])
        problem = oracle.read_json(path)
        problems = []
        for key in ("vertex", "grid"):
            a = rec[key]
            problems += oracle.check_allocation(problem, path.parent, a["cells"], a["y"], a["residual"], f"{key} of {path}")
        vertex, grid = rec["vertex"], rec["grid"]
        if vertex["label"] != "none" and Fraction(vertex["cost"]) != Fraction(problem["budget"]):
            problems.append(f"vertex of {path}: cost {vertex['cost']} does not spend the budget exactly")
        if grid["y"] > vertex["y"] + oracle.GRID_SLACK:
            problems.append(f"{path}: grid {grid['y']!r} beats vertex {vertex['y']!r}")
        m = re.search(r"evaluated (\d+) feasible", grid["justification"])
        if not m or int(m.group(1)) != query["points"]:
            problems.append(f"{path}: grid reports {grid['justification']!r}, expected {query['points']} points")
        return problems

    # --- cli-cold ---

    def cli_cold(self, query: dict, rec: dict) -> list[str]:
        argv = query["argv"]
        command = argv[0]
        report = json.loads(rec["stdout"])
        results = report["results"]
        what = " ".join(["compucap", *argv])
        if command == "optimize-memory":
            path = Path(argv[1])
            problem = oracle.read_json(path)
            problems = oracle.check_allocation(
                problem, path.parent, results["cells"], results["capacity_bits"], results["residual"], what
            )
            if results["label"] != "none" and results["mode"] == "vertex":
                if Fraction(str(results["total_cost"])) != Fraction(problem["budget"]):
                    problems.append(f"{what}: vertex cost {results['total_cost']} does not spend the budget")
            return problems
        mems = self.members(argv[1], _params(argv))
        if command == "count":
            return self._count(mems, argv, results, what)
        problems = oracle.check_capacity(mems, results["capacity_bits"], what)
        if command == "capacity":
            if not results["residual"] <= oracle.RESIDUAL_LIMIT:
                problems.append(f"{what}: residual {results['residual']!r}")
            if results["total_instructions"] != sum(m[1] * m[4] for m in mems):
                problems.append(f"{what}: total_instructions {results['total_instructions']}")
        elif command == "distribution":
            if abs(results["mass_total"] - 1.0) > 1e-9:
                problems.append(f"{what}: mass_total {results['mass_total']!r}")
            top = sorted(results["members"], key=lambda e: -e["mass"])[:3]
            problems += oracle.check_masses(mems, results["capacity_bits"], {e["member"]: e["mass"] for e in top}, what)
        elif command == "efficiency":
            text = Path(argv[2]).read_text(encoding="utf-8")
            order = int(argv[argv.index("--order") + 1])
            expect = oracle.trace_expectation(mems, text, order)
            orders = [(e["order"], e["entropy_bits"], e["efficiency_bits"]) for e in results["orders"]]
            problems += oracle.check_trace(expect, results["trace_length"], results["mean_time"], orders, what)
        return problems

    def _count(self, mems, argv, results, what) -> list[str]:
        horizon = int(argv[argv.index("--max-time") + 1])
        table = oracle.count_table(mems, horizon)
        if results["counts"] != table:
            return [f"{what}: counts differ from the recurrence"]
        if table[horizon] == 0:
            return [] if results["estimate_bits"] is None else [f"{what}: estimate for unreachable T"]
        want = math.log2(table[horizon]) / horizon
        if abs(results["estimate_bits"] - want) > 1e-12 * want:
            return [f"{what}: estimate_bits {results['estimate_bits']!r}, expected {want!r}"]
        return []

    def known_defect(self, query: dict, failure: dict) -> bool:
        """True when a failed query is the count-render crash, confirmed by size."""
        argv = query.get("argv")
        if not argv or argv[0] != "count" or failure["code"] != 1 or KNOWN_DEFECT not in failure["stderr"]:
            return False
        horizon = int(argv[argv.index("--max-time") + 1])
        table = oracle.count_table(self.members(argv[1], _params(argv)), horizon)
        return oracle.decimal_digits(max(table)) > INT_STR_DIGITS


def _params(argv: list[str]) -> dict:
    return dict(argv[i + 1].split("=", 1) for i, a in enumerate(argv) if a == "--param")


def verify(workload: str, manifest: dict, first: dict) -> tuple[dict, set]:
    """Problems per query id, and the ids that failed only by the known defect."""
    verifier = Verifier(manifest)
    check = getattr(verifier, workload.replace("-", "_"))
    problems: dict = {}
    known: set = set()
    for key, rec in first.items():
        qid = int(key)
        query = manifest["queries"][qid]
        if "failure" in rec:
            if verifier.known_defect(query, rec["failure"]):
                known.add(qid)
            else:
                tail = rec["failure"]["stderr"].strip().splitlines()[-1:] or [""]
                problems[qid] = [f"failed: {tail[0]}"]
            continue
        try:
            problems[qid] = check(query, rec)
        except (KeyError, TypeError, ValueError) as exc:
            problems[qid] = [f"malformed answer: {type(exc).__name__}: {exc}"]
    return problems, known
