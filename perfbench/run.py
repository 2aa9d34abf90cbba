"""compucap's benchmark: seeded workloads, oracle-checked, one JSON line out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a compucap checkout; it needs no install and no
network.  Workloads (see BENCHMARK.json for why each was chosen):

  solve-stream   parse_model -> bind -> solve_capacity -> optimal_distribution
  trace-scoring  parse_trace -> efficiency_from_trace(max_order=3)
  memory-design  parse_problem -> optimize_vertex -> optimize_grid
  cli-cold       one `compucap ... --json` process per query

Every workload is a closed loop with one client: the next query starts
when the previous one has finished.  The benchmark generates the inputs
from --seed into .bench_build/, starts a separate runner process that
drives compucap (runner.py), and afterwards checks every distinct answer
with its own oracles (oracle.py, verify.py).

--trace 0 prints the end-to-end metrics.  --trace 1 prints per-layer self
times and counts from a traced run (tracer.py), plus the ROADMAP baseline
rows under `ref.`.  The last line of stdout is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Lines before it are the
readable report and a `stamp` line identifying machine, inputs and code.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import verify
import workloads

SETUP_RUNS = 9
# Times are reported for a reference host on which runner.speed_probe()
# takes exactly this long.  Wall time on a shared host drifts by up to
# 2x, in phases of seconds to minutes, as co-tenants load its cores; the
# ratio of query time to probe time, both measured on the same CPU in the
# same second, drifts far less.  Each query is scaled by the mean of the
# PROBE_WINDOW probes nearest to it.  Probe times are bimodal (the CPU is
# shared or not at that instant), and a query integrates over both states,
# so the mean tracks its slowdown where the median snaps to one state.
# The readable report prints the raw wall times as well.
PROBE_REFERENCE_S = 0.001
PROBE_WINDOW = 5
# p90 needs at least ten queries beyond it; a run makes at least this many.
MIN_QUERIES = 100
RUNNER_GRACE_S = 100

END_TO_END = (
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SELF_TIMES = (
    "model.parse_model",
    "model.bind",
    "solver.solve_capacity",
    "efficiency.optimal_distribution",
    "efficiency.parse_trace",
    "efficiency.TraceStatistics.from_symbols",
    "efficiency.entropy_order_n",
    "efficiency.efficiency_from_trace",
    "memory.parse_problem",
    "memory.instantiate",
    "memory.optimize_vertex",
    "memory.optimize_grid",
    "counting.count_sequences",
    "cli.main",
    "cli.render_report",
)

# Counts that must repeat exactly between passes at one seed.
EXACT_COUNTS = (
    "solver.solve_capacity.calls",
    "solver.iterations",
    "solver.members",
    "memory.grid_points",
    "counting.recurrence_terms",
    "counting.max_digits",
    "efficiency.symbols",
)


class BenchError(Exception):
    """The benchmark itself could not produce a valid result."""


def run_child(manifest_path: Path, mode: str, seconds: int) -> dict:
    out = manifest_path.parent / f"{mode}-result.json"
    cmd = [sys.executable, "perfbench/runner.py", str(manifest_path), mode, str(out)]
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=seconds + RUNNER_GRACE_S)
    if proc.returncode != 0:
        raise BenchError(f"runner {mode} exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def inputs_digest(work: Path, manifest: dict) -> str:
    """sha256 of the generated files and query list, independent of the work path."""
    h = hashlib.sha256()
    prefix = str(work) + os.sep
    h.update(json.dumps(manifest["queries"], sort_keys=True).replace(prefix, "").encode())
    for path in sorted(p for p in work.rglob("*") if p.is_file() and p.name != "manifest.json"):
        h.update(str(path.relative_to(work)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    h.update((root / "pyproject.toml").read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp(args, root: Path, work: Path, manifest: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "inputs_sha256": inputs_digest(work, manifest),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tally(workload: str, manifest: dict, result: dict):
    """Verify answers; return per-execution success flags, correctness, problems."""
    problems, known = verify.verify(workload, manifest, result["first"])
    ok_flags = []
    correct = True
    for qid, _, status, *_ in result["executions"]:
        good = status == "ok" and not problems.get(qid)
        ok_flags.append(good)
        if not good and qid not in known:
            correct = False
            if status != "ok" and not problems.get(qid):
                problems[qid] = [status]
    return ok_flags, correct, {q: p for q, p in problems.items() if p}, known


def report_problems(args, manifest: dict, problems: dict, work: Path) -> None:
    """List each wrong answer with the input that reproduces it."""
    for qid, found in sorted(problems.items()):
        print(f"FAIL {args.workload} seed={args.seed} query={qid} input={json.dumps(manifest['queries'][qid])}")
        for line in found[:5]:
            print(f"  {line}")
    print(f"  generated inputs kept in {work}")


def local_scales(probes: list, times: list) -> list:
    """Reference-host scale at each time: PROBE_REFERENCE_S over nearby probes' mean."""
    starts = [t for t, _ in probes]
    half = PROBE_WINDOW // 2
    scales = []
    for t in times:
        i = bisect.bisect_left(starts, t)
        lo = max(0, min(i - half, len(probes) - PROBE_WINDOW))
        nearby = [d for _, d in probes[lo : lo + PROBE_WINDOW]]
        scales.append(PROBE_REFERENCE_S / statistics.fmean(nearby))
    return scales


def end_to_end(args, result: dict, ok_flags: list, setups: list) -> tuple[dict, list]:
    """End-to-end metrics; times are scaled to the reference host (see PROBE_REFERENCE_S)."""
    executions = result["executions"]
    n = len(executions)
    ok = sum(ok_flags)
    scales = local_scales(result["probe_s"], [began for *_, began in executions])
    scale = statistics.median(scales)
    busy = sum(lat for _, lat, *_ in executions)
    # Time between queries (answer records, loop) is scaled by the median.
    scaled_elapsed = sum(lat * s for (_, lat, *_), s in zip(executions, scales)) + (result["elapsed_s"] - busy) * scale

    def percentiles(unit_scales):
        # A failed query ranks slower than every success; should a
        # percentile land on one, it reads as the whole run.
        penalty = 1e3 * result["elapsed_s"] * scale
        ranked = sorted(
            1e3 * lat * s if good else math.inf
            for (_, lat, *_), good, s in zip(executions, ok_flags, unit_scales)
        )
        return [min(nearest_rank(ranked, q), penalty) for q in (0.5, 0.9)]

    p50, p90 = percentiles(scales)
    wall50, wall90 = percentiles([1.0] * n)
    beyond = n - math.ceil(0.9 * n)
    setup_wall = statistics.median(s["setup_s"] for s in setups)
    values = {
        "throughput_qps": ok / scaled_elapsed,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "success_ratio": ok / n,
        "setup_s": statistics.median(s["setup_s"] * PROBE_REFERENCE_S / s["probe_s"] for s in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    who = "largest CLI child" if args.workload == "cli-cold" else "runner process"
    notes = {
        "throughput_qps": f"{ok} correct of {n} queries in {result['elapsed_s']:.2f} s; wall {ok / result['elapsed_s']:.6g}",
        "latency_p50_ms": f"n={n}; wall {wall50:.6g}",
        "latency_p90_ms": f"n={n}, {beyond} beyond p90; wall {wall90:.6g}",
        "success_ratio": f"failed_ratio {(n - ok) / n:.4g} ({n - ok}/{n})",
        "setup_s": f"median of {len(setups)} fresh processes; wall {setup_wall:.6g}",
        "peak_rss_mb": who,
    }
    lines = [
        f"  {len(result['probe_s'])} speed probes; times below are wall times scaled to a host where the probe "
        f"takes {1e3 * PROBE_REFERENCE_S:g} ms (median scale {scale:.4g})"
    ]
    lines += [f"  {name:<16} {values[name]:>12.6g} {unit:<6} ({notes[name]})" for name, unit in END_TO_END]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, lines


def per_layer(result: dict, ref: dict) -> tuple[dict, list]:
    counters = result["pass_counters"]
    if any(c != counters[0] for c in counters):
        raise BenchError(f"exact counts differ between passes at one seed: {counters}")
    traced, untraced, summary = result["traced"], result["untraced"], result["summary"]
    n, per_pass = traced["queries"], result["pass_queries"]
    values: dict = {}
    units: dict = {}
    for name in SELF_TIMES:
        values[f"{name}.self_ms"] = summary["self_ms"].get(name, 0.0) / n
        units[f"{name}.self_ms"] = "ms"
    for name in EXACT_COUNTS:
        total = counters[0].get(name, 0)
        values[name] = total if name == "counting.max_digits" else total / per_pass
        units[name] = "count"
    values["cli.interpreter_start_ms"] = traced["interpreter_start_ms"] / n
    values["cli.import_ms"] = traced["import_ms"] / n
    wall_ms = 1e3 * traced["wall_s"] / n
    values["bench.traced_query_ms"] = wall_ms
    values["bench.unattributed_ms"] = wall_ms - (summary["top_ms"] + traced["interpreter_start_ms"] + traced["import_ms"]) / n
    values["bench.tracing_overhead_ratio"] = (traced["wall_s"] / n) / (untraced["wall_s"] / untraced["queries"])
    for name in ("cli.interpreter_start_ms", "cli.import_ms", "bench.traced_query_ms", "bench.unattributed_ms"):
        units[name] = "ms"
    units["bench.tracing_overhead_ratio"] = "ratio"
    for name, value in ref["rows"].items():
        values[name] = value
        units[name] = "count" if name.endswith("_iterations") else name.rsplit("_", 1)[1]
    lines = [
        f"  traced {n} queries ({per_pass} per pass), untraced {untraced['queries']}; "
        f"self times + unattributed = {wall_ms:.6g} ms per traced query"
    ]
    lines += [f"  {name:<44} {values[name]:>14.6g} {units[name]}" for name in values]
    return {name: {"value": values[name], "unit": units[name]} for name in values}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "compucap" / "__init__.py").is_file() or not (root / "pyproject.toml").is_file():
        print("perfbench: src/compucap not found; run from the root of a compucap checkout", file=sys.stderr)
        return 2
    # Count answers hold N(T) with far more than 4,300 digits.
    sys.set_int_max_str_digits(0)
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build)).relative_to(root)
    keep = False
    try:
        manifest = workloads.GENERATORS[args.workload](random.Random(args.seed), work)
        manifest.update(workload=args.workload, seconds=args.seconds, min_queries=MIN_QUERIES)
        if args.trace:
            manifest["ref"] = workloads.reference_inputs(work)
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        info = stamp(args, root, work, manifest)

        if args.trace:
            result = run_child(manifest_path, "trace", args.seconds)
            metrics, lines = per_layer(result, run_child(manifest_path, "ref", args.seconds))
        else:
            run_child(manifest_path, "setup", args.seconds)  # fills OS caches; not counted
            setups = [run_child(manifest_path, "setup", args.seconds) for _ in range(SETUP_RUNS)]
            result = run_child(manifest_path, "measure", args.seconds)
        ok_flags, correct, problems, known = tally(args.workload, manifest, result)
        if not args.trace:
            metrics, lines = end_to_end(args, result, ok_flags, setups)

        print(f"stamp {json.dumps(info, sort_keys=True)}")
        print(
            f"perfbench {args.workload} seed={args.seed} trace={args.trace}: closed loop, 1 client, "
            f"{len(result['executions'])} queries; {len(known)} distinct queries failed by the known count-render defect"
        )
        for line in lines:
            print(line)
        if problems:
            keep = True
            report_problems(args, manifest, problems, work)
        attempted = len(ok_flags)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": attempted - sum(ok_flags), "metrics": metrics}))
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
