"""The program side of a run: one process that drives compucap.

    python perfbench/runner.py MANIFEST MODE RESULT_OUT

MODE is one of
  setup    import compucap, load the workload's fixed inputs, report the time;
  measure  closed loop with one client over whole passes, untraced;
  trace    passes over the first pass_size queries, untraced then
           traced, with per-layer self times and counts;
  ref      the ROADMAP baseline rows, each timed in this fresh process.

A run makes a fixed number of passes: as many as the workload's nominal
rate (queries_per_s, what one CPU of a 2-vCPU Xeon host runs) fits in
the manifest's seconds.  So each run repeats the same mix the same
number of times, and `attempted` and `failed` are the same on every run.

The runner gets only generated files and the query list; it never sees
the seed, and it does not check answers (run.py does, in another
process).  In-process workloads call compucap through the package's
attributes at call time, so the tracer's rebinding applies to them.
For cli-cold it starts one child at a time and waits for each.
"""

import time

_SCRIPT_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

CLI_TIMEOUT_S = 60
WARMUP_QUERIES = 2
UNTRACED_SHARE = 0.4
PROBE_INTERVAL_S = 0.2
SETUP_PROBES = 5
DATA = Path("src/compucap/data")


def speed_probe() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work.

    The work is the kind compucap does (dict and tuple traffic, int and
    Fraction arithmetic) but calls nothing of compucap, so a change to the
    program does not move it.  Its time tracks how fast the host runs
    Python at that moment; run.py scales wall times by it.
    """
    start = time.perf_counter()
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i * i % 7
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)
    return time.perf_counter() - start


def _console_entry() -> str:
    """Python source equivalent to the [project.scripts] compucap launcher."""
    import tomllib

    with open("pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["compucap"]
    module, _, func = target.partition(":")
    return f"import sys; from {module} import {func}; sys.exit({func}())"


class State:
    """What setup loaded: compucap itself plus the workload's fixed inputs."""

    def __init__(self, manifest: dict):
        self.workload = manifest["workload"]
        self.queries = manifest["queries"]
        if self.workload == "cli-cold":
            import compucap.cli  # noqa: F401  (the CLI's own import chain)

            self.entry = _console_entry()
            # The CLI reads its files itself; setup reads them once so that
            # setup_s covers loading the inputs, as on the other workloads.
            self.files = {}
            for query in self.queries:
                for arg in query["argv"]:
                    if Path(arg).is_file():
                        self.files[arg] = Path(arg).read_bytes()
            return
        import compucap

        self.cc = compucap
        self.texts = {}
        for query in self.queries:
            for key in ("model", "trace", "problem"):
                if key in query:
                    self.texts[query[key]] = Path(query[key]).read_text(encoding="utf-8")
        self.sets = [
            compucap.bind(
                compucap.parse_model(Path(s["model"]).read_text(encoding="utf-8")),
                compucap.ParameterBinding({k: Fraction(v) for k, v in s["params"].items()}),
            )
            for s in manifest.get("sets", [])
        ]

    # --- one query per workload ---

    def run(self, query: dict, spans_path=None):
        """Run one query; return a function that builds its answer record.

        The record is built after the clock stops, so it is not timed.
        """
        return getattr(self, "_" + self.workload.replace("-", "_"))(query, spans_path)

    def _solve_stream(self, query, spans_path):
        cc = self.cc
        iset = cc.parse_model(self.texts[query["model"]])
        bound = cc.bind(iset, cc.ParameterBinding({k: Fraction(v) for k, v in query["params"].items()}))
        cap = cc.solve_capacity(bound)
        dist = cc.optimal_distribution(bound, cap)
        return lambda: {
            "y": cap.capacity_bits,
            "residual": cap.residual,
            "iterations": cap.iterations,
            "mass_total": sum(dist.masses.values()),
            "top": sorted(dist.masses.items(), key=lambda kv: (-kv[1], kv[0]))[:3],
        }

    def _trace_scoring(self, query, spans_path):
        cc = self.cc
        symbols = cc.parse_trace(self.texts[query["trace"]])
        report = cc.efficiency_from_trace(self.sets[query["set"]], symbols, max_order=query["order"])
        return lambda: {
            "length": report.length,
            "mean_time": report.mean_time,
            "capacity": report.capacity_bits,
            "orders": [[e.order, e.entropy_bits, e.efficiency_bits, e.utilization] for e in report.orders],
        }

    def _memory_design(self, query, spans_path):
        cc = self.cc
        path = Path(query["problem"])
        problem = cc.parse_problem(self.texts[query["problem"]], base_dir=path.parent)
        vertex = cc.optimize_vertex(problem)
        grid = cc.optimize_grid(problem, step=query["step"])

        def record():
            out = {}
            for key, a in (("vertex", vertex), ("grid", grid)):
                out[key] = {
                    "label": a.label,
                    "cells": a.cells,
                    "y": a.capacity.capacity_bits,
                    "residual": a.capacity.residual,
                    "cost": str(a.total_cost),
                    "justification": a.justification,
                }
            return out

        return record

    def _cli_cold(self, query, spans_path):
        env = dict(os.environ, PYTHONPATH="src")
        if spans_path is None:
            cmd = [sys.executable, "-c", self.entry, *query["argv"]]
        else:
            cmd = [sys.executable, "perfbench/tracer.py", spans_path, str(time.monotonic_ns()), "--", *query["argv"]]
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        text = out.decode("utf-8", "replace")
        stderr = err.decode("utf-8", "replace")
        if proc.returncode != 0:
            raise CliFailure(proc.returncode, stderr)
        return lambda: {"sha256": hashlib.sha256(out).hexdigest(), "stdout": text}


class CliFailure(Exception):
    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}")
        self.code = code
        self.stderr = stderr


def _execute(state: State, qid: int, first: dict, spans_path=None):
    """Run one query; return (latency_s, status).  Records go into `first`."""
    query = state.queries[qid]
    start = time.perf_counter()
    try:
        record = state.run(query, spans_path)
        latency = time.perf_counter() - start
    except CliFailure as exc:
        latency = time.perf_counter() - start
        first.setdefault(qid, {"failure": {"code": exc.code, "stderr": exc.stderr[-2000:]}})
        return latency, str(exc)
    except Exception as exc:  # any failure of the program is a failed query
        latency = time.perf_counter() - start
        first.setdefault(qid, {"failure": {"code": None, "stderr": f"{type(exc).__name__}: {exc}"}})
        return latency, f"{type(exc).__name__}: {exc}"
    rec = record()
    if qid not in first:
        first[qid] = rec
    elif _digest(rec) != _digest(first[qid]):
        return latency, "output differs from this query's first run"
    return latency, "ok"


def _digest(rec: dict) -> str:
    """Equality key for repeated runs; CLI output is compared as bytes."""
    if "sha256" in rec:
        return rec["sha256"]
    return json.dumps(rec, sort_keys=True)


def passes(manifest: dict, share: float) -> int:
    """Whole passes that take `share` of the manifest's seconds at the workload's nominal rate."""
    return max(1, round(share * manifest["seconds"] * manifest["queries_per_s"] / manifest["pass_size"]))


def measure(state: State, manifest: dict) -> dict:
    """A fixed number of queries in a closed loop, with a speed probe every 0.2 s.

    The queries are whole passes, at least min_queries in all, so every
    run repeats the same mix the same number of times.  The process, and
    the CLI children it starts, stay on one CPU, so the probe times the
    CPU the queries run on.  Probe time is not part of any latency, and
    it is left out of the elapsed time.  Executions and probes carry
    their start time in the run.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    size = manifest["pass_size"]
    total = max(passes(manifest, 1.0), -(-manifest["min_queries"] // size)) * size
    first: dict = {}
    if state.workload != "cli-cold":
        for qid in range(min(WARMUP_QUERIES, len(state.queries))):
            _execute(state, qid, {})
    executions = []
    probes = []
    last_probe = -math.inf
    start = time.perf_counter()
    for i in range(total):
        if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
            probes.append([time.perf_counter() - start, speed_probe()])
            last_probe = time.perf_counter()
        qid = i % len(state.queries)
        began = time.perf_counter() - start
        latency, status = _execute(state, qid, first)
        executions.append([qid, latency, status, began])
    elapsed = time.perf_counter() - start - sum(d for _, d in probes)
    who = resource.RUSAGE_CHILDREN if state.workload == "cli-cold" else resource.RUSAGE_SELF
    return {
        "elapsed_s": elapsed,
        "executions": executions,
        "first": first,
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def trace(state: State, manifest: dict, work: Path) -> dict:
    """Untraced passes, then traced passes, over the same fixed query list."""
    from tracer import Tracer, empty_summary, merge

    ids = list(range(min(manifest["pass_size"], len(state.queries))))
    first: dict = {}
    executions = []
    in_process = state.workload != "cli-cold"
    if in_process:
        for qid in ids[:WARMUP_QUERIES]:
            _execute(state, qid, {})

    untraced = {"queries": 0, "wall_s": 0.0}
    for _ in range(passes(manifest, UNTRACED_SHARE)):
        for qid in ids:
            latency, status = _execute(state, qid, first)
            executions.append([qid, latency, status])
            untraced["queries"] += 1
            untraced["wall_s"] += latency

    tracer = Tracer()
    if in_process:
        tracer.install()
    traced = {"queries": 0, "wall_s": 0.0, "interpreter_start_ms": 0.0, "import_ms": 0.0}
    total = empty_summary()
    pass_counters = []
    spans_path = str(work / "spans.json") if not in_process else None
    for _ in range(max(2, passes(manifest, 1 - UNTRACED_SHARE))):
        part = empty_summary()
        for qid in ids:
            tracer.query = qid
            latency, status = _execute(state, qid, first, spans_path)
            executions.append([qid, latency, status])
            traced["queries"] += 1
            traced["wall_s"] += latency
            if in_process:
                merge(part, tracer.summary())
            else:
                with open(spans_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                os.unlink(spans_path)
                traced["interpreter_start_ms"] += child.pop("interpreter_start_ms")
                traced["import_ms"] += child.pop("import_ms")
                merge(part, child)
        pass_counters.append(part["counters"])
        merge(total, part)
    tracer.uninstall()
    return {
        "executions": executions,
        "first": first,
        "pass_queries": len(ids),
        "untraced": untraced,
        "traced": traced,
        "summary": total,
        "pass_counters": pass_counters,
    }


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference(manifest: dict) -> dict:
    """The rows of the ROADMAP's baseline table, on the same inputs it used."""
    import dataclasses

    import compucap as cc

    ref = manifest["ref"]
    rows = {}
    texts = {name: (DATA / f"{name}.json").read_text(encoding="utf-8") for name in ("toy", "mix", "mmix")}
    for name, text in texts.items():
        rows[f"ref.parse.{name}_us"] = 1e6 * _median_time(lambda: cc.parse_model(text), 21)
    solves = {
        "toy": (texts["toy"], {}, 11),
        "mix": (texts["mix"], {}, 11),
        "mmix_mu6_5": (texts["mmix"], {"mu": Fraction(6, 5)}, 11),
        "random1000": (Path(ref["random1000"]).read_text(encoding="utf-8"), {}, 3),
    }
    for name, (text, params, repeats) in solves.items():
        bound = cc.bind(cc.parse_model(text), cc.ParameterBinding(params))
        rows[f"ref.solve.{name}_ms"] = 1e3 * _median_time(lambda: cc.solve_capacity(bound), repeats)
        rows[f"ref.solve.{name}_iterations"] = cc.solve_capacity(bound).iterations
    toy = cc.bind(cc.parse_model(texts["toy"]), cc.ParameterBinding({}))
    mmix1 = cc.bind(cc.parse_model(texts["mmix"]), cc.ParameterBinding({"mu": 1}))
    rows["ref.count.toy_T20000_s"] = _median_time(lambda: cc.count_sequences(toy, 20_000), 1)
    rows["ref.count.mmix_T5000_s"] = _median_time(lambda: cc.count_sequences(mmix1, 5_000), 1)
    trace_set = cc.bind(cc.parse_model(Path(ref["trace_model"]).read_text(encoding="utf-8")), cc.ParameterBinding({}))
    symbols = cc.parse_trace(Path(ref["trace"]).read_text(encoding="utf-8"))
    rows["ref.trace.200k_order3_s"] = _median_time(lambda: cc.efficiency_from_trace(trace_set, symbols, max_order=3), 1)
    example = DATA / "memory-example.json"
    problem = cc.parse_problem(example.read_text(encoding="utf-8"), base_dir=example.parent)
    rows["ref.optimize.vertex_ms"] = 1e3 * _median_time(lambda: cc.optimize_vertex(problem), 11)
    small = dataclasses.replace(problem, budget=Fraction(1, 2**27))
    rows["ref.optimize.grid_2e-27_s"] = _median_time(lambda: cc.optimize_grid(small), 1)
    return {"rows": rows}


def main() -> None:
    manifest_path, mode, out_path = sys.argv[1:]
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if mode == "ref":
        result = reference(manifest)
    else:
        state = State(manifest)
        if mode == "setup":
            setup_s = time.perf_counter() - _SCRIPT_START
            result = {"setup_s": setup_s, "probe_s": statistics.fmean(speed_probe() for _ in range(SETUP_PROBES))}
        elif mode == "measure":
            result = measure(state, manifest)
        elif mode == "trace":
            result = trace(state, manifest, Path(manifest_path).parent)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
