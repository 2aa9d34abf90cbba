"""Span tracing of compucap's layers, installed from outside the program.

`Tracer.install()` replaces the layer entry points listed in LAYERS with
wrappers that record a span (name, start, end, parent, query) per call.
It also rebinds every name under which another compucap module imported
the same function (`compucap.memory.solve_capacity`,
`compucap.cli.render_report`, ...), so nested calls are attributed to
the right layer.  No file under src/ changes.

Only layer boundaries are wrapped.  Helpers such as member_log2_weight
run once per member per solver iteration; a wrapper there would measure
the wrapper.

Run as a script, this module is the traced CLI child of the cli-cold
workload:

    python perfbench/tracer.py SPANS_OUT SPAWN_NS -- capacity model.json --json

It behaves like the `compucap` console script and, on exit, writes its
span summary plus interpreter-start and import times to SPANS_OUT.
"""

import time

_SCRIPT_START_NS = time.monotonic_ns()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

# module -> public names wrapped as spans; "Class.method" wraps a classmethod.
LAYERS = {
    "model": ("parse_model", "bind"),
    "solver": ("solve_capacity",),
    "efficiency": (
        "optimal_distribution",
        "parse_trace",
        "TraceStatistics.from_symbols",
        "entropy_order_n",
        "efficiency_from_trace",
    ),
    "memory": ("parse_problem", "instantiate", "optimize_vertex", "optimize_grid"),
    "counting": ("count_sequences",),
    "cli": ("main", "render_report"),
}

# Counters that aggregate by maximum; all others are sums.
MAX_COUNTERS = ("counting.max_digits",)


def _decimal_digits(n: int) -> int:
    """oracle.decimal_digits, kept here so the traced CLI child never imports mpmath."""
    if n == 0:
        return 1
    d = max(1, int((n.bit_length() - 1) * math.log10(2)))
    while n >= 10**d:
        d += 1
    return d


def _solve_counters(args, kwargs, result):
    return {"solver.iterations": result.iterations, "solver.members": len(args[0].members)}


def _trace_counters(args, kwargs, result):
    symbols = args[1] if len(args) > 1 else kwargs["symbols"]
    return {"efficiency.symbols": len(symbols)}


def _count_counters(args, kwargs, result):
    """Recurrence work as (distinct instruction times <= T) * T, and N's size."""
    iset, horizon = args[0], args[1] if len(args) > 1 else kwargs["max_time"]
    times = set()
    for m in iset.members:
        if hasattr(m, "num_terms"):
            for index in range(m.num_terms):
                t = m.time_base + index * m.step
                if t > horizon:
                    break
                times.add(t)
        elif m.time <= horizon:
            times.add(m.time)
    return {
        "counting.recurrence_terms": len(times) * horizon,
        "counting.max_digits": _decimal_digits(max(result.counts)),
    }


COUNTERS = {
    "solver.solve_capacity": _solve_counters,
    "efficiency.efficiency_from_trace": _trace_counters,
    "counting.count_sequences": _count_counters,
}


class Tracer:
    """In-memory spans; summary() turns them into self times and counts."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, query id, counters)
        self.query = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        counters = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = counters(args, kwargs, result) if counters and result is not None else None
                spans[index] = (name, start, end, parent, self.query, extra)

        return traced

    def install(self):
        """Wrap every LAYERS entry and rebind each imported alias of it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "compucap" or n.startswith("compucap.")]
        for short, names in LAYERS.items():
            module = importlib.import_module(f"compucap.{short}")
            for qualified in names:
                owner_name, _, attr = qualified.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    wrapped = classmethod(self.wrap(f"{short}.{qualified}", original.__func__))
                    setattr(owner, attr, wrapped)
                    self._undo.append((owner, attr, original))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(f"{short}.{qualified}", original)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, alias, wrapped)
                            self._undo.append((mod, alias, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Self time (ms) and calls per span name, counters, and grid points.

        Self time is a span's duration minus the time its child spans
        cover.  memory.grid_points counts instantiate calls made under
        optimize_grid.  Spans are cleared afterwards.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict = {}
        calls: dict = {}
        counters: dict = {"memory.grid_points": 0}
        for i, (name, start, end, parent, _, extra) in enumerate(self.spans):
            self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1
            if name == "memory.instantiate" and parent >= 0 and self.spans[parent][0] == "memory.optimize_grid":
                counters["memory.grid_points"] += 1
            for key, value in (extra or {}).items():
                if key in MAX_COUNTERS:
                    counters[key] = max(counters.get(key, 0), value)
                else:
                    counters[key] = counters.get(key, 0) + value
        counters["solver.solve_capacity.calls"] = calls.get("solver.solve_capacity", 0)
        top_ms = sum(1e3 * (end - start) for _, start, end, parent, _, _ in self.spans if parent < 0)
        self.spans.clear()
        return {"self_ms": self_ms, "calls": calls, "counters": counters, "top_ms": top_ms}


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (counters per MAX_COUNTERS)."""
    for key in ("self_ms", "calls"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    for name, value in part["counters"].items():
        if name in MAX_COUNTERS:
            total["counters"][name] = max(total["counters"].get(name, 0), value)
        else:
            total["counters"][name] = total["counters"].get(name, 0) + value
    total["top_ms"] += part["top_ms"]
    return total


def empty_summary() -> dict:
    return {"self_ms": {}, "calls": {}, "counters": {}, "top_ms": 0.0}


def _traced_cli(out_path: str, spawn_ns: int, argv: list) -> int:
    import_start = time.monotonic_ns()
    import compucap.cli

    import_end = time.monotonic_ns()
    tracer = Tracer()
    tracer.install()
    try:
        return compucap.cli.main(argv)
    finally:
        summary = tracer.summary()
        summary["interpreter_start_ms"] = (_SCRIPT_START_NS - spawn_ns) / 1e6
        summary["import_ms"] = (import_end - import_start) / 1e6
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    out, spawn, sep, *cli_argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT SPAWN_NS -- CLI-ARGS...")
    sys.exit(_traced_cli(out, int(spawn), cli_argv))
