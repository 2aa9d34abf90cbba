"""Seeded input generators for the four workloads.

Each generator writes model, trace and problem files into a work
directory and returns a manifest: the list of queries the program runner
executes, plus what the oracle needs to check the answers.  Every random
choice comes from one `random.Random(seed)`, so a seed fixes the inputs.

Query mixes are stratified: a cycle holds a fixed number of queries of
each kind (small, medium, large, ...), drawn from size ladders with a
small jitter.  Seeds change the content of the inputs, not their mix, so
medians and percentiles stay comparable from seed to seed.

Each manifest also names a nominal rate, queries_per_s: about what one
CPU of a 2-vCPU Xeon host runs.  A run of S seconds makes the whole
passes that fit S at that rate (runner.passes), so it attempts the same
queries on every run, whatever the host's load.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

DATA = Path("src/compucap/data")

# Digits Python 3.11 converts with str() before raising ValueError.
INT_STR_DIGITS = 4300

# solve-stream: one cycle of query kinds.  The large group is 15% of the
# cycle so that p90 falls inside it instead of on the edge between groups.
SOLVE_CYCLE = (
    ["small"] * 24
    + ["toy", "mix", "mmix", "near_zero", "high", "huge_family"]
    + ["medium"] * 4
    + ["large"] * 6
)
# A 25-s run makes 12 passes of 40; 12 distinct cycles give each its own
# models, so p90 is drawn from 72 large models, not 24 repeated three times.
SOLVE_CYCLES = 12
SOLVE_RATE = 19
MEDIUM_SIZES = (20, 50, 100, 300)
LARGE_SIZES = (800, 1000, 1250, 1500, 1750, 2000)

# trace-scoring: trace lengths in thousands of symbols, per pass of 42.
# Short traces over every alphabet set the median.  Eight alike traces of
# 30k symbols over one 25-symbol model hold p90 near their middle, and one
# trace of 200k symbols over the 60-symbol model lies beyond it.
TRACE_ALPHABETS = (3, 8, 15, 25, 40, 60)
TRACE_SHORT_K = tuple(10 + 10 * i / 32 for i in range(33))
TRACE_TAIL_K, TRACE_TAIL_COUNT, TRACE_TAIL_SET = 30, 8, 3
TRACE_LONG_K, TRACE_LONG_SET = 200, 5
TRACE_ORDER = 3
TRACE_RATE = 5

# memory-design: grid sizes (points) the generated problems aim at.  An odd
# number of equal groups puts p50 and p90 inside a group, not between two.
GRID_POINTS = (100, 150, 200, 250, 300)
MEMORY_PROBLEMS = 25
# A 25-s run makes 4 passes of 25, each with its own problems: p50 and p90
# are then drawn from 100 distinct problems, not from 25 repeated four times.
MEMORY_PASSES = 4
MEMORY_RATE = 4

# cli-cold: one cycle of commands, each ordinary kind twice.  Exactly one
# count per cycle crosses the 4,300-digit render limit and fails, and four
# order-3 efficiency commands are the slowest successes.  Failures rank
# slowest, so of a run's 4 cycles (124 commands) the 12 beyond p90 are the
# 4 failures and half of the 16 order-3 commands: p90 is their median.
CLI_ORDINARY = (
    "capacity_bundled", "capacity_generated", "capacity_param",
    "distribution_bundled", "distribution_generated",
    "efficiency_bundled", "efficiency_generated",
    "count_toy", "count_generated", "count_mmix",
    "optimize_bundled", "optimize_vertex", "optimize_grid",
)
CLI_CYCLE = CLI_ORDINARY * 2 + ("efficiency_order3",) * 4 + ("count_past_limit",)
CLI_CYCLES = 4
CLI_RATE = 5


# --- spelling helpers: the same value written the ways model files allow ---


def rational_json(rng: random.Random, value: Fraction):
    """An exact spelling of `value`: integer, decimal number or "p/q" string."""
    if value.denominator == 1 and rng.random() < 0.8:
        return int(value)
    den = value.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1 and rng.random() < 0.5:
        return float(value)  # exact decimal; parsed back with parse_float=Fraction
    return f"{value.numerator}/{value.denominator}"


def count_json(rng: random.Random, n: int):
    """An exact count: a plain integer, or "a*2^b" when n has a power-of-2 factor."""
    b = (n & -n).bit_length() - 1
    if b >= 2 and rng.random() < 0.5:
        return f"{n >> b}*2^{b}"
    return n


def term_spelling(rng: random.Random, value: Fraction) -> str:
    """A trace annotation for `value`: "7", "3.5" or "7/2" style."""
    if value.denominator == 1:
        return str(value.numerator) if rng.random() < 0.8 else f"{value.numerator}/1"
    decimal = float(value)
    if Fraction(repr(decimal)) == value and rng.random() < 0.5:
        return repr(decimal)
    return f"{value.numerator}/{value.denominator}"


def rand_time(rng: random.Random, lo: float, hi: float, dens=(1, 2, 3, 4, 5, 8, 10)) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randint(max(1, round(lo * den)), round(hi * den)), den)


def jitter(rng: random.Random, size: int, share: float = 0.03) -> int:
    return max(2, round(size * (1 + rng.uniform(-share, share))))


# --- models ---


def random_model(
    rng: random.Random,
    name: str,
    size: int,
    *,
    count_bits: int = 10,
    time_lo: float = 1.0,
    time_hi: float = 40.0,
    family_share: float = 0.15,
    max_terms: int = 1000,
    param_share: float = 0.0,
    integer_times: bool = False,
) -> dict:
    """A model object with `size` members (classes and families)."""
    dens = (1,) if integer_times else (1, 2, 3, 4, 5, 8, 10)
    classes = []
    for i in range(size):
        base = rand_time(rng, time_lo, time_hi, dens)
        count = rng.randint(1, 2 ** rng.randint(0, count_bits))
        if rng.random() < 0.3:
            count <<= rng.randint(1, 4)
        time: object = rational_json(rng, base)
        if param_share and rng.random() < param_share:
            time = {"base": rational_json(rng, base), "coeffs": {"mu": rational_json(rng, rand_time(rng, 0.5, 4, dens))}}
        member = {"name": f"m{i}", "count": count_json(rng, count), "time": time}
        if rng.random() < family_share:
            member["name"] = f"f{i}"
            step = rand_time(rng, 0.5, 6, dens)
            member["family"] = {"step": rational_json(rng, step), "terms": rng.randint(2, max_terms)}
        classes.append(member)
    model = {"name": name, "classes": classes}
    if any(isinstance(c["time"], dict) for c in classes):
        model["parameters"] = ["mu"]
    return model


def rand_mu(rng: random.Random) -> str:
    return str(Fraction(rng.randint(0, 40), rng.choice((1, 2, 4, 5, 10))))


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


# --- solve-stream ---


def _solve_query(rng: random.Random, kind: str, name: str, slot: int, work: Path) -> dict:
    """One solve-stream query; `slot` picks the size from the kind's ladder."""
    if kind in ("toy", "mix", "mmix"):
        params = {"mu": str(Fraction(rng.randint(5, 15), 5))} if kind == "mmix" else {}
        return {"kind": kind, "model": str(DATA / f"{kind}.json"), "params": params}
    if kind == "small":
        model = random_model(rng, name, 2 + slot % 11, param_share=0.3)
    elif kind == "medium":
        model = random_model(rng, name, jitter(rng, MEDIUM_SIZES[slot % len(MEDIUM_SIZES)]), param_share=0.2)
    elif kind == "large":
        model = random_model(rng, name, jitter(rng, LARGE_SIZES[slot % len(LARGE_SIZES)]), param_share=0.1)
    elif kind == "near_zero":
        # A few single instructions with long times: capacity far below 1 bit.
        model = random_model(rng, name, rng.randint(2, 4), count_bits=0, time_lo=100, time_hi=5000, family_share=0)
        for member in model["classes"]:
            member["count"] = 1
    elif kind == "high":
        # mmix-sized counts with short times: capacities around 30 bits.
        model = random_model(rng, name, rng.randint(4, 12), count_bits=4, time_lo=1, time_hi=4, family_share=0)
        for member in model["classes"]:
            member["count"] = f"{rng.randint(1, 139)}*2^24"
        model["classes"][0]["time"] = 1
    else:  # huge_family: families of up to 2^25+1 terms, evaluated in closed form
        model = random_model(rng, name, rng.randint(2, 6), family_share=1.0)
        for member in model["classes"]:
            member["family"]["terms"] = rng.choice((2 ** 25 + 1, rng.randint(2 ** 20, 2 ** 25 + 1)))
    path = work / "models" / f"{name}.json"
    write_json(path, model)
    params = {"mu": rand_mu(rng)} if "parameters" in model else {}
    return {"kind": kind, "model": str(path), "params": params}


def solve_stream(rng: random.Random, work: Path) -> dict:
    queries = []
    for _ in range(SOLVE_CYCLES):
        kinds = list(SOLVE_CYCLE)
        rng.shuffle(kinds)
        slots: dict[str, int] = {}
        for kind in kinds:
            slot = slots.get(kind, 0)
            slots[kind] = slot + 1
            queries.append(_solve_query(rng, kind, f"s{len(queries)}", slot, work))
    return {"queries": queries, "pass_size": len(SOLVE_CYCLE), "queries_per_s": SOLVE_RATE}


# --- trace-scoring ---


def trace_model(rng: random.Random, name: str, alphabet: int) -> tuple[dict, list[tuple[str, Fraction]]]:
    """A model plus `alphabet` trace symbols (name, time) drawn from it.

    About a quarter of the symbols are family terms, written name@time.
    """
    n_families = max(1, alphabet // 12)
    n_classes = max(1, alphabet - 3 * n_families)
    classes, symbols = [], []
    for i in range(n_classes):
        t = rand_time(rng, 1, 12)
        classes.append({"name": f"c{i}", "count": count_json(rng, rng.randint(1, 2 ** rng.randint(0, 8))), "time": rational_json(rng, t)})
        symbols.append((f"c{i}", t))
    for i in range(n_families):
        base, step = rand_time(rng, 1, 8), rand_time(rng, 0.5, 3)
        terms = rng.randint(3, 40)
        classes.append({"name": f"f{i}", "count": rng.randint(1, 64), "time": rational_json(rng, base), "family": {"step": rational_json(rng, step), "terms": terms}})
        for term in rng.sample(range(terms), 3):
            symbols.append((f"f{i}", base + term * step))
    symbols = symbols[:alphabet]
    return {"name": name, "classes": classes}, symbols


def markov_trace(rng: random.Random, n_symbols: int, length: int) -> list[int]:
    """State sequence of a sparse random Markov chain over range(n_symbols).

    Each step applies one of three maps of the alphabet onto itself: the
    shift state+1 and two random permutations, drawn with fixed random
    weights.  The shift makes the chain visit the whole alphabet, and the
    fan-out of three makes higher-order entropy estimates fall and keeps
    the number of distinct k-grams, and so the cost of counting them,
    alike from seed to seed.  A weighted mix of permutations is doubly
    stochastic, so in the long run every symbol is equally frequent: the
    share of family tokens, which cost more to parse, is alike too.
    """
    maps = [[(s + 1) % n_symbols for s in range(n_symbols)]]
    maps += [rng.sample(range(n_symbols), n_symbols) for _ in range(2)]
    cum, acc = [], 0.0
    for _ in maps:
        acc += rng.uniform(0.5, 1.0)
        cum.append(acc)
    out = [rng.randrange(n_symbols)]
    draw = rng.random
    for _ in range(length - 1):
        u = draw() * acc
        k = 0
        while cum[k] < u:
            k += 1
        out.append(maps[k][out[-1]])
    return out


def trace_text(rng: random.Random, symbols, states: list[int]) -> str:
    """Render states as tokens, varying how family term times are spelled."""
    spellings = []
    for name, time in symbols:
        if name.startswith("f"):
            spellings.append([f"{name}@{term_spelling(rng, time)}" for _ in range(2)])
        else:
            spellings.append([name])
    tokens = [rng.choice(spellings[s]) if len(spellings[s]) > 1 else spellings[s][0] for s in states]
    lines = [" ".join(tokens[i : i + 20]) for i in range(0, len(tokens), 20)]
    return "\n".join(lines) + "\n"


def trace_scoring(rng: random.Random, work: Path) -> dict:
    sets = []
    symbol_tables = []
    for i, alphabet in enumerate(TRACE_ALPHABETS):
        model, symbols = trace_model(rng, f"t{i}", alphabet)
        path = work / "models" / f"t{i}.json"
        write_json(path, model)
        sets.append({"model": str(path), "params": {}})
        symbol_tables.append(symbols)
    plan = [(k, i % len(sets)) for i, k in enumerate(TRACE_SHORT_K)]
    plan += [(TRACE_TAIL_K, TRACE_TAIL_SET)] * TRACE_TAIL_COUNT + [(TRACE_LONG_K, TRACE_LONG_SET)]
    queries = []
    for i, (k, set_index) in enumerate(plan):
        length = jitter(rng, round(1000 * k), 0.03)
        states = markov_trace(rng, len(symbol_tables[set_index]), length)
        path = work / "traces" / f"q{i}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(trace_text(rng, symbol_tables[set_index], states), encoding="utf-8")
        queries.append({"set": set_index, "trace": str(path), "order": TRACE_ORDER})
    rng.shuffle(queries)
    return {"sets": sets, "queries": queries, "pass_size": len(queries), "queries_per_s": TRACE_RATE}


# --- memory-design ---


def grid_point_count(extents: list[int]) -> int:
    """Points of the grid a budget spans when it buys extents[k] steps of kind k.

    These are the integer vectors i with sum(i[k] / extents[k]) <= 1, the
    allocations optimize_grid walks.
    """
    lcm = math.lcm(*extents)
    weights = [lcm // e for e in extents]

    def rec(k: int, remaining: int) -> int:
        if k == len(weights) - 1:
            return remaining // weights[k] + 1
        return sum(rec(k + 1, remaining - i * weights[k]) for i in range(remaining // weights[k] + 1))

    return rec(0, lcm)


def _grid_extents(rng: random.Random, n_kinds: int, target: int) -> tuple[list[int], int]:
    """Grid extents (in steps, per kind) whose simplex holds about `target` points.

    The first extents are random; the last is the smallest that reaches
    the target, or one less, whichever lands within 5% (15% for grids
    under 100 points, where one more step of the last kind adds more).
    """
    tolerance = 0.05 if target >= 100 else 0.15

    for _ in range(1000):
        head = [rng.randint(6, 24)] if n_kinds == 2 else [rng.randint(3, 9), rng.randint(3, 9)]
        lo, hi = 1, 4 * target
        while lo < hi:
            mid = (lo + hi) // 2
            if grid_point_count(head + [mid]) >= target:
                hi = mid
            else:
                lo = mid + 1
        for last in (lo, lo - 1):
            if last >= 1:
                n = grid_point_count(head + [last])
                if abs(n - target) <= tolerance * target:
                    return head + [last], n
    raise RuntimeError(f"no {n_kinds}-kind grid of about {target} points")


def memory_problem(rng: random.Random, name: str, target_points: int, slot: int, base_file: bool, work: Path) -> dict:
    """A problem whose budget buys an exact whole number of cells of every kind.

    Every problem has a five-class base and two access classes per kind;
    the problems of grid-size group 0 (`slot` % 5) have three kinds, the
    others two.  So the problems of one group cost alike on every seed.
    """
    base = random_model(rng, name, 5, count_bits=6, time_lo=1, time_hi=20, family_share=0)
    # Small grids have too few points to spread over three kinds.
    n_kinds = 3 if target_points >= 100 and slot % len(GRID_POINTS) == 0 else 2
    extents, points = _grid_extents(rng, n_kinds, target_points)
    step = rng.choice((1, 2, 4, 8, 16, 32))
    budget = Fraction(1, 2 ** rng.randint(0, 30))
    costs = [budget / (step * e) for e in extents]
    kinds = []
    for k, cost in enumerate(costs):
        access = []
        for _ in range(2):
            t = {"base": rational_json(rng, rand_time(rng, 1, 3)), "coeffs": {f"mu{k + 1}": rational_json(rng, rand_time(rng, 1, 20, (1, 2, 4)))}}
            access.append({"count": rng.randint(1, 64), "time": t})
        kinds.append({"name": f"kind{k + 1}", "cell_cost": f"{cost.numerator}/{cost.denominator}" if cost.denominator != 1 else int(cost), "access_classes": access})
    problem = {
        "base": base,
        "registers": 2 ** rng.randint(2, 8),
        "budget": rational_json(rng, budget) if budget.denominator < 2 ** 20 else f"1/{budget.denominator}",
        "parameters": {f"mu{k + 1}": rational_json(rng, Fraction(rng.randint(5, 30), 5)) for k in range(n_kinds)},
        "kinds": kinds,
    }
    directory = work / "problems"
    if base_file:
        write_json(directory / f"{name}-base.json", base)
        problem["base"] = f"{name}-base.json"
    path = directory / f"{name}.json"
    write_json(path, problem)
    return {"problem": str(path), "step": step, "points": points}


def memory_design(rng: random.Random, work: Path) -> dict:
    queries = []
    for _ in range(MEMORY_PASSES):
        batch = [
            memory_problem(rng, f"p{len(queries) + i}", GRID_POINTS[i % len(GRID_POINTS)], i, i % 3 == 0, work)
            for i in range(MEMORY_PROBLEMS)
        ]
        rng.shuffle(batch)
        queries += batch
    return {"queries": queries, "pass_size": MEMORY_PROBLEMS, "queries_per_s": MEMORY_RATE}


# --- cli-cold ---


def _digits_limit_horizon(rate_bits: float) -> int:
    """Smallest T at which N(T) ~ 2**(rate*T) passes the str() digit limit."""
    return int(INT_STR_DIGITS / 0.30103 / rate_bits) + 1


def _cli_command(rng: random.Random, kind: str, index: int, work: Path) -> list[str]:
    name = f"k{index}"
    models, traces, problems = work / "models", work / "traces", work / "problems"
    if kind == "capacity_bundled":
        choice = rng.choice(("toy", "mix", "mmix"))
        extra = ["--param", f"mu={rand_mu(rng)}"] if choice == "mmix" else []
        return ["capacity", str(DATA / f"{choice}.json"), *extra]
    if kind in ("capacity_generated", "distribution_generated", "capacity_param"):
        model = random_model(rng, name, rng.randint(3, 60), param_share=0.5 if kind == "capacity_param" else 0.0)
        write_json(models / f"{name}.json", model)
        extra = ["--param", f"mu={rand_mu(rng)}"] if "parameters" in model else []
        return [kind.split("_")[0], str(models / f"{name}.json"), *extra]
    if kind == "distribution_bundled":
        choice = rng.choice(("toy", "mix", "mmix"))
        extra = ["--param", f"mu={rand_mu(rng)}"] if choice == "mmix" else []
        return ["distribution", str(DATA / f"{choice}.json"), *extra]
    if kind == "efficiency_bundled":
        return ["efficiency", str(DATA / "toy.json"), str(DATA / "toy-trace.txt"), "--order", str(rng.randint(0, 3))]
    if kind in ("efficiency_generated", "efficiency_order3"):
        # Order-3 scoring of about 18k symbols over 25 symbols is the slowest
        # successful command, alike in every cycle: it sets cli-cold's p90,
        # and its k-gram tables set the peak RSS.
        heavy = kind == "efficiency_order3"
        alphabet = TRACE_ALPHABETS[TRACE_TAIL_SET] if heavy else rng.choice(TRACE_ALPHABETS)
        model, symbols = trace_model(rng, name, alphabet)
        write_json(models / f"{name}.json", model)
        states = markov_trace(rng, len(symbols), jitter(rng, 18000) if heavy else rng.randint(2000, 8000))
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{name}.txt").write_text(trace_text(rng, symbols, states), encoding="utf-8")
        order = 3 if heavy else rng.randint(0, 2)
        return ["efficiency", str(models / f"{name}.json"), str(traces / f"{name}.txt"), "--order", str(order)]
    if kind == "count_toy":
        return ["count", str(DATA / "toy.json"), "--max-time", str(rng.randint(100, 2000))]
    if kind == "count_generated":
        # Integer times, rates of a few bits: N(T) stays under the limit.
        model = random_model(rng, name, rng.randint(2, 8), count_bits=3, time_lo=1, time_hi=12, max_terms=20, integer_times=True)
        write_json(models / f"{name}.json", model)
        return ["count", str(models / f"{name}.json"), "--max-time", str(rng.randint(50, 300))]
    if kind == "count_mmix":
        return ["count", str(DATA / "mmix.json"), "--param", f"mu={rng.randint(1, 3)}", "--max-time", str(rng.randint(50, 400))]
    if kind == "count_past_limit":
        # mmix grows ~31.1 bits per time unit: T >= 460 passes 4,300 digits.
        # Horizons stay at most twice the limit so a fixed render stays cheap.
        first = _digits_limit_horizon(31.12)
        horizon = rng.randint(int(1.1 * first), min(1000, 2 * first))
        return ["count", str(DATA / "mmix.json"), "--param", f"mu={rng.randint(1, 3)}", "--max-time", str(horizon)]
    if kind == "optimize_bundled":
        return ["optimize-memory", str(DATA / "memory-example.json")]
    spec = memory_problem(rng, name, rng.randint(20, 60), index, False, work)
    if kind == "optimize_vertex":
        return ["optimize-memory", spec["problem"]]
    return ["optimize-memory", spec["problem"], "--mode", "grid", "--step", str(spec["step"])]


def cli_cold(rng: random.Random, work: Path) -> dict:
    queries = []
    for _ in range(CLI_CYCLES):
        kinds = list(CLI_CYCLE)
        rng.shuffle(kinds)
        for kind in kinds:
            argv = _cli_command(rng, kind, len(queries), work) + ["--json"]
            queries.append({"kind": kind, "argv": argv})
    return {"queries": queries, "pass_size": len(CLI_CYCLE), "queries_per_s": CLI_RATE}


GENERATORS = {
    "solve-stream": solve_stream,
    "trace-scoring": trace_scoring,
    "memory-design": memory_design,
    "cli-cold": cli_cold,
}


# --- reference rows (ROADMAP baseline table), fixed inputs independent of --seed ---


def reference_inputs(work: Path) -> dict:
    rng = random.Random(20100318)
    random_1000 = random_model(rng, "random1000", 1000, family_share=0.0)
    write_json(work / "ref" / "random1000.json", random_1000)
    model, symbols = trace_model(rng, "ref_trace", 25)
    write_json(work / "ref" / "trace-model.json", model)
    states = markov_trace(rng, len(symbols), 200_000)
    (work / "ref" / "trace.txt").write_text(trace_text(rng, symbols, states), encoding="utf-8")
    return {
        "random1000": str(work / "ref" / "random1000.json"),
        "trace_model": str(work / "ref" / "trace-model.json"),
        "trace": str(work / "ref" / "trace.txt"),
    }
