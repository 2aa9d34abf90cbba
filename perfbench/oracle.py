"""Independent answer checks; none of them imports compucap.

- Capacities: the characteristic sum g(y) = sum over instructions of
  2**(-tau*y) is evaluated in mpmath just below and just above the
  reported y*; it must cross 1 in between.  Families use their closed
  geometric sum.
- Traces: plug-in entropies of orders 0..k from collections.Counter over
  the wrapped windows, plus the order-monotonicity that wrapping ensures.
- Counts: N(T) from the benchmark's own recurrence, with exact integers.

Each check returns a list of problems; an empty list means the answer
is right.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath

mpmath.mp.dps = 40

# The answer y* must be within this distance of the true root.
ROOT_WINDOW = 1e-9
RESIDUAL_LIMIT = 1e-10
GRID_SLACK = 1e-10
ENTROPY_TOL = 1e-9

_POW2 = re.compile(r"\s*(\d+)\s*\*\s*2\s*\^\s*(\d+)\s*\Z")


def read_json(path) -> object:
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_float=Fraction)


def count_value(value) -> int:
    if isinstance(value, int):
        return value
    m = _POW2.match(value)
    return int(m.group(1)) << int(m.group(2))


def time_value(value, params: dict) -> Fraction:
    if isinstance(value, dict):
        total = Fraction(value["base"])
        for name, coeff in value.get("coeffs", {}).items():
            total += Fraction(coeff) * Fraction(params[name])
        return total
    return Fraction(value)


def members(model: dict, params: dict) -> list[tuple[str, int, Fraction, Fraction, int]]:
    """(name, count per term, time, step, terms) per member; classes have one term."""
    out = []
    for obj in model["classes"]:
        fam = obj.get("family")
        step = Fraction(fam["step"]) if fam else Fraction(0)
        terms = count_value(fam["terms"]) if fam else 1
        out.append((obj["name"], count_value(obj["count"]), time_value(obj["time"], params), step, terms))
    return out


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def member_weight(member, y):
    """count * sum over terms of 2**(-time*y), in mpmath."""
    _, count, time, step, terms = member
    w = count * mpmath.power(2, -_mpf(time) * y)
    if terms > 1:
        a = _mpf(step) * y * mpmath.ln2
        w *= mpmath.expm1(-terms * a) / mpmath.expm1(-a)
    return w


def g(mems, y):
    y = mpmath.mpf(y)
    if y == 0:
        return mpmath.mpf(sum(m[1] * m[4] for m in mems))
    return mpmath.fsum(member_weight(m, y) for m in mems)


def check_capacity(mems, y: float, what: str) -> list[str]:
    """y must bracket the root of g(y) = 1 within ROOT_WINDOW * max(1, y)."""
    if not math.isfinite(y) or y < 0:
        return [f"{what}: capacity {y!r} is not a finite non-negative number"]
    total = sum(m[1] * m[4] for m in mems)
    if total == 1:
        return [] if y == 0 else [f"{what}: one instruction has capacity 0, got {y!r}"]
    delta = ROOT_WINDOW * max(1.0, y)
    below, above = g(mems, max(0.0, y - delta)), g(mems, y + delta)
    if not below > 1 > above:
        return [f"{what}: g does not cross 1 around y*={y!r} (g(y-d)={mpmath.nstr(below, 15)}, g(y+d)={mpmath.nstr(above, 15)})"]
    return []


def check_masses(mems, y: float, masses: dict, what: str) -> list[str]:
    """Each reported member mass must equal its weight at y* to 1e-8."""
    problems = []
    by_name = {m[0]: m for m in mems}
    for name, mass in masses.items():
        expect = float(member_weight(by_name[name], mpmath.mpf(y)))
        if abs(mass - expect) > 1e-8 * expect:
            problems.append(f"{what}: mass of {name} is {mass!r}, expected {expect!r}")
    return problems


# --- traces ---


def canonical(token: str) -> str:
    name, sep, anno = token.partition("@")
    return f"{name}@{Fraction(anno)}" if sep else name


def trace_expectation(mems, text: str, max_order: int) -> dict:
    """Mean time, per-order entropy (bits/instruction) and length of a trace.

    Entropy adds the frequency-weighted log2(count) of choosing among a
    member's equally likely instructions, as the program's report does.
    """
    tokens = [canonical(t) for t in text.split()]
    codes: dict[str, int] = {}
    seq = [codes.setdefault(t, len(codes)) for t in tokens]
    n = len(seq)
    by_name = {m[0]: m for m in mems}
    freq0 = Counter(seq)
    mean_time = 0.0
    within = 0.0
    for token, code in codes.items():
        name, sep, anno = token.partition("@")
        _, count, time, _, _ = by_name[name]
        t = Fraction(anno) if sep else time
        mean_time += freq0[code] / n * float(t)
        within += freq0[code] / n * math.log2(count)
    extended = seq + seq[:max_order]
    entropies = []
    for order in range(max_order + 1):
        grams = Counter(zip(*(extended[i : i + n] for i in range(order + 1))))
        h = -sum(c / n * math.log2(c / n) for c in grams.values())
        entropies.append(h / (order + 1) + within)
    return {"length": n, "mean_time": mean_time, "entropies": entropies}


def check_trace(expect: dict, length: int, mean_time: float, orders: list, what: str) -> list[str]:
    """orders holds (order, entropy_bits, efficiency_bits) for orders 0..k."""
    problems = []
    if length != expect["length"]:
        problems.append(f"{what}: length {length}, expected {expect['length']}")
    if abs(mean_time - expect["mean_time"]) > 1e-12 * expect["mean_time"]:
        problems.append(f"{what}: mean time {mean_time!r}, expected {expect['mean_time']!r}")
    previous = math.inf
    for order, h, eff in orders:
        want = expect["entropies"][order]
        if abs(h - want) > ENTROPY_TOL * max(1.0, want):
            problems.append(f"{what}: order-{order} entropy {h!r}, expected {want!r}")
        if abs(eff - h / expect["mean_time"]) > ENTROPY_TOL * max(1.0, eff):
            problems.append(f"{what}: order-{order} efficiency {eff!r} is not entropy over mean time")
        if h > previous + 1e-12:
            problems.append(f"{what}: order-{order} entropy {h!r} rises above order-{order - 1}")
        previous = h
    return problems


# --- counting ---


def count_table(mems, max_time: int) -> list[int]:
    """N(0..max_time) by the recurrence N(T) = sum_t m(t) N(T - t)."""
    mult: dict[int, int] = {}
    for _, count, time, step, terms in mems:
        for index in range(terms):
            t = time + index * step
            if t > max_time:
                break
            mult[int(t)] = mult.get(int(t), 0) + count
    items = sorted(mult.items())
    table = [1] + [0] * max_time
    for total in range(1, max_time + 1):
        table[total] = sum(m * table[total - t] for t, m in items if t <= total)
    return table


def decimal_digits(n: int) -> int:
    """Digits of n without str(), which refuses ints past the digit limit."""
    if n == 0:
        return 1
    d = max(1, int((n.bit_length() - 1) * math.log10(2)))
    while n >= 10**d:
        d += 1
    return d


# --- memory design ---


def instantiate(problem: dict, base_dir: Path, cells: dict) -> list:
    """Members of the base set plus registers*count*cells per access class."""
    base = problem["base"]
    if isinstance(base, str):
        base = read_json(base_dir / base)
    params = problem.get("parameters", {})
    mems = members(base, params)
    registers = count_value(problem["registers"])
    for kind in problem["kinds"]:
        n = cells.get(kind["name"], 0)
        for j, ac in enumerate(kind["access_classes"]):
            if n:
                mems.append((f"{kind['name']}/{j}", registers * count_value(ac["count"]) * n, time_value(ac["time"], params), Fraction(0), 1))
    return mems


def check_allocation(problem: dict, base_dir: Path, cells: dict, y: float, residual: float, what: str) -> list[str]:
    problems = []
    budget = Fraction(problem["budget"])
    cost = sum(Fraction(k["cell_cost"]) * cells.get(k["name"], 0) for k in problem["kinds"])
    if cost > budget:
        problems.append(f"{what}: allocation {cells} costs {cost} over budget {budget}")
    if not residual <= RESIDUAL_LIMIT:
        problems.append(f"{what}: residual {residual!r} above {RESIDUAL_LIMIT}")
    return problems + check_capacity(instantiate(problem, base_dir, cells), y, what)
