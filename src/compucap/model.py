"""Declarative instruction-set models.

A model describes a machine's instruction set as (count, execution-time)
aggregates: families of instructions at times base, base+step, ...,
base+(terms-1)*step, `count` per term, and classes of `count` instructions
sharing one time, which read as families of one term (num_terms 1, step 0).

Times are exact rationals and may be affine in named parameters (e.g. a
memory-reference time measured in clock cycles); binding the parameters
produces a bound set on which everything downstream operates.  Counts are
exact integers throughout.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction


class ModelError(ValueError):
    """Model file is malformed or the instruction set is inconsistent."""


class BindingError(ValueError):
    """Parameter values do not match the set's declared parameters."""


_POW2_COUNT_RE = re.compile(r"\s*(\d+)\s*\*\s*2\s*\^\s*(\d+)\s*\Z", re.ASCII)
# the largest b in a count "a*2^b": 2**b takes b/8 bytes to build
_MAX_COUNT_EXPONENT = 1_000_000
# the largest |e| in a decimal "...e<e>": Fraction builds 10**e, which then
# has about as many digits as the int-to-str limit lets a JSON integer have
_MAX_DECIMAL_EXPONENT = 4300
# the smallest int-to-str digit limit Python allows: int() takes any
# shorter digit string, whatever limit is set
_PLAIN_DECIMAL_CHARS = 640
# an integer of more digits prints in a message as its first and last ten
# digits and its length (brief_int)
_BRIEF_DIGITS = 30


class Spellings(dict):
    """key -> resolve(key), filled on first use: a key found here costs one
    dict lookup, and resolve runs once per distinct key, in first-use
    order, so its first error is the first bad key's."""

    __slots__ = ("resolve",)

    def __init__(self, resolve: Callable):
        self.resolve = resolve

    def __missing__(self, key):
        value = self[key] = self.resolve(key)
        return value


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of |n|, without converting it to str."""
    n = abs(n)
    digits = max(1, int((n.bit_length() - 1) * math.log10(2)))
    while n >= 10**digits:
        digits += 1
    return digits


def brief_int(n: int) -> str:
    """str(n), or past _BRIEF_DIGITS digits its first and last ten digits
    and its length, "1000000000...0000000000 (4301 digits)", which also
    holds past the int-to-str digit limit."""
    digits = _decimal_digits(n)
    if digits <= _BRIEF_DIGITS:
        return str(n)
    head, tail = divmod(abs(n), 10 ** (digits - 10))
    return f"{'-' if n < 0 else ''}{head}...{tail % 10**10:010d} ({digits} digits)"


def brief_rational(value: Fraction) -> str:
    """str(value), with numerator and denominator each as brief_int."""
    if value.denominator == 1:
        return brief_int(value.numerator)
    return f"{brief_int(value.numerator)}/{brief_int(value.denominator)}"


def is_ident(text: str) -> bool:
    """Whether `text` matches [A-Za-z_][A-Za-z0-9_]* (an ASCII identifier)."""
    return text.isascii() and text.isidentifier()


def check_ident(name: object, what: str) -> str:
    """`name` itself if it is an identifier; ModelError naming `what` if not."""
    if not isinstance(name, str) or not is_ident(name):
        raise ModelError(f"{what} must be an identifier, got {name!r}")
    return name


def decimal_fraction(text: str) -> Fraction:
    """Fraction(text), refused with ValueError before it is built when text
    is not ASCII (Fraction would take any Unicode digit or space) or the
    decimal exponent exceeds _MAX_DECIMAL_EXPONENT in magnitude.

    The plain spellings -- an integer, "p/q" or "i.f" in ASCII digits with
    an optional leading "-", shorter than any int-to-str digit limit -- are
    built from ints, the value Fraction(text) gives without its regex.
    Every other spelling (exponents, spaces, "_", "+", "1.", ".5", long
    digit strings) goes to Fraction(text).
    """
    if not text.isascii():
        raise ValueError("expected ASCII digits")
    if len(text) <= _PLAIN_DECIMAL_CHARS:
        unsigned = text[1:] if text[:1] == "-" else text
        if unsigned.isdigit():
            return Fraction(int(text))
        head, sep, tail = unsigned.partition("/")
        if not sep:
            head, sep, tail = unsigned.partition(".")
        if head.isdigit() and tail.isdigit():
            if sep == "/":
                return Fraction(int(text[: -len(tail) - 1]), int(tail))
            return Fraction(int(text.replace(".", "")), 10 ** len(tail))
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-0_").replace("_", "")
    # a digit string longer than 9 is past the bound without int()
    if e and digits.isdigit() and (len(digits) > 9 or int(digits) > _MAX_DECIMAL_EXPONENT):
        raise ValueError(f"decimal exponent above {_MAX_DECIMAL_EXPONENT} in magnitude")
    return Fraction(text)


def as_rational(value: int | float | str | Fraction) -> Fraction:
    """Coerce a scalar (int, Fraction, float, "p/q" or decimal string) to an
    exact Fraction; a float keeps its exact binary value.  A Fraction is
    returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, str, Fraction)):
        raise ModelError(f"expected a rational number, got {value!r}")
    try:
        return decimal_fraction(value) if isinstance(value, str) else Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ModelError(f"invalid rational {value!r}: {exc}") from None


def is_count(value: object, least: int = 1) -> bool:
    """Whether value is an int of at least `least`; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def parse_count(value: object, where: str = "count", error: type[ValueError] = ModelError) -> int:
    """Parse an exact count: a plain integer or a product "a*2^b"; `error`
    naming the JSON path `where` if it is neither.  A rational shows as
    brief_rational writes it; an integral one was a JSON decimal, and the
    message says so."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        m = _POW2_COUNT_RE.match(value)
        if not m:
            raise error(f'{where}: invalid count {value!r}: expected integer or "a*2^b"')
        try:
            a, b = int(m.group(1)), int(m.group(2))
        except ValueError as exc:  # past the int-to-str digit limit
            raise error(f"{where}: invalid count: {exc}") from None
        if b > _MAX_COUNT_EXPONENT:
            raise error(f"{where}: invalid count {value!r}: exponent above {_MAX_COUNT_EXPONENT}")
        return a * 2**b
    shown = brief_rational(value) if isinstance(value, Fraction) else repr(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        shown += ': written as a decimal; expected integer or "a*2^b"'
    raise error(f"{where}: invalid count {shown}")


@dataclass(frozen=True)
class TimeExpression:
    """Execution time, affine in named parameters: base + sum(coeff * param).

    == compares coeffs; the hash leaves the dict out, so models hash."""

    base: Fraction = Fraction(0)
    coeffs: Mapping[str, Fraction] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "base", as_rational(self.base))
        object.__setattr__(self, "coeffs", {k: as_rational(v) for k, v in self.coeffs.items()})
        if self.base.numerator < 0:
            raise ModelError(f"time base must be non-negative, got {self.base}")
        for name, coeff in self.coeffs.items():
            check_ident(name, "parameter name")
            if coeff.numerator < 0:
                raise ModelError(f"coefficient of {name!r} must be non-negative")

    @property
    def parameters(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """The time under `values`; a time without coeffs is its base itself."""
        total = self.base
        for name, coeff in self.coeffs.items():
            total += coeff * values[name]
        return total


def check_positive_time(time: Fraction, member: str) -> Fraction:
    """`time` itself if it is > 0; BindingError naming `member` if not."""
    if time.numerator <= 0:
        raise BindingError(f"member {member!r}: evaluated time {time} is not positive")
    return time


class _OneTerm:
    """An instruction class read as a family of one term, by four names that are not dataclass fields."""

    num_terms = 1
    step = 0
    count_per_term = property(lambda self: self.count)
    time_base = property(lambda self: self.time)


@dataclass(frozen=True)
class InstructionClass(_OneTerm):
    """`count` distinct instructions sharing one execution time: a family of one term."""

    name: str
    count: int
    time: TimeExpression

    def __post_init__(self):
        check_ident(self.name, "member name")
        if not is_count(self.count):
            raise ModelError(f"class {self.name!r}: count must be >= 1")


@dataclass(frozen=True)
class InstructionFamily:
    """Instructions at times base + F*step for F = 0..num_terms-1.

    Each of the num_terms time values carries count_per_term instructions.
    """

    name: str
    count_per_term: int
    time_base: TimeExpression
    step: Fraction
    num_terms: int

    def __post_init__(self):
        check_ident(self.name, "member name")
        object.__setattr__(self, "step", as_rational(self.step))
        if not is_count(self.count_per_term):
            raise ModelError(f"family {self.name!r}: count must be >= 1")
        if self.step.numerator <= 0:
            raise ModelError(f"family {self.name!r}: step must be > 0")
        if not is_count(self.num_terms):
            raise ModelError(f"family {self.name!r}: terms must be >= 1")


Member = InstructionClass | InstructionFamily


@dataclass(frozen=True)
class InstructionSet:
    """A named, validated collection of instruction classes and families."""

    name: str
    parameters: tuple[str, ...]
    members: tuple[Member, ...]

    def __post_init__(self):
        check_ident(self.name, "set name")
        object.__setattr__(self, "parameters", tuple(self.parameters))
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ModelError(f"set {self.name!r}: members must be non-empty")
        seen: set[str] = set()
        for p in self.parameters:
            check_ident(p, "parameter name")
            if p in seen:
                raise ModelError(f"duplicate parameter {p!r}")
            seen.add(p)
        names: set[str] = set()
        for m in self.members:
            if m.name in names:
                raise ModelError(f"duplicate member name {m.name!r}")
            names.add(m.name)
            for ref in m.time_base.coeffs:
                if ref not in seen:
                    raise ModelError(
                        f"member {m.name!r} references undeclared parameter {ref!r}"
                    )


@dataclass(frozen=True)
class ParameterBinding:
    """Concrete non-negative values for a set's declared parameters."""

    values: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        vals = {}
        for name, v in self.values.items():
            check_ident(name, "parameter name")
            r = as_rational(v)
            if r.numerator < 0:
                raise BindingError(f"parameter {name!r} must be non-negative")
            vals[name] = r
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_strings(cls, pairs: list[str]) -> "ParameterBinding":
        """Build from CLI-style "name=value" strings, each name given once."""
        values: dict[str, Fraction] = {}
        for pair in pairs:
            name, sep, text = pair.partition("=")
            if not sep or not name:
                raise ModelError(f"expected name=value, got {pair!r}")
            if name in values:
                raise ModelError(f"duplicate parameter {name!r}")
            values[name] = text.strip()
        return cls(values)


@dataclass(frozen=True)
class BoundClass(_OneTerm):
    """An InstructionClass with its time evaluated: a family of one term."""

    name: str
    count: int
    time: Fraction


@dataclass(frozen=True)
class BoundFamily:
    name: str
    count_per_term: int
    time_base: Fraction
    step: Fraction
    num_terms: int


BoundMember = BoundClass | BoundFamily


@dataclass(frozen=True)
class BoundInstructionSet:
    """An instruction set whose times are all concrete positive rationals.

    solver.bound_columns keeps the set's compiled columns in the attribute
    _columns, outside the dataclass fields.
    """

    name: str
    members: tuple[BoundMember, ...]


def check_binding(declared: Iterable[str], binding: ParameterBinding) -> None:
    """BindingError unless `binding` supplies exactly the `declared` parameters."""
    declared = set(declared)
    given = set(binding.values)
    missing = declared - given
    if missing:
        raise BindingError(f"missing parameter {sorted(missing)[0]!r}")
    extra = given - declared
    if extra:
        raise BindingError(f"undeclared parameter {sorted(extra)[0]!r}")


def bind(iset: InstructionSet, binding: ParameterBinding) -> BoundInstructionSet:
    """Evaluate every time expression under `binding`.

    The binding must supply exactly the declared parameters; every evaluated
    time must come out strictly positive.
    """
    check_binding(iset.parameters, binding)
    values = binding.values
    members: list[BoundMember] = []
    for m in iset.members:
        if isinstance(m, InstructionClass):
            members.append(BoundClass(m.name, m.count, check_positive_time(m.time.evaluate(values), m.name)))
        else:
            t0 = check_positive_time(m.time_base.evaluate(values), m.name)
            members.append(BoundFamily(m.name, m.count_per_term, t0, m.step, m.num_terms))
    return BoundInstructionSet(iset.name, tuple(members))


def total_count(iset: InstructionSet | BoundInstructionSet) -> int:
    """Exact total number of individual instructions in the set."""
    return sum(m.count_per_term * m.num_terms for m in iset.members)


# --- model file (JSON) parsing and serialization ---


def _refuse_constant(name: str) -> None:
    """json's parse_constant: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"invalid JSON constant {name!r}")


def load_json(text: str, what: str, error: type[ValueError]) -> object:
    """Decode JSON text with exact rationals; `error` naming `what`, and the
    line and column of a syntax error, if it does not decode."""
    try:
        # each distinct decimal literal is parsed once, to one shared Fraction
        decimals = Spellings(decimal_fraction).__getitem__
        return json.loads(text, parse_float=decimals, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise error(
            f"{what} syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer past the int-to-str digit limit, a
        # decimal exponent past _MAX_DECIMAL_EXPONENT or a non-JSON constant
        raise error(f"{what}: {exc}") from None
    except RecursionError:  # arrays or objects nested past the decoder's depth
        raise error(f"{what}: nested too deeply") from None


def check_object(
    obj: object, where: str, error: type[ValueError], required: tuple[str, ...],
    optional: tuple[str, ...] = (),
) -> dict:
    """`obj` itself if it is a JSON object with every `required` key and no key
    outside `required` and `optional`; `error` naming the JSON path `where`
    if not."""
    if not isinstance(obj, dict):
        raise error(f"{where}: expected an object")
    for key in required:
        if key not in obj:
            raise error(f"{where}: missing {key!r} (requires {', '.join(map(repr, required))})")
    if len(obj) > len(required):
        unknown = (obj.keys() - required).difference(optional)
        if unknown:
            raise error(f"{where}: unknown key {sorted(unknown)[0]!r}")
    return obj


def check_container(
    obj: object, kind: type, where: str, error: type[ValueError]
) -> dict | list:
    """`obj` itself if it is a JSON object (`kind` dict) or list (`kind`
    list); `error` naming the JSON path `where` if not."""
    if not isinstance(obj, kind):
        raise error(f"{where}: expected {'an object' if kind is dict else 'a list'}")
    return obj


def parse_time(obj: object, where: str, error: type[ValueError] = ModelError) -> TimeExpression:
    """A TimeExpression from model JSON: a rational, or {"base", "coeffs"};
    `error` naming the JSON path `where` if it is neither."""
    if isinstance(obj, (int, str, Fraction)):
        return TimeExpression(base=obj)
    check_object(obj, where, error, ("base",), ("coeffs",))
    coeffs = check_container(obj.get("coeffs", {}), dict, f"{where} coeffs", error)
    return TimeExpression(base=obj["base"], coeffs=coeffs)


class _MemberShapeError(ModelError):
    """A shape or count error inside one entry of "classes", its message
    starting at the JSON path below the entry; instruction_set_from_object
    prefixes the entry's own path, so that path is formatted only for a
    model that fails."""


def parse_model(text: str) -> InstructionSet:
    """Parse and validate a model file (see the JSON schema in the README)."""
    return instruction_set_from_object(load_json(text, "model", ModelError))


def instruction_set_from_object(doc: object) -> InstructionSet:
    """Build a validated InstructionSet from already-parsed model JSON.

    Each distinct int or str spelling of a scalar time (not a bool, equal
    to 0 or 1) is parsed once per call, so members that spell a time alike
    share one TimeExpression.  A JSON decimal, one Fraction per literal
    already (load_json), keys no table: too slow to hash."""
    check_object(doc, "model file", ModelError, ("name", "classes"), ("parameters",))
    params = check_container(doc.get("parameters", []), list, "parameters", ModelError)
    classes = check_container(doc["classes"], list, "classes", ModelError)
    times = Spellings(TimeExpression)
    members: list[Member] = []
    try:
        for index, obj in enumerate(classes):
            if not (type(obj) is dict and len(obj) == 3 and "name" in obj and "count" in obj and "time" in obj):
                check_object(obj, "", _MemberShapeError, ("name", "count", "time"), ("family",))
            name, count, time = obj["name"], obj["count"], obj["time"]
            if type(count) is not int:
                count = parse_count(count, " count", _MemberShapeError)
            time = times[time] if type(time) in (int, str) else parse_time(time, " time", _MemberShapeError)
            if len(obj) == 3:
                members.append(InstructionClass(name, count, time))
                continue
            fam = check_object(obj["family"], " family", _MemberShapeError, ("step", "terms"))
            terms = parse_count(fam["terms"], " family terms", _MemberShapeError)
            members.append(InstructionFamily(name, count, time, fam["step"], terms))
    except _MemberShapeError as exc:
        raise ModelError(f"classes[{index}]{exc}") from None
    return InstructionSet(doc["name"], tuple(params), tuple(members))


def _rational_json(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _time_json(time: TimeExpression) -> dict:
    out: dict = {"base": _rational_json(time.base)}
    if time.coeffs:
        out["coeffs"] = {k: _rational_json(v) for k, v in sorted(time.coeffs.items())}
    return out


def serialize_model(iset: InstructionSet) -> str:
    """Render a set back to model-file JSON; parse_model round-trips it."""
    classes = []
    for m in iset.members:
        entry = {"name": m.name, "count": m.count_per_term, "time": _time_json(m.time_base)}
        if isinstance(m, InstructionFamily):
            entry["family"] = {"step": _rational_json(m.step), "terms": m.num_terms}
        classes.append(entry)
    doc = {"name": iset.name, "parameters": list(iset.parameters), "classes": classes}
    return json.dumps(doc, indent=2) + "\n"
