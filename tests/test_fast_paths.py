"""The exact fast paths of model parsing agree with the general ones.

decimal_fraction builds plain spellings ("12", "-3/4", "1.25") from ints
and hands every other spelling to Fraction(text); as_rational returns a
Fraction as it is; check_ident tests identifiers without a regex.  Each
is compared here with the general path written out in full, on a corpus
of spellings that covers both sides of every branch: the same value (and
type), or the same exception type and message.
"""

import json
import random
import re
from fractions import Fraction

import pytest

from compucap import (
    InstructionClass,
    InstructionFamily,
    InstructionSet,
    ModelError,
    ParameterBinding,
    TimeExpression,
    bind,
    parse_model,
)
from compucap.model import as_rational, check_ident, decimal_fraction


def reference_decimal_fraction(text):
    _, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-0_").replace("_", "")
    if e and digits.isdigit() and (len(digits) > 9 or int(digits) > 4300):
        raise ValueError("decimal exponent above 4300 in magnitude")
    return Fraction(text)


def reference_as_rational(value):
    if isinstance(value, bool) or not isinstance(value, (int, float, str, Fraction)):
        raise ModelError(f"expected a rational number, got {value!r}")
    try:
        return reference_decimal_fraction(value) if isinstance(value, str) else Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ModelError(f"invalid rational {value!r}: {exc}") from None


def outcome(fn, value):
    try:
        result = fn(value)
    except Exception as exc:  # compared by type and message
        return ("raises", type(exc), str(exc))
    return ("returns", type(result), result)


SPELLINGS = [
    "0", "-0", "00", "007", "-007", "1", "-1", "+1", "12345678901234567890",
    "1.5", "-1.5", "1.50", "0.000", "-0.0", "00.10", "1.", "-1.", ".5", "-.5", ".",
    "3/4", "-3/4", "+3/4", "3/-4", "-3/-4", "06/08", "-0/5", "3/0", "-3/0", "0/0",
    "3 / 4", " 3/4", "3/4 ", "\t2", "1\n", "1 000", "1_000", "1_000.5", "1__0",
    "_1", "1_", "1e3", "1E3", "1e-3", "1e+3", "1.5e+2", "-1.5e-2", "2.e1", ".5e1",
    "1e4300", "1e-4300", "1e4301", "1e-4301", "1e99999999999", "1e0_1", "1/2e3",
    "", "-", "+", "/", "/2", "2/", "1..2", "1/2/3", "1.5/2", "1/2.5", "1.2.3",
    "abc", "nan", "inf", "-inf", "0x10", "1j", "--1", "-+1",
    "١٢", "²", "1²", "١.٥", "٣/٤", "１",
    "1" * 639, "1" * 640, "1" * 641, "-" + "1" * 639, "-" + "1" * 640,
    "1" * 4300, "1" * 4301, "-" + "1" * 4301,
    "1" * 319 + "." + "2" * 320, "1" * 320 + "." + "2" * 320,
    "1" * 2000 + "." + "2" * 2000, "1" * 4301 + ".5", "1." + "0" * 5000,
    "1" * 320 + "/" + "3" * 319, "1" * 4301 + "/3", "3/" + "1" * 4301,
    "-" + "9" * 300 + "/" + "7" * 300,
]


def random_spellings(rng, n):
    """Spellings assembled from the parts of the decimal grammar, mostly
    valid, some broken."""
    def digits():
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 12)))

    out = []
    for _ in range(n):
        text = rng.choice(["", "", "", "-", "+", " ", "-0"]) + digits()
        kind = rng.random()
        if kind < 0.3:
            text += "." + digits()
        elif kind < 0.6:
            text += "/" + digits()
        elif kind < 0.7:
            text += rng.choice(["e", "E", "e-", "e+"]) + digits()
        elif kind < 0.75:
            text += rng.choice(["_", " ", "\n", "a"]) + digits()
        out.append(text)
    return out


def test_decimal_fraction_matches_the_general_path():
    corpus = SPELLINGS + random_spellings(random.Random(10), 3000)
    for text in corpus:
        assert outcome(decimal_fraction, text) == outcome(reference_decimal_fraction, text), text


def test_as_rational_matches_the_general_path():
    class Half(Fraction):
        pass

    values = SPELLINGS + random_spellings(random.Random(11), 1000) + [
        0, -3, 10**5000, True, False, 1.5, -0.0, 1e-320, 1e308, float("nan"), float("inf"),
        Fraction(3, 4), Fraction(-7), Half(1, 2), None, [], {}, b"1", 1j,
    ]
    for value in values:
        assert outcome(as_rational, value) == outcome(reference_as_rational, value), repr(value)[:80]


def test_as_rational_returns_a_fraction_itself():
    value = Fraction(22, 7)
    assert as_rational(value) is value
    assert type(as_rational(7)) is Fraction
    # a subclass is converted, as Fraction(value) converts it
    assert type(as_rational(type("F", (Fraction,), {})(1, 3))) is Fraction


def test_check_ident_matches_the_identifier_regex():
    ident = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
    rng = random.Random(12)
    alphabet = "aZ_09 -.\né١²K"
    names = ["a", "_", "A1", "9a", "", "a b", "a\n", "class", "é", "KK"] + [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4))) for _ in range(3000)
    ]
    for name in names:
        assert (outcome(lambda n: check_ident(n, "name"), name)[0] == "returns") == bool(
            ident.match(name)
        ), repr(name)
    for value in (5, None, b"a", ["a"]):
        with pytest.raises(ModelError, match="name must be an identifier"):
            check_ident(value, "name")


# --- whole models: the parse against a build from plain JSON and the dataclasses ---


def spell(rng, value):
    """`value` as a model file may write it: integer, decimal or "p/q"."""
    if value.denominator == 1 and rng.random() < 0.7:
        return int(value)
    if 10**6 % value.denominator == 0 and rng.random() < 0.5:
        return float(value)
    return f"{value.numerator}/{value.denominator}"


def random_model_text(rng, index):
    size = rng.choice((2, 3, 5, 12, 40, 150))
    with_mu = rng.random() < 0.4
    classes = []
    for i in range(size):
        base = Fraction(rng.randint(1, 400), rng.choice((1, 2, 4, 5, 8, 10, 3)))
        time = spell(rng, base)
        if with_mu and rng.random() < 0.3:
            time = {"base": time, "coeffs": {"mu": spell(rng, Fraction(rng.randint(0, 8), 2))}}
        count = rng.randint(1, 2**10)
        member = {"name": f"m{i}", "count": count if rng.random() < 0.7 else f"{count}*2^{rng.randint(0, 30)}", "time": time}
        if rng.random() < 0.15:
            member["family"] = {"step": spell(rng, Fraction(rng.randint(1, 12), 2)), "terms": rng.randint(2, 1000)}
        classes.append(member)
    doc = {"name": f"model{index}", "classes": classes}
    if with_mu:
        doc["parameters"] = ["mu"]
    return json.dumps(doc, indent=rng.choice((None, 1)))


def reference_set(text):
    doc = json.loads(text, parse_float=Fraction)

    def count(value):
        if isinstance(value, int):
            return value
        a, b = value.split("*2^")
        return int(a) * 2 ** int(b)

    def time(value):
        if not isinstance(value, dict):
            return TimeExpression(Fraction(value))
        return TimeExpression(
            Fraction(value["base"]), {k: Fraction(v) for k, v in value.get("coeffs", {}).items()}
        )

    members = []
    for c in doc["classes"]:
        if "family" in c:
            fam = c["family"]
            members.append(
                InstructionFamily(c["name"], count(c["count"]), time(c["time"]), Fraction(fam["step"]), fam["terms"])
            )
        else:
            members.append(InstructionClass(c["name"], count(c["count"]), time(c["time"])))
    return InstructionSet(doc["name"], tuple(doc.get("parameters", [])), tuple(members))


def test_parse_model_equals_the_plain_json_build():
    rng = random.Random(13)
    for index in range(200):
        text = random_model_text(rng, index)
        parsed, reference = parse_model(text), reference_set(text)
        assert parsed == reference
        assert repr(parsed) == repr(reference)
        binding = ParameterBinding({"mu": Fraction(rng.randint(0, 20), 4)} if parsed.parameters else {})
        assert bind(parsed, binding) == bind(reference, binding)


# --- invalid models: every message exactly as before ---

M = (
    '{"name": "x", "parameters": ["mu"], "classes": [{"name": "a", "count": 1, "time": 1},'
    ' {"name": "b", "count": 1, "time": 2}, %s]}'
)

INVALID = [
    ('{"classes": []}', "model file: missing 'name' (requires 'name', 'classes')"),
    ('{"name": "x", "classes": []}', "set 'x': members must be non-empty"),
    ('{"name": "x", "classes": [{"name": "a", "count": 0, "time": 1}]}', "class 'a': count must be >= 1"),
    (
        '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1}, {"name": "a", "count": 1, "time": 2}]}',
        "duplicate member name 'a'",
    ),
    (
        '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1, "family": {"step": 0, "terms": 3}}]}',
        "family 'a': step must be > 0",
    ),
    (
        '{"name": "x", "classes": [{"name": "a", "count": 1, "time": {"base": 1, "coeffs": {"nu": 1}}}]}',
        "member 'a' references undeclared parameter 'nu'",
    ),
    (
        '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1, "family": {"step": 1, "terms": 0}}]}',
        "family 'a': terms must be >= 1",
    ),
    ('{"name": "x", "classes": [{"name": "9x", "count": 1, "time": 1}]}', "member name must be an identifier, got '9x'"),
    ('{"name": 5, "classes": [{"name": "a", "count": 1, "time": 1}]}', "set name must be an identifier, got 5"),
    ('{"name": "x", "classes": [5]}', "classes[0]: expected an object"),
    ('{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1, "speed": 2}]}', "classes[0]: unknown key 'speed'"),
    ('{"name": "x", "classes": [{"name": "a", "time": 1}]}', "classes[0]: missing 'count' (requires 'name', 'count', 'time')"),
    (
        '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1, "family": {"step": 1, "terms": 2, "stride": 1}}]}',
        "classes[0] family: unknown key 'stride'",
    ),
    (
        '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1, "family": {"step": 1}}]}',
        "classes[0] family: missing 'terms' (requires 'step', 'terms')",
    ),
    (
        '{"name": "x", "classes": [{"name": "a", "count": 1, "time": {"base": 1, "scale": 2}}]}',
        "classes[0] time: unknown key 'scale'",
    ),
    (
        '{"name": "x", "classes": [{"name": "a", "count": 1, "time": {"coeffs": {}}}]}',
        "classes[0] time: missing 'base' (requires 'base')",
    ),
    (
        '{"name": "x", "parameters": ["mu"], "classes": [{"name": "a", "count": 1, "time": {"base": 1, "coeffs": ["mu"]}}]}',
        "classes[0] time coeffs: expected an object",
    ),
    (
        '{"name": "x", "parameters": "mu", "classes": [{"name": "a", "count": 1, "time": {"base": 1, "coeffs": {"mu": 1}}}]}',
        "parameters: expected a list",
    ),
    ('{"name": "x", "classes": {"a": {"count": 1, "time": 1}}}', "classes: expected a list"),
    (
        '{"name": "x", "classes": [{"name": "a", "count": "1*2^1000001", "time": 1}]}',
        "classes[0] count: invalid count '1*2^1000001': exponent above 1000000",
    ),
    (
        '{"name": "x", "parameters": ["mu", "mu"], "classes": [{"name": "a", "count": 1, "time": 1}]}',
        "duplicate parameter 'mu'",
    ),
    ("[1]", "model file: expected an object"),
    (M % '{"name": "c", "count": 1, "time": -1}', "time base must be non-negative, got -1"),
    (M % '{"name": "c", "count": 1, "time": "-3/2"}', "time base must be non-negative, got -3/2"),
    (M % '{"name": "c", "count": 1, "time": -0.5}', "time base must be non-negative, got -1/2"),
    (M % '{"name": "c", "count": 1, "time": {"base": 1, "coeffs": {"mu": -1}}}', "coefficient of 'mu' must be non-negative"),
    (
        M % '{"name": "c", "count": 1, "time": {"base": 1, "coeffs": {"9mu": 1}}}',
        "parameter name must be an identifier, got '9mu'",
    ),
    (M % '{"name": "c", "count": 1, "time": "1/0"}', "invalid rational '1/0': Fraction(1, 0)"),
    (M % '{"name": "c", "count": 1, "time": [1]}', "classes[2] time: expected an object"),
    (M % '{"name": "c", "count": 1, "time": true}', "expected a rational number, got True"),
    (M % '{"name": "c", "count": true, "time": 1}', "classes[2] count: invalid count True"),
    (M % '{"name": "c", "count": 1, "time": 1, "family": {"step": -1, "terms": 2}}', "family 'c': step must be > 0"),
    (M % '{"name": "c", "count": 1, "time": 1, "family": 3}', "classes[2] family: expected an object"),
    (M % '{"name": "c", "count": 1, "time": {"base": 1, "coeffs": 5}}', "classes[2] time coeffs: expected an object"),
    (
        M % '{"name": "c", "count": 1, "time": {"base": 1, "coeffs": {"mu": 1}, "x": 1}}',
        "classes[2] time: unknown key 'x'",
    ),
    (M % '{"name": "c", "count": 1, "time": 1e-4301}', "model: decimal exponent above 4300 in magnitude"),
    (
        M % '{"name": "c", "count": 1, "time": "1e99999"}',
        "invalid rational '1e99999': decimal exponent above 4300 in magnitude",
    ),
    (M % '{"name": "c", "count": 1}', "classes[2]: missing 'time' (requires 'name', 'count', 'time')"),
    (M % "7", "classes[2]: expected an object"),
    (M % '{"name": "c", "count": 1.5, "time": 1}', "classes[2] count: invalid count 3/2"),
    (M % '{"name": "c", "count": null, "time": 1}', "classes[2] count: invalid count None"),
    (
        M % '{"name": "c", "count": 2.0, "time": 1}',
        'classes[2] count: invalid count 2: written as a decimal; expected integer or "a*2^b"',
    ),
    (
        M % '{"name": "c", "count": 2e3, "time": 1}',
        'classes[2] count: invalid count 2000: written as a decimal; expected integer or "a*2^b"',
    ),
    (
        M % '{"name": "c", "count": 1, "time": 1, "family": {"step": 1, "terms": 3.0}}',
        'classes[2] family terms: invalid count 3: written as a decimal; expected integer or "a*2^b"',
    ),
    (
        M % '{"name": "c", "count": 1e-4300, "time": 1}',
        "classes[2] count: invalid count 1/1000000000...0000000000 (4301 digits)",
    ),
    (
        M % '{"name": "c", "count": 1, "time": 1, "family": {"step": 1, "terms": 2.5}}',
        "classes[2] family terms: invalid count 5/2",
    ),
    (
        M % '{"name": "c", "count": 1, "time": 1, "family": {"step": 1, "terms": "2^3"}}',
        "classes[2] family terms: invalid count '2^3': expected integer or \"a*2^b\"",
    ),
    (
        M % '{"name": "c", "count": 1, "time": 1, "family": {"step": 1, "terms": "1*2^1000001"}}',
        "classes[2] family terms: invalid count '1*2^1000001': exponent above 1000000",
    ),
]


@pytest.mark.parametrize("doc, message", INVALID)
def test_invalid_model_message_is_exact(doc, message):
    with pytest.raises(ModelError) as info:
        parse_model(doc)
    assert type(info.value) is ModelError
    assert str(info.value) == message
