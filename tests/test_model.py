from fractions import Fraction

import pytest

from compucap import (
    BindingError,
    InstructionClass,
    InstructionFamily,
    InstructionSet,
    ModelError,
    ParameterBinding,
    TimeExpression,
    bind,
    data_path,
    parse_model,
    serialize_model,
    total_count,
)
from compucap.memory import AccessClass, MemoryDesignProblem, MemoryKind, ProblemError
from compucap.model import as_rational, brief_int, brief_rational, parse_count

TOY = """
{
  "name": "toy",
  "classes": [
    {"name": "fast", "count": 2, "time": {"base": 1}},
    {"name": "slow", "count": 1, "time": {"base": 2}}
  ]
}
"""


def test_parse_toy_model():
    iset = parse_model(TOY)
    assert iset.name == "toy"
    assert len(iset.members) == 2
    assert total_count(iset) == 3
    fast = iset.members[0]
    assert isinstance(fast, InstructionClass)
    assert fast.count == 2
    assert fast.time.base == 1


def test_parse_count_grammar():
    assert parse_count(7) == 7
    assert parse_count("139*2^24") == 139 * 2**24
    assert parse_count("1*2^0") == 1
    with pytest.raises(ModelError):
        parse_count("2^24")
    with pytest.raises(ModelError):
        parse_count("139*3^24")
    with pytest.raises(ModelError):
        parse_count(True)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        (
            '{"name": "x", "classes": [{"name": "a", "count": "1*2^1000001", "time": 1}]}',
            "exponent above 1000000",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "count": "%s*2^1", "time": 1}]}'
            % ("1" * 5000),
            "invalid count: Exceeds the limit",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "count": %s, "time": 1}]}'
            % ("1" * 5000),
            "model: Exceeds the limit",
        ),
    ],
    ids=["exponent", "digits-in-string", "digits-in-integer"],
)
def test_count_bounds(doc, fragment):
    # 2**b is built in full, and the int-to-str digit limit raises a bare
    # ValueError; both must end in the model's own error
    with pytest.raises(ModelError, match=fragment):
        parse_model(doc)


def test_time_expression_evaluate():
    t = TimeExpression(base=1, coeffs={"mu": 20})
    assert t.evaluate({"mu": Fraction(7, 5)}) == 29
    zero_coeff = TimeExpression(base=2, coeffs={"mu": 2})
    assert zero_coeff.evaluate({"mu": Fraction(0)}) == 2


def test_rationals_as_numbers_and_strings():
    iset = parse_model(
        '{"name": "r", "classes": ['
        '{"name": "a", "count": 1, "time": {"base": 1.5}},'
        '{"name": "b", "count": 1, "time": "3/2"}]}'
    )
    assert iset.members[0].time.base == Fraction(3, 2)
    assert iset.members[1].time.base == Fraction(3, 2)


def test_syntax_error_reports_position():
    with pytest.raises(ModelError, match=r"line \d+, column \d+"):
        parse_model('{"name": "x", "classes": [}')


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ('{"classes": []}', "requires 'name'"),
        ('{"name": "x", "classes": []}', "non-empty"),
        (
            '{"name": "x", "classes": [{"name": "a", "count": 0, "time": 1}]}',
            "count",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1},'
            ' {"name": "a", "count": 1, "time": 2}]}',
            "duplicate member",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1,'
            ' "family": {"step": 0, "terms": 3}}]}',
            "step",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "count": 1,'
            ' "time": {"base": 1, "coeffs": {"nu": 1}}}]}',
            "undeclared parameter 'nu'",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1,'
            ' "family": {"step": 1, "terms": 0}}]}',
            "terms must be >= 1",
        ),
        (
            '{"name": "x", "classes": [{"name": "9x", "count": 1, "time": 1}]}',
            "must be an identifier, got '9x'",
        ),
        (
            '{"name": 5, "classes": [{"name": "a", "count": 1, "time": 1}]}',
            "set name must be an identifier, got 5",
        ),
        ('{"name": "x", "classes": [5]}', r"classes\[0\]: expected an object"),
        (
            '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1, "speed": 2}]}',
            r"classes\[0\]: unknown key 'speed'",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "time": 1}]}',
            r"classes\[0\]: missing 'count'",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1,'
            ' "family": {"step": 1, "terms": 2, "stride": 1}}]}',
            r"classes\[0\] family: unknown key 'stride'",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "count": 1, "time": 1,'
            ' "family": {"step": 1}}]}',
            r"classes\[0\] family: missing 'terms'",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "count": 1,'
            ' "time": {"base": 1, "scale": 2}}]}',
            r"classes\[0\] time: unknown key 'scale'",
        ),
        (
            '{"name": "x", "classes": [{"name": "a", "count": 1, "time": {"coeffs": {}}}]}',
            r"classes\[0\] time: missing 'base'",
        ),
        (
            '{"name": "x", "parameters": ["mu"], "classes": [{"name": "a", "count": 1,'
            ' "time": {"base": 1, "coeffs": ["mu"]}}]}',
            r"classes\[0\] time coeffs: expected an object",
        ),
        (
            '{"name": "x", "parameters": "mu", "classes": [{"name": "a", "count": 1,'
            ' "time": {"base": 1, "coeffs": {"mu": 1}}}]}',
            "parameters: expected a list",
        ),
        (
            '{"name": "x", "classes": {"a": {"count": 1, "time": 1}}}',
            "classes: expected a list",
        ),
    ],
)
def test_validation_errors(doc, fragment):
    with pytest.raises(ModelError, match=fragment):
        parse_model(doc)


def test_bind_evaluates_times():
    iset = parse_model(
        '{"name": "m", "parameters": ["mu"], "classes": ['
        '{"name": "a", "count": 1, "time": {"base": 1, "coeffs": {"mu": 20}}}]}'
    )
    bound = bind(iset, ParameterBinding({"mu": Fraction(7, 5)}))
    assert bound.members[0].time == 29


def test_bind_missing_and_extra_parameters():
    iset = parse_model(
        '{"name": "m", "parameters": ["mu"], "classes": ['
        '{"name": "a", "count": 1, "time": {"base": 1, "coeffs": {"mu": 1}}}]}'
    )
    with pytest.raises(BindingError, match="missing parameter 'mu'"):
        bind(iset, ParameterBinding({}))
    with pytest.raises(BindingError, match="undeclared parameter 'nu'"):
        bind(iset, ParameterBinding({"mu": 1, "nu": 1}))


def test_bind_rejects_nonpositive_time():
    iset = parse_model(
        '{"name": "m", "parameters": ["mu"], "classes": ['
        '{"name": "a", "count": 1, "time": {"base": 0, "coeffs": {"mu": 1}}}]}'
    )
    with pytest.raises(BindingError, match="not positive"):
        bind(iset, ParameterBinding({"mu": 0}))


def test_bind_idempotent_on_parameterless_sets():
    iset = parse_model(TOY)
    once = bind(iset, ParameterBinding({}))
    assert bind(iset, ParameterBinding({})) == once


def test_param_binding_from_strings():
    binding = ParameterBinding.from_strings(["mu=1.2", "nu=3/4"])
    assert binding.values == {"mu": Fraction(6, 5), "nu": Fraction(3, 4)}
    with pytest.raises(ModelError):
        ParameterBinding.from_strings(["mu"])
    with pytest.raises(ModelError, match="^duplicate parameter 'mu'$"):
        ParameterBinding.from_strings(["mu=1", "nu=2", "mu=1"])
    with pytest.raises(BindingError):
        ParameterBinding(values={"mu": -1})


def test_serialize_round_trip():
    iset = parse_model(
        '{"name": "m", "parameters": ["mu"], "classes": ['
        '{"name": "a", "count": "3*2^4", "time": {"base": "1/2", "coeffs": {"mu": 2}}},'
        '{"name": "f", "count": 2, "time": {"base": 1},'
        ' "family": {"step": "2/3", "terms": 5}}]}'
    )
    assert parse_model(serialize_model(iset)) == iset


ONE = TimeExpression(base=1)


def _problem(registers):
    kind = MemoryKind("k", Fraction(1), (AccessClass(1, ONE),))
    return MemoryDesignProblem(parse_model(TOY), registers, (kind,), Fraction(1), ParameterBinding())


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda n: InstructionClass("a", n, ONE), ModelError, "class 'a': count must be >= 1"),
        (lambda n: InstructionFamily("f", n, ONE, Fraction(1), 2), ModelError, "family 'f': count must be >= 1"),
        (lambda n: InstructionFamily("f", 1, ONE, Fraction(1), n), ModelError, "family 'f': terms must be >= 1"),
        (lambda n: AccessClass(n, ONE), ProblemError, "access-class count must be >= 1"),
        (_problem, ProblemError, "registers must be >= 1"),
    ],
    ids=["class-count", "family-count", "family-terms", "access-count", "registers"],
)
@pytest.mark.parametrize("flag", [True, False])
def test_bool_counts_are_refused(build, error, message, flag):
    with pytest.raises(error) as info:
        build(flag)
    assert str(info.value) == message
    build(1)


def test_serialize_never_writes_a_bool_count():
    # a set built with count True once serialized as "count": true, which
    # parse_model refuses
    with pytest.raises(ModelError, match="count must be >= 1"):
        InstructionClass("a", True, ONE)
    iset = InstructionSet("s", (), (InstructionClass("a", 1, ONE),))
    text = serialize_model(iset)
    assert '"count": 1,' in text
    assert parse_model(text) == iset


def test_serialize_round_trip_bundled_models():
    for name in ("toy.json", "mix.json", "mmix.json"):
        iset = parse_model(data_path(name).read_text())
        assert parse_model(serialize_model(iset)) == iset


PARAMETERIZED = (
    '{"name": "m", "parameters": ["mu"], "classes": ['
    '{"name": "a", "count": "3*2^4", "time": {"base": "1/2", "coeffs": {"mu": 2}}},'
    '{"name": "f", "count": 2, "time": {"base": 1, "coeffs": {"mu": "1/3"}},'
    ' "family": {"step": "2/3", "terms": 5}}]}'
)


@pytest.mark.parametrize("name", ["toy.json", "mix.json", "mmix.json", "parameterized"])
def test_parsed_models_hash_and_key_a_dict(name):
    text = PARAMETERIZED if name == "parameterized" else data_path(name).read_text()
    first, second = parse_model(text), parse_model(text)
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert {first: name}[second] == name


def test_mix_model_structure():
    # counts 2^28, 2^26, 2^26, 2^25 and a 2^25-per-term family stepping by 2
    iset = parse_model(data_path("mix.json").read_text())
    classes = [m for m in iset.members if isinstance(m, InstructionClass)]
    family = [m for m in iset.members if isinstance(m, InstructionFamily)]
    assert sorted(c.count for c in classes) == [2**25, 2**26, 2**26, 2**28]
    (move,) = family
    assert move.count_per_term == 2**25
    assert move.time_base.base == 1
    assert move.step == 2
    assert move.num_terms == 2**25 + 1


def test_mix_total_count_exact():
    iset = parse_model(data_path("mix.json").read_text())
    expected = 2**28 + 2**26 + 2**26 + 2**25 + 2**25 * (2**25 + 1)
    assert total_count(iset) == expected


def test_single_member_total():
    iset = InstructionSet(
        name="one",
        parameters=(),
        members=(InstructionClass("only", 1, TimeExpression(base=5)),),
    )
    assert total_count(iset) == 1


def test_as_rational_keeps_floats_exact():
    assert as_rational(1e-13) == Fraction(1e-13) != 0
    assert as_rational(0.1) == Fraction(0.1) != Fraction(1, 10)
    assert ParameterBinding({"mu": 1e-13}).values["mu"] == Fraction(1e-13)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "nan", "inf"])
def test_as_rational_rejects_non_finite(value):
    with pytest.raises(ModelError, match="invalid rational"):
        as_rational(value)


def test_brief_numbers_keep_short_ones_and_abbreviate_long_ones():
    assert brief_int(-(10**29)) == "-100000000000000000000000000000"
    assert brief_int(10**30 + 7) == "1000000000...0000000007 (31 digits)"
    # past the int-to-str digit limit, where str() raises
    assert brief_int(-3 * 10**5000) == "-3000000000...0000000000 (5001 digits)"
    assert brief_rational(Fraction(-7, 2)) == "-7/2"
    assert brief_rational(Fraction(1, 10**40)) == "1/1000000000...0000000000 (41 digits)"
