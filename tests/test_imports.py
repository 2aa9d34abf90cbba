"""Modules of the package share only public names with each other."""

import ast
import dataclasses
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from compucap import (
    BoundClass, InstructionClass, ParameterBinding, TimeExpression, bind, count_sequences, data_path, parse_model,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "compucap"
MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_names_imported_from_sibling_modules(path):
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "compucap")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"


def test_traced_layers_exist():
    """Every entry point the benchmark tracer wraps is still there to wrap."""
    if not TRACER.exists():
        pytest.skip("perfbench/tracer.py is absent")
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    )
    missing = []
    for module_name, names in layers.items():
        module = importlib.import_module(f"compucap.{module_name}")
        for name in names:
            owner, _, method = name.rpartition(".")
            if owner:
                ok = isinstance(vars(getattr(module, owner, object)).get(method), classmethod)
            else:
                ok = callable(getattr(module, name, None))
            if not ok:
                missing.append(f"{module_name}.{name}")
    assert not missing, f"traced layers missing: {missing}"


def test_package_attribute_edges():
    import compucap

    with pytest.raises(AttributeError, match="no_such_name"):
        compucap.no_such_name
    assert set(compucap.__all__) <= set(dir(compucap))
    with pytest.raises(FileNotFoundError, match="no-such.json"):
        compucap.data_path("no-such.json")


@pytest.mark.parametrize("name", ["../solver.py", "../data/mix.json", "mix.json/.", "..", ""])
def test_data_path_takes_only_a_bare_file_name(name):
    import compucap

    with pytest.raises(FileNotFoundError) as info:
        compucap.data_path(name)
    assert str(info.value) == f"no bundled data file named {name!r}"


def test_data_path_refuses_even_the_absolute_path_of_a_bundled_file():
    import compucap

    with pytest.raises(FileNotFoundError, match="no bundled data file named"):
        compucap.data_path(str(compucap.data_path("mix.json")))


def load_tracer():
    if not TRACER.exists():
        pytest.skip("perfbench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, terms, digits", [("toy.json", 60, 12), ("mix.json", 540, 255)])
def test_the_tracer_counts_a_class_as_a_family_of_one_term(name, terms, digits):
    # _count_counters takes any member that answers num_terms for a family
    tracer = load_tracer()
    bound = bind(parse_model(data_path(name).read_text()), ParameterBinding())
    counters = tracer._count_counters((bound, 30), {}, count_sequences(bound, 30))
    assert counters == {"counting.recurrence_terms": terms, "counting.max_digits": digits}


@pytest.mark.parametrize(
    "member",
    [InstructionClass("c", 3, TimeExpression(2)), BoundClass("c", 3, Fraction(2))],
    ids=["InstructionClass", "BoundClass"],
)
def test_a_class_answers_as_a_family_of_one_term_outside_its_fields(member):
    assert member.count_per_term == member.count
    assert member.time_base == member.time
    assert (member.num_terms, member.step) == (1, 0)
    assert [f.name for f in dataclasses.fields(member)] == ["name", "count", "time"]
    assert dataclasses.asdict(member).keys() == {"name", "count", "time"}
