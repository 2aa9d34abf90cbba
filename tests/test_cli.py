import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from compucap import data_path
from compucap.cli import build_parser, main, render_json
from test_memory import OVERFLOW_PROBLEM, REFUSED_BASE_PROBLEM

TOY = str(data_path("toy.json"))
MIX = str(data_path("mix.json"))
MMIX = str(data_path("mmix.json"))
TRACE = str(data_path("toy-trace.txt"))
MEMORY = str(data_path("memory-example.json"))
REPO = Path(__file__).resolve().parent.parent

# every bundled input exercised through --json (determinism matters there)
GOLDEN_INVOCATIONS = [
    ("capacity", TOY, "--json"),
    ("capacity", MIX, "--json"),
    ("capacity", MMIX, "--param", "mu=1.2", "--json"),
    ("distribution", TOY, "--json"),
    ("distribution", MMIX, "--param", "mu=1", "--json"),
    ("efficiency", TOY, TRACE, "--order", "2", "--json"),
    ("count", TOY, "--max-time", "16", "--json"),
    ("optimize-memory", MEMORY, "--json"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capacity_text_output(capsys):
    code, out, err = run_cli(capsys, "capacity", TOY)
    assert code == 0
    assert err == ""
    assert "capacity_bits = 1.27155330316361" in out


def test_capacity_json_fields(capsys):
    code, out, _ = run_cli(capsys, "capacity", MIX, "--json")
    assert code == 0
    report = json.loads(out)
    results = report["results"]
    assert results["set"] == "mix"
    assert abs(results["capacity_bits"] - 28.1699250025039337) < 1e-9
    assert results["residual"] <= 1e-10
    assert results["total_instructions"] == 2**28 + 2**26 + 2**26 + 2**25 + 2**25 * (
        2**25 + 1
    )
    assert len(results["top_terms"]) == 5
    assert results["top_terms"][0]["member"] == "t1"
    assert report["inputs"]["model"]["sha256"]


def test_capacity_respects_parameter(capsys):
    code, out, _ = run_cli(capsys, "capacity", MMIX, "--param", "mu=1.2", "--json")
    assert code == 0
    value = json.loads(out)["results"]["capacity_bits"]
    assert abs(value - 31.1189410728686680) < 1e-9


def test_distribution_masses_sum_to_one(capsys):
    code, out, _ = run_cli(capsys, "distribution", TOY, "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(results["mass_total"] - 1.0) < 1e-10
    members = {m["member"]: m for m in results["members"]}
    assert members["fast"]["mass"] == pytest.approx(0.8284271247461901, abs=1e-12)
    assert members["slow"]["per_instruction"] == pytest.approx(
        0.1715728752538099, abs=1e-12
    )


def test_distribution_reports_family_members():
    # the subcommand's own results: rendering rounds floats to 15 digits
    args = build_parser().parse_args(["distribution", MIX])
    _, results, warnings = args.func(args)
    move = next(m for m in results["members"] if m["member"] == "move")
    assert warnings == []
    assert move["kind"] == "family"
    assert (move["count_per_term"], move["num_terms"]) == (33554432, 33554433)
    assert (move["time_base"], move["step"]) == (1, 2)
    assert move["per_instruction_base"] == 2.0 ** (-1.0 * results["capacity_bits"])


def test_efficiency_report(capsys):
    code, out, _ = run_cli(
        capsys, "efficiency", TOY, TRACE, "--order", "2", "--json"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["trace_length"] == 60
    assert results["mean_time"] == pytest.approx(4 / 3, abs=1e-12)
    orders = results["orders"]
    assert [o["order"] for o in orders] == [0, 1, 2]
    effs = [o["efficiency_bits"] for o in orders]
    assert effs == sorted(effs, reverse=True)
    assert all(0.0 <= o["utilization"] <= 1.0 for o in orders)


CLASS_AND_FAMILY = (
    '{"name": "f", "classes": [{"name": "c", "count": 2, "time": 1},'
    ' {"name": "g", "count": 3, "time": "1/2", "family": {"step": 1, "terms": 3}}]}'
)


def test_efficiency_reads_any_spelling_of_a_trace(capsys, tmp_path):
    model, trace = tmp_path / "f.json", tmp_path / "trace.txt"
    model.write_text(CLASS_AND_FAMILY)
    reports = []
    for text in ("c g@1.5 c@1 g@3/2 g@6/4", "c g@3/2 c g@3/2 g@3/2"):
        trace.write_text(text)
        code, out, err = run_cli(capsys, "efficiency", str(model), str(trace), "--order", "2", "--json")
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    mixed, canonical = reports
    assert mixed["results"] == canonical["results"]
    assert mixed["inputs"]["trace"].pop("sha256") != canonical["inputs"]["trace"].pop("sha256")
    assert mixed == canonical


def test_efficiency_of_a_trace_of_many_chunks_scores_its_whole_split(capsys, tmp_path):
    from compucap import ParameterBinding, bind, efficiency_from_trace, parse_model

    model, trace = tmp_path / "f.json", tmp_path / "trace.txt"
    model.write_text(CLASS_AND_FAMILY)
    rng = random.Random(0x1CE)
    spaces = [" ", "\n", "\t", "\x1c", "\x85", "\xa0", "\u3000"]
    text = "".join(
        rng.choice(spaces) + rng.choice(["c", "c@1", "g@1/2", "g@1.5", "g@6/4"]) for _ in range(60_000)
    )
    trace.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "efficiency", str(model), str(trace), "--order", "3", "--json")
    assert (code, err) == (0, "")
    bound = bind(parse_model(CLASS_AND_FAMILY), ParameterBinding.from_strings([]))
    report = efficiency_from_trace(bound, text.split(), 3)
    results = json.loads(out)["results"]
    assert results["trace_length"] == report.length == 60_000
    # the report prints 15 significant digits
    assert results["mean_time"] == pytest.approx(report.mean_time, rel=1e-14)
    entropies = [o.entropy_bits for o in report.orders]
    assert [o["entropy_bits"] for o in results["orders"]] == pytest.approx(entropies, rel=1e-14)


def test_efficiency_names_the_first_bad_trace_token(capsys, tmp_path):
    model, trace = tmp_path / "f.json", tmp_path / "trace.txt"
    model.write_text(CLASS_AND_FAMILY)
    trace.write_text("c g@x 9bad")
    code, out, err = run_cli(capsys, "efficiency", str(model), str(trace), "--json")
    assert (code, out, err) == (2, "", "error: invalid time annotation in 'g@x'\n")


@pytest.mark.parametrize(
    "text, order, message",
    [
        ("zz c@3", 0, "unknown instruction symbol 'zz'"),
        ("zz", 5, "unknown instruction symbol 'zz'"),
        ("g zz", 0, "symbol 'g' is a family; annotate its time as g@time"),
        ("zz g", 0, "unknown instruction symbol 'zz'"),
        ("c@1.0 g@2 zz", 0, "'g@2': time 2 is not one of the family's terms"),
        ("c", -1, "order must be >= 0, got -1"),
    ],
)
def test_efficiency_names_the_first_fault_of_any_kind(capsys, tmp_path, text, order, message):
    model, trace = tmp_path / "f.json", tmp_path / "trace.txt"
    model.write_text(CLASS_AND_FAMILY)
    trace.write_text(text)
    code, out, err = run_cli(capsys, "efficiency", str(model), str(trace), f"--order={order}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_efficiency_refuses_kgram_work_past_the_bound(capsys, tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(" ".join(random.Random(0xB0B).choices(["fast", "slow"], k=20_000)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "efficiency", TOY, str(trace), "--order", "100", "--json")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: trace of length 20000 at order 100 is past the k-gram bound: "
        "length * (order + 1)^2 must be at most 25,000,000\n"
    )


def test_count_report(capsys):
    code, out, _ = run_cli(capsys, "count", TOY, "--max-time", "8", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["counts"] == [1, 2, 5, 12, 29, 70, 169, 408, 985]
    assert results["estimate_bits"] == pytest.approx(1.242997489, abs=1e-6)


def test_count_unreachable_time_warns(capsys, tmp_path):
    model = tmp_path / "even.json"
    model.write_text(
        '{"name": "even", "classes": [{"name": "a", "count": 1, "time": {"base": 2}}]}'
    )
    code, out, _ = run_cli(capsys, "count", str(model), "--max-time", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["estimate_bits"] is None
    assert any("time 3" in w for w in report["warnings"])


def test_optimize_memory_vertex(capsys):
    code, out, _ = run_cli(capsys, "optimize-memory", MEMORY, "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["label"] == "kind1"
    assert results["cells"]["kind1"] == 2**30
    assert results["cells"]["kind2"] == 0
    assert results["total_cost"] == 1
    assert abs(results["capacity_bits"] - 31.1189411177462391) < 1e-9
    assert results["justification"]


def test_optimize_memory_grid_mode(capsys, tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(
        '{"base": {"name": "b", "classes": [{"name": "x", "count": 2, "time": 1}]},'
        ' "registers": 1, "budget": 2,'
        ' "kinds": [{"name": "A", "cell_cost": 1,'
        ' "access_classes": [{"count": 2, "time": 1}]},'
        ' {"name": "B", "cell_cost": 2,'
        ' "access_classes": [{"count": 2, "time": 1}]}]}'
    )
    code, out, _ = run_cli(
        capsys, "optimize-memory", str(problem), "--mode", "grid", "--json"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["cells"] == {"A": 2, "B": 0}
    assert abs(results["capacity_bits"] - 2.584962500721156) < 1e-11


def test_optimize_memory_warns_of_a_capacity_tie(capsys, tmp_path):
    twin = {"name": "k1", "cell_cost": 1, "access_classes": [{"count": 2, "time": 1}]}
    problem = tmp_path / "twins.json"
    problem.write_text(json.dumps({
        "base": {"name": "b", "classes": [{"name": "x", "count": 2, "time": 1}]},
        "registers": 1,
        "budget": 2,
        "kinds": [twin, {**twin, "name": "k2"}],
    }))
    warning = "capacity tie within 1e-11 against: k2"
    code, out, err = run_cli(capsys, "optimize-memory", str(problem))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["command: optimize-memory", f"warning: {warning}"]
    assert "label = k1" in lines
    assert "tie_with.0 = k2" in lines
    code, out, err = run_cli(capsys, "optimize-memory", str(problem), "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["warnings"] == [warning]
    assert (report["results"]["label"], report["results"]["tie_with"]) == ("k1", ["k2"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--step", "2"], "--step applies only to --mode grid"),
        (["--mode", "vertex", "--step", "1"], "--step applies only to --mode grid"),
        (["--mode", "grid", "--step", "0"], "step must be a positive integer, got 0"),
    ],
    ids=["default-vertex", "vertex", "grid-step-0"],
)
def test_step_is_refused_outside_grid_mode(capsys, argv, message):
    # vertex mode walks no grid, so a step there would be parsed and ignored
    code, out, err = run_cli(capsys, "optimize-memory", MEMORY, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv", [["--mode", "vertex"], ["--mode", "grid"], ["--mode", "grid", "--step", "3"]],
    ids=["vertex", "grid", "grid-step-3"],
)
def test_a_zero_access_time_exits_3_whatever_the_mode_and_step(capsys, tmp_path, argv):
    # at step 3 no cell of A fits the budget, and the problem is refused all the same
    problem = tmp_path / "zero.json"
    problem.write_text(json.dumps({
        "base": {"name": "b", "classes": [{"name": "x", "count": 2, "time": 1}]},
        "registers": 1,
        "budget": 2,
        "kinds": [{"name": "A", "cell_cost": 1, "access_classes": [{"count": 1, "time": 0}]}],
    }))
    code, out, err = run_cli(capsys, "optimize-memory", str(problem), *argv)
    assert (code, out, err) == (3, "", "error: member 'A/0': evaluated time 0 is not positive\n")


@pytest.mark.parametrize(
    "argv", [["--mode", "vertex"], ["--mode", "grid"], ["--mode", "grid", "--json"]], ids=["vertex", "grid", "grid-json"]
)
def test_a_capacity_past_the_float_range_exits_2_in_either_mode(capsys, tmp_path, argv):
    problem = tmp_path / "overflow.json"
    problem.write_text(json.dumps(OVERFLOW_PROBLEM))
    code, out, err = run_cli(capsys, "optimize-memory", str(problem), *argv)
    assert (code, out, err) == (2, "", "error: set 'b': the capacity lies outside the float range\n")


@pytest.mark.parametrize("mode", ["vertex", "grid"])
def test_a_base_whose_root_is_refused_exits_0_where_the_design_settles_without_it(capsys, tmp_path, mode):
    problem = tmp_path / "refused-base.json"
    problem.write_text(json.dumps(REFUSED_BASE_PROBLEM))
    code, out, err = run_cli(capsys, "optimize-memory", str(problem), "--mode", mode, "--json")
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert (results["cells"], results["capacity_bits"]) == ({"K": 4}, 3.58496250072116)


def test_param_override_merges_into_problem(capsys):
    code_base, out_base, _ = run_cli(capsys, "optimize-memory", MEMORY, "--json")
    code_ovr, out_ovr, _ = run_cli(
        capsys, "optimize-memory", MEMORY, "--param", "mu1=1.4", "--json"
    )
    assert code_base == code_ovr == 0
    base = json.loads(out_base)["results"]["capacity_bits"]
    ovr = json.loads(out_ovr)["results"]["capacity_bits"]
    assert ovr < base  # slowing kind1's accesses can only hurt


def _memory_example_with(tmp_path, parameters: dict) -> str:
    """memory-example.json with its `parameters` replaced."""
    doc = json.loads(Path(MEMORY).read_text(encoding="utf-8"))
    doc["parameters"] = parameters
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    return str(problem)


@pytest.mark.parametrize(
    "parameters",
    [{"mu2": 1.4}, {"mu1": -1, "mu2": 1.4}],
    ids=["file-omits-mu1", "file-mu1-negative"],
)
def test_param_supplies_or_replaces_a_file_parameter(capsys, tmp_path, parameters):
    # --param is laid over the file's values before the problem is built,
    # so it can bind a value the file leaves out or gets wrong
    problem = _memory_example_with(tmp_path, parameters)
    code, out, err = run_cli(capsys, "optimize-memory", problem, "--param", "mu1=2", "--json")
    assert (code, err) == (0, "")
    _, expected, _ = run_cli(capsys, "optimize-memory", MEMORY, "--param", "mu1=2", "--json")
    assert json.loads(out)["results"] == json.loads(expected)["results"]


def test_base_read_from_a_path_is_an_input(capsys, tmp_path):
    # the same problem file over two different base files: the reports
    # must tell the runs apart by their inputs
    problem = tmp_path / "problem.json"
    problem.write_text(
        '{"base": "base.json", "registers": 1, "budget": 2,'
        ' "kinds": [{"name": "A", "cell_cost": 1, "access_classes": [{"count": 2, "time": 1}]}]}'
    )
    base = tmp_path / "base.json"
    inputs = []
    for count in (2, 3):
        base.write_text('{"name": "b", "classes": [{"name": "x", "count": %d, "time": 1}]}' % count)
        code, out, err = run_cli(capsys, "optimize-memory", str(problem), "--json")
        assert (code, err) == (0, "")
        inputs.append(json.loads(out)["inputs"])
        assert inputs[-1] == {
            role: {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            for role, path in (("problem", problem), ("base", base))
        }
    assert inputs[0] != inputs[1]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_input_digests_are_the_sha256_of_each_files_bytes(capsys, tmp_path, newline):
    # the parser reads each line end as "\n", so the results match the LF
    # files', but each digest is the file's own, as sha256sum gives it
    problem = (
        '{"base": "base.json", "registers": 1, "budget": 2,\n'
        ' "kinds": [{"name": "A", "cell_cost": 1, "access_classes": [{"count": 2, "time": 1}]}]}\n'
    )
    runs = []
    for sub, line_end in (("lf", "\n"), ("other", newline)):
        folder = tmp_path / sub
        folder.mkdir()
        paths = {}
        for role, name, text in (
            ("model", "toy.json", Path(TOY).read_text()),
            ("trace", "trace.txt", Path(TRACE).read_text()),
            ("problem", "problem.json", problem),
            ("base", "base.json", Path(TOY).read_text()),
        ):
            paths[role] = folder / name
            paths[role].write_bytes(text.replace("\n", line_end).encode())
        runs.append([])
        for argv, roles in (
            (["capacity", paths["model"]], ["model"]),
            (["efficiency", paths["model"], paths["trace"], "--order", "2"], ["model", "trace"]),
            (["optimize-memory", paths["problem"]], ["problem", "base"]),
        ):
            code, out, err = run_cli(capsys, *map(str, argv), "--json")
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert report["inputs"] == {
                role: {"path": str(paths[role]), "sha256": hashlib.sha256(paths[role].read_bytes()).hexdigest()}
                for role in roles
            }
            runs[-1].append(report["results"])
    assert b"\r" in (tmp_path / "other" / "base.json").read_bytes()
    assert runs[0] == runs[1]


def test_param_undeclared_by_the_problem_exits_3(capsys):
    code, out, err = run_cli(capsys, "optimize-memory", MEMORY, "--param", "zz=1")
    assert (code, out, err) == (3, "", "error: undeclared parameter 'zz'\n")


@pytest.mark.parametrize(
    "argv, name",
    [(("capacity", MMIX), "mu"), (("optimize-memory", MEMORY), "mu1")],
    ids=["capacity", "optimize-memory"],
)
def test_a_repeated_param_name_exits_2(capsys, argv, name):
    # a value given twice is refused, not silently replaced by the last
    code, out, err = run_cli(capsys, *argv, "--param", f"{name}=1", "--param", f"{name}=2")
    assert (code, out, err) == (2, "", f"error: duplicate parameter {name!r}\n")


def test_optimize_memory_builds_the_problem_once(capsys, monkeypatch):
    from compucap.memory import MemoryDesignProblem

    built = []
    post_init = MemoryDesignProblem.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(MemoryDesignProblem, "__post_init__", counting_post_init)
    code, _, _ = run_cli(capsys, "optimize-memory", MEMORY, "--param", "mu1=1.4")
    assert code == 0
    assert len(built) == 1


def test_missing_parameter_exits_3(capsys):
    code, out, err = run_cli(capsys, "capacity", MMIX, "--json")
    assert code == 3
    assert out == ""  # never a partial report
    assert "missing parameter" in err


def test_undeclared_parameter_exits_3(capsys):
    code, out, err = run_cli(capsys, "capacity", MIX, "--param", "mu=1", "--json")
    assert code == 3
    assert out == ""
    assert "undeclared parameter" in err


def test_malformed_model_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"')
    code, out, err = run_cli(capsys, "capacity", str(bad))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "capacity", str(tmp_path / "nope.json"))
    assert code == 2
    assert out == ""


def test_render_json_literals():
    value = {"b": [True, False], "e": {}, "f": [math.inf, -math.inf, math.nan]}
    assert render_json(value) == (
        '{\n  "b": [\n    true,\n    false\n  ],\n  "e": {},\n'
        '  "f": [\n    "inf",\n    "-inf",\n    "nan"\n  ]\n}'
    )
    with pytest.raises(TypeError, match="^cannot render object$"):
        render_json(object())


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        main(["capacity", TOY, "--frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("capacity", TOY),
        ("distribution", TOY),
        ("efficiency", TOY, TRACE),
        ("count", TOY, "--max-time", "8"),
        ("optimize-memory", MEMORY),
    ],
    ids=["capacity", "distribution", "efficiency", "count", "optimize-memory"],
)
def test_every_command_refuses_a_tolerance(capsys, argv):
    # the solver's bracket is fixed at solver.TOLERANCE
    with pytest.raises(SystemExit) as info:
        main([*argv, "--tolerance", "1e-9"])
    assert info.value.code == 2
    assert "unrecognized arguments: --tolerance 1e-9" in capsys.readouterr().err


def test_family_past_two_to_the_512_terms_solves(capsys, tmp_path):
    # a family of 2^608 terms, past the 2^512 where the square of its term
    # count overflows; root 608.0901537706483 (mpmath, 50 digits)
    model = tmp_path / "g2.json"
    model.write_text(json.dumps({"name": "g", "classes": [
        {"name": "f", "count": 1, "time": 1, "family": {"step": "1e-200", "terms": "1*2^608"}},
        {"name": "b", "count": "1*2^300", "time": "0.5"},
    ]}))
    code, out, err = run_cli(capsys, "capacity", str(model), "--json")
    assert (code, err) == (0, "")
    y = json.loads(out)["results"]["capacity_bits"]
    assert abs(y - 608.0901537706483) <= max(1e-12, 4 * math.ulp(y))


def test_rational_time_count_suggests_scale(capsys, tmp_path):
    model = tmp_path / "half.json"
    model.write_text(
        '{"name": "h", "classes": [{"name": "a", "count": 2, "time": "1/2"}]}'
    )
    code, out, err = run_cli(capsys, "count", str(model), "--max-time", "4")
    assert code == 2
    assert "by 2" in err


def test_count_with_a_scale_past_the_digit_limit_names_the_member(capsys, tmp_path):
    # lcm(3, 10**4300) has 4,301 digits, more than str() converts
    model = tmp_path / "huge-scale.json"
    model.write_text(
        '{"name": "h", "classes": [{"name": "a", "count": 2, "time": "1/3"},'
        ' {"name": "b", "count": 1, "time": "1e-4300"}]}'
    )
    code, out, err = run_cli(capsys, "count", str(model), "--max-time", "3")
    assert code == 2
    assert out == ""
    assert err == (
        "error: counting needs integer times; multiplying every time by "
        "3000000000...0000000000 (4301 digits) would make them integers; the time "
        "of 'b' has the denominator 1000000000...0000000000 (4301 digits)\n"
    )


def test_count_with_a_301_digit_scale_abbreviates_it(capsys, tmp_path):
    model = tmp_path / "long-scale.json"
    model.write_text(
        '{"name": "h", "classes": [{"name": "a", "count": 1, "time": "1e-300"},'
        ' {"name": "b", "count": 1, "time": 1}]}'
    )
    code, out, err = run_cli(capsys, "count", str(model), "--max-time", "3")
    assert code == 2
    assert out == ""
    assert err == (
        "error: counting needs integer times; multiplying every time by "
        "1000000000...0000000000 (301 digits) would make them integers; the time "
        "of 'a' has the denominator 1000000000...0000000000 (301 digits)\n"
    )


@pytest.mark.parametrize(
    "trace, message",
    [
        ("fast@1e4299 fast slow", "error: 'fast@10000000000000000000000000000000000...0000000000': "
         "class 'fast' executes in time 1, not 1000000000...0000000000 (4300 digits)\n"),
        ("fast fast@2 slow", "error: 'fast@2': class 'fast' executes in time 1, not 2\n"),
        ("fast slow fast@%s" % ("9" * 5000), "error: invalid time annotation in "
         "'fast@99999999999999999999999999999999999...9999999999'\n"),
    ],
    ids=["4300-digit-time", "short-time", "past-the-digit-limit"],
)
def test_trace_annotation_errors_stay_short(capsys, tmp_path, trace, message):
    path = tmp_path / "trace.txt"
    path.write_text(trace + "\n")
    code, out, err = run_cli(capsys, "efficiency", TOY, str(path))
    assert code == 2
    assert out == ""
    assert err == message
    assert len(err.encode()) < 300


@pytest.mark.parametrize("argv", GOLDEN_INVOCATIONS, ids=lambda a: " ".join(a[:2]))
def test_json_output_byte_identical_across_runs(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    json.loads(first[1])  # and it must be real JSON


@pytest.mark.parametrize(
    "argv, files, warnings",
    [
        (["capacity", TOY], {"model": TOY}, []),
        (["distribution", TOY], {"model": TOY}, []),
        (["efficiency", TOY, TRACE], {"model": TOY, "trace": TRACE}, []),
        (["count", TOY, "--max-time", "0"], {"model": TOY}, ["growth-rate estimate needs max-time >= 1"]),
        (["optimize-memory", MEMORY], {"problem": MEMORY}, []),
    ],
    ids=["capacity", "distribution", "efficiency", "count", "optimize-memory"],
)
def test_every_command_reports_in_one_envelope(capsys, argv, files, warnings):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == ["command", "inputs", "results", "warnings"]
    assert report["command"] == argv[0]
    assert report["warnings"] == warnings
    assert report["inputs"] == {
        role: {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
        for role, path in files.items()
    }
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"command: {argv[0]}"
    assert lines[1 : 1 + len(warnings)] == [f"warning: {w}" for w in warnings]
    assert not lines[1 + len(warnings)].startswith("warning: ")


def child_env():
    """Environment whose PYTHONPATH puts this checkout's src first, so a child
    process imports the code under test whatever its working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return env


def console_script_launcher():
    """argv prefix that runs the [project.scripts] compucap entry point the way
    an installed console script does: import the callable, exit with its result."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["compucap"]
    module, _, func = target.partition(":")
    source = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", source]


def test_console_script_matches_in_process(capsys):
    code, out, _ = run_cli(capsys, "capacity", TOY, "--json")
    proc = subprocess.run(
        [*console_script_launcher(), "capacity", TOY, "--json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert code == 0 and proc.returncode == 0
    assert proc.stdout == out + "\n" or proc.stdout == out


@pytest.mark.skipif(
    shutil.which("compucap") is None,
    reason="compucap console script not installed on PATH",
)
def test_installed_console_script_matches_in_process(capsys):
    code, out, _ = run_cli(capsys, "capacity", TOY, "--json")
    proc = subprocess.run(
        ["compucap", "capacity", TOY, "--json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert code == 0 and proc.returncode == 0
    assert proc.stdout == out + "\n" or proc.stdout == out


def test_huge_family_terms_capacity(capsys, tmp_path):
    model = tmp_path / "huge.json"
    model.write_text(
        '{"name": "huge", "classes": [{"name": "g", "count": 1, "time": 1,'
        ' "family": {"step": 1, "terms": "1*2^2000"}}]}'
    )
    code, out, err = run_cli(capsys, "capacity", str(model), "--json")
    assert code == 0
    assert err == ""
    assert abs(json.loads(out)["results"]["capacity_bits"] - 1.0) <= 1e-12


def test_capacity_past_float_range_exits_2(capsys, tmp_path):
    model = tmp_path / "tiny.json"
    model.write_text(
        '{"name": "tiny", "classes": [{"name": "a", "count": 2, "time": 1e-320}]}'
    )
    code, out, err = run_cli(capsys, "capacity", str(model))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "outside the float range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["capacity", "distribution"])
def test_newton_step_past_the_float_range_of_g_exits_0(capsys, tmp_path, command):
    # the first Newton step lands where g is about 2^1092, past the float
    # range (see test_solver.test_step_landing_past_the_float_range_of_g_continues)
    model = tmp_path / "ovf.json"
    model.write_text(
        '{"name": "ovf", "classes": [{"name": "a", "count": "1*2^1830", "time": "1e100"},'
        ' {"name": "b", "count": "1*2^1092", "time": "1e-300"}]}'
    )
    code, out, err = run_cli(capsys, command, str(model), "--json")
    assert code == 0
    assert err == ""
    assert "Traceback" not in out
    assert json.loads(out)["results"]["capacity_bits"] == pytest.approx(1.092e303, rel=1e-12)


@pytest.mark.parametrize("command", ["capacity", "distribution"])
def test_huge_class_beside_a_huge_family_exits_0(capsys, tmp_path, command):
    # at y = 0 the family's weight underflows to 0 beside the class's and
    # its mean index is inf: 0 * inf made the slope nan and the run exit 2
    model = tmp_path / "deep.json"
    model.write_text(
        '{"name": "deep", "classes": [{"name": "a", "count": "1*2^5000", "time": 1},'
        ' {"name": "g", "count": 1, "time": 1, "family": {"step": 1, "terms": "1*2^2000"}}]}'
    )
    code, out, err = run_cli(capsys, command, str(model), "--json")
    assert code == 0
    assert err == ""
    results = json.loads(out)["results"]
    assert results["capacity_bits"] == 5000
    if command == "capacity":
        assert results["iterations"] == 3


@pytest.mark.parametrize("command", ["capacity", "distribution", "efficiency"])
def test_wide_model_is_refused_today_though_its_root_is_a_float(capsys, tmp_path, command):
    # Pins today's refusal.  A family past 2^1023 terms stalls Newton at
    # y = 0 (see test_solver.test_wide_family_is_refused_today_though_its_root_is_a_float),
    # yet the root is a float, between 9.999999999999998e300 and
    # 9.999999999999999e300.
    model = tmp_path / "wide.json"
    model.write_text(
        '{"name": "wide", "classes": [{"name": "a", "count": 1, "time": "1e-301",'
        ' "family": {"step": "1e-301", "terms": "1*2^2000"}}, {"name": "b", "count": 1, "time": 1}]}'
    )
    trace = tmp_path / "trace.txt"
    trace.write_text("b b b\n")
    argv = [command, str(model)] + ([str(trace)] if command == "efficiency" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: set 'wide': no root found in 10000 iterations at float precision\n"


@pytest.mark.parametrize("time", ["1e-400", "1e400"])
@pytest.mark.parametrize("command", ["capacity", "efficiency"])
def test_time_outside_float_range_exits_2(capsys, tmp_path, command, time):
    model = tmp_path / "range.json"
    model.write_text(
        '{"name": "r", "classes": [{"name": "a", "count": 1, "time": %s},'
        ' {"name": "b", "count": 1, "time": 1}]}' % time
    )
    trace = tmp_path / "trace.txt"
    trace.write_text("a b a b\n")
    argv = [command, str(model)] + ([str(trace)] if command == "efficiency" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "outside the float range" in err


@pytest.mark.parametrize("step", ["1e-400", "1e400"])
@pytest.mark.parametrize("command", ["capacity", "distribution", "efficiency"])
def test_one_term_family_step_outside_float_range_exits_0(capsys, tmp_path, command, step):
    # a one-term family is a class: its step enters no sum, so it need not be a float
    model = tmp_path / "one.json"
    model.write_text(
        '{"name": "o", "classes": [{"name": "a", "count": 2, "time": 1}, {"name": "f",'
        ' "count": 1, "time": 2, "family": {"step": "%s", "terms": 1}}]}' % step
    )
    trace = tmp_path / "trace.txt"
    trace.write_text("a f@2 a\n")
    argv = [command, str(model)] + ([str(trace)] if command == "efficiency" else [])
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["capacity_bits"] == 1.27155330316361


def test_closed_stdout_exits_1_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the child's first write fails with EPIPE
    try:
        proc = subprocess.run(
            [*console_script_launcher(), "distribution", MMIX, "--param", "mu=1", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_stdout_closed_mid_report_exits_1_quietly():
    # the report is about 1.7 MB, far past a pipe's buffer, so the child is
    # still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "compucap.cli", "count", TOY, "--max-time", "3000", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    try:
        assert proc.stdout.read(16)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


@pytest.mark.parametrize("command", ["capacity", "distribution"])
def test_results_carry_capacity_once(capsys, command):
    code, out, _ = run_cli(capsys, command, TOY, "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert "capacity_bits" in results
    assert "log2_x0" not in results


HUGE = "1e10000000"
MODEL_WITH = '{"name": "m", "classes": [{"name": "a", "count": 2, "time": %s}]}'
PROBLEM_WITH = (
    '{"base": {"name": "b", "classes": [{"name": "x", "count": 2, "time": 1}]},'
    ' "registers": 1, "budget": %s, "parameters": {"mu": %s},'
    ' "kinds": [{"name": "A", "cell_cost": %s,'
    ' "access_classes": [{"count": 1, "time": {"base": 1, "coeffs": {"mu": 1}}}]}]}'
)


@pytest.mark.parametrize("spelling", [HUGE, f'"{HUGE}"', "1e-10000000"], ids=["number", "string", "negative"])
@pytest.mark.parametrize("where", ["time", "budget", "parameters", "cell_cost"])
def test_huge_decimal_exponent_exits_2_at_once(capsys, tmp_path, where, spelling):
    path = tmp_path / "input.json"
    if where == "time":
        path.write_text(MODEL_WITH % spelling)
        argv = ["capacity", str(path)]
    else:
        values = {"budget": "1", "parameters": "1", "cell_cost": "1", where: spelling}
        path.write_text(PROBLEM_WITH % (values["budget"], values["parameters"], values["cell_cost"]))
        argv = ["optimize-memory", str(path)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "decimal exponent above 4300 in magnitude" in err


def test_huge_decimal_exponent_in_param_flag_exits_2(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "capacity", MMIX, "--param", f"mu={HUGE}")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "decimal exponent above 4300" in err


@pytest.mark.parametrize("exponent", [-300, 300])
@pytest.mark.parametrize("quote", ["", '"'])
def test_float_range_decimal_exponents_still_parse(exponent, quote):
    from compucap import parse_model, parse_problem

    spelling = f"{quote}1e{exponent}{quote}"
    exact = Fraction(10) ** exponent
    assert parse_model(MODEL_WITH % spelling).members[0].time.base == exact
    problem = parse_problem(PROBLEM_WITH % (spelling, spelling, spelling))
    assert problem.budget == problem.binding.values["mu"] == problem.kinds[0].cell_cost == exact


@pytest.mark.parametrize("annotation", ["1e5000", HUGE])
def test_huge_trace_time_annotation_exits_2_at_once(capsys, tmp_path, annotation):
    # 1e5000 once built a 5001-digit time that str() refused, in a message
    # that named no token; 1e10000000 took seconds to build
    trace = tmp_path / "trace.txt"
    trace.write_text(f"fast@{annotation} fast slow\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "efficiency", TOY, str(trace))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"invalid time annotation in 'fast@{annotation}'" in err


@pytest.mark.parametrize(
    "where, spelling, message",
    [
        ("time", "\u0661", "invalid rational '\u0661': expected ASCII digits"),
        ("time", "\uff11", "invalid rational '\uff11': expected ASCII digits"),
        ("time", "1\u0660", "invalid rational '1\u0660': expected ASCII digits"),
        ("count", "\u0662*2^\u0663", "invalid count '\u0662*2^\u0663'"),
        ("count", "2*2^\u0663", "invalid count '2*2^\u0663'"),
        ("annotation", "\u0661", "invalid time annotation in 'fast@\u0661'"),
        ("param", "\u0661", "invalid rational '\u0661': expected ASCII digits"),
        ("cell_cost", "\u0661", "invalid rational '\u0661': expected ASCII digits"),
        ("budget", "\uff11", "invalid rational '\uff11': expected ASCII digits"),
        ("parameters", "\u0661", "invalid rational '\u0661': expected ASCII digits"),
    ],
    ids=[
        "time-arabic-indic", "time-fullwidth", "time-mixed", "count", "count-exponent",
        "trace-annotation", "param-flag", "cell-cost", "budget", "problem-parameter",
    ],
)
def test_non_ascii_digits_exit_2(capsys, tmp_path, where, spelling, message):
    # Fraction and re's \d take any Unicode digit; the spellings are ASCII
    path = tmp_path / "input.json"
    if where == "time":
        path.write_text(MODEL_WITH % json.dumps(spelling))
        argv = ["capacity", str(path)]
    elif where == "count":
        path.write_text('{"name": "m", "classes": [{"name": "a", "count": %s, "time": 1}]}' % json.dumps(spelling))
        argv = ["capacity", str(path)]
    elif where == "annotation":
        path.write_text(f"fast@{spelling} fast slow\n", encoding="utf-8")
        argv = ["efficiency", TOY, str(path)]
    elif where == "param":
        argv = ["capacity", MMIX, "--param", f"mu={spelling}"]
    else:
        values = {"budget": "1", "parameters": "1", "cell_cost": "1", where: json.dumps(spelling)}
        path.write_text(PROBLEM_WITH % (values["budget"], values["parameters"], values["cell_cost"]))
        argv = ["optimize-memory", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("spelling", ['" +1_0 "', '"+3/4"', '" 2.5"', '"1_0e-1"'])
def test_ascii_underscore_plus_and_spaces_still_parse(spelling):
    from compucap import parse_model

    expected = Fraction(json.loads(spelling).replace(" ", ""))
    assert parse_model(MODEL_WITH % spelling).members[0].time.base == expected


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, files, message",
    [
        ("capacity", {"input.json": DEEP}, "model: nested too deeply"),
        ("optimize-memory", {"input.json": DEEP}, "problem: nested too deeply"),
        (
            "optimize-memory",
            {"input.json": '{"base": "base.json", "registers": 1, "budget": 1, "kinds": []}', "base.json": DEEP},
            "base model 'base.json': nested too deeply",
        ),
    ],
    ids=["model", "problem", "base-model"],
)
def test_deeply_nested_json_exits_2(capsys, tmp_path, command, files, message):
    # the JSON decoder recurses once per level, past its depth into RecursionError
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, command, str(tmp_path / "input.json"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "command, text, what",
    [
        ("capacity", '{"name": "m", "classes": [{"name": "a", "count": 2, "time": %s}]}', "model"),
        ("capacity", '{"name": "m", "classes": [{"name": "a", "count": %s, "time": 1}]}', "model"),
        (
            "optimize-memory",
            '{"base": {"name": "b", "classes": [{"name": "a", "count": 2, "time": 1}]},'
            ' "registers": 1, "budget": %s, "kinds": []}',
            "problem",
        ),
    ],
    ids=["model-time", "model-count", "problem-budget"],
)
def test_non_json_constant_exits_2(capsys, tmp_path, command, text, what, constant):
    # Python's json decodes NaN, Infinity and -Infinity, which JSON has not
    path = tmp_path / "input.json"
    path.write_text(text % constant)
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"error: {what}: invalid JSON constant {constant!r}\n")
