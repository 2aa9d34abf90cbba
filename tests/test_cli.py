import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compucap import data_path
from compucap.cli import main

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


def test_param_override_merges_into_problem(capsys):
    code_base, out_base, _ = run_cli(capsys, "optimize-memory", MEMORY, "--json")
    code_ovr, out_ovr, _ = run_cli(
        capsys, "optimize-memory", MEMORY, "--param", "mu1=1.4", "--json"
    )
    assert code_base == code_ovr == 0
    base = json.loads(out_base)["results"]["capacity_bits"]
    ovr = json.loads(out_ovr)["results"]["capacity_bits"]
    assert ovr < base  # slowing kind1's accesses can only hurt


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


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        main(["capacity", TOY, "--frobnicate"])
    assert info.value.code == 2


def test_rational_time_count_suggests_scale(capsys, tmp_path):
    model = tmp_path / "half.json"
    model.write_text(
        '{"name": "h", "classes": [{"name": "a", "count": 2, "time": "1/2"}]}'
    )
    code, out, err = run_cli(capsys, "count", str(model), "--max-time", "4")
    assert code == 2
    assert "by 2" in err


@pytest.mark.parametrize("argv", GOLDEN_INVOCATIONS, ids=lambda a: " ".join(a[:2]))
def test_json_output_byte_identical_across_runs(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    json.loads(first[1])  # and it must be real JSON


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
