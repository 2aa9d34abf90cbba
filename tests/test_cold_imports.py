"""Each entry point loads only the package modules it runs.

Every case runs in a fresh interpreter, since the test process itself has
long since loaded the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "compucap" / "data"

REPORT = """
import json, sys, types
import compucap
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.startswith("compucap.")),
    "efficiency_is_function": isinstance(compucap.efficiency, types.FunctionType),
}))
"""


def run_fresh(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(*argv: str) -> dict:
    return run_fresh(
        "import contextlib, io\n"
        "from compucap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )


def test_importing_the_package_loads_no_submodule():
    assert run_fresh("import compucap\n")["loaded"] == []


def test_importing_the_cli_loads_only_the_model():
    assert run_fresh("import compucap.cli\n")["loaded"] == ["compucap.cli", "compucap.model"]


SOLVE = ["compucap.cli", "compucap.efficiency", "compucap.model", "compucap.solver"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["capacity", str(DATA / "toy.json")], SOLVE),
        (["distribution", str(DATA / "toy.json")], SOLVE),
        (["efficiency", str(DATA / "toy.json"), str(DATA / "toy-trace.txt")], SOLVE),
        (
            ["count", str(DATA / "toy.json"), "--max-time", "8"],
            ["compucap.cli", "compucap.counting", "compucap.model"],
        ),
        (
            ["optimize-memory", str(DATA / "memory-example.json")],
            ["compucap.cli", "compucap.memory", "compucap.model", "compucap.solver"],
        ),
    ],
    ids=["capacity", "distribution", "efficiency", "count", "optimize-memory"],
)
def test_each_subcommand_loads_only_its_layers(argv, loaded):
    assert run_cli(*argv)["loaded"] == loaded


@pytest.mark.parametrize(
    "code",
    [
        "import compucap.efficiency\n",
        "import compucap.efficiency as m\nassert isinstance(m, types.FunctionType)\n",
        "from compucap import optimal_distribution\n",
    ],
    ids=["import-submodule", "import-as", "from-import"],
)
def test_efficiency_stays_the_function_whatever_loads_the_module(code):
    report = run_fresh("import types\n" + code)
    assert "compucap.efficiency" in report["loaded"]
    assert report["efficiency_is_function"]


def test_efficiency_stays_the_function_after_a_cli_command():
    report = run_cli("capacity", str(DATA / "toy.json"))
    assert report["efficiency_is_function"]


def test_the_module_is_reached_through_importlib():
    report = run_fresh(
        "import importlib, compucap\n"
        "module = importlib.import_module('compucap.efficiency')\n"
        "assert module.efficiency is compucap.efficiency\n"
        "assert module.optimal_distribution is compucap.optimal_distribution\n"
    )
    assert report["efficiency_is_function"]
