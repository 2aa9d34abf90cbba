"""Each entry point loads only the package modules it runs, and none
loads typing.

Every case runs in a fresh interpreter, since the test process itself has
long since loaded the whole package.  The typing cases start it with -S,
since a site hook may import typing by itself.
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
import json, sys
import compucap
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.startswith("compucap.")),
    "typing": "typing" in sys.modules,
}))
"""

# compucap.efficiency is a plain submodule, bound as in any package
EFFICIENCY_IS_THE_MODULE = """
import sys, types
import compucap
module = sys.modules["compucap.efficiency"]
assert isinstance(module, types.ModuleType)
assert compucap.efficiency is module
assert compucap.efficiency_from_distribution is module.efficiency_from_distribution
"""


def run_fresh(code: str, *flags: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code + REPORT],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def cli_code(*argv: str) -> str:
    return (
        "import contextlib, io\n"
        "from compucap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )


def run_cli(*argv: str) -> dict:
    return run_fresh(cli_code(*argv))


def test_importing_the_package_loads_no_submodule():
    assert run_fresh("import compucap\n")["loaded"] == []


def test_importing_the_cli_loads_only_the_model():
    assert run_fresh("import compucap.cli\n")["loaded"] == ["compucap.cli", "compucap.model"]


SOLVE = ["compucap.cli", "compucap.model", "compucap.solver"]
TRACE = ["compucap.cli", "compucap.efficiency", "compucap.model", "compucap.solver"]
EFFICIENCY_ARGV = ["efficiency", str(DATA / "toy.json"), str(DATA / "toy-trace.txt")]


# (argv, the package modules it loads) for each subcommand on bundled data
SUBCOMMANDS = [
    (["capacity", str(DATA / "toy.json")], SOLVE),
    (["distribution", str(DATA / "toy.json")], SOLVE),
    (EFFICIENCY_ARGV, TRACE),
    (
        ["count", str(DATA / "toy.json"), "--max-time", "8"],
        ["compucap.cli", "compucap.counting", "compucap.model"],
    ),
    (
        ["optimize-memory", str(DATA / "memory-example.json")],
        ["compucap.cli", "compucap.memory", "compucap.model", "compucap.solver"],
    ),
]
SUBCOMMAND_IDS = [argv[0] for argv, _ in SUBCOMMANDS]


@pytest.mark.parametrize("argv, loaded", SUBCOMMANDS, ids=SUBCOMMAND_IDS)
def test_each_subcommand_loads_only_its_layers(argv, loaded):
    assert run_cli(*argv)["loaded"] == loaded


def test_importing_the_cli_without_site_skips_typing():
    assert run_fresh("import compucap.cli\n", "-S")["typing"] is False


@pytest.mark.parametrize("argv", [argv for argv, _ in SUBCOMMANDS], ids=SUBCOMMAND_IDS)
def test_each_subcommand_without_site_skips_typing(argv):
    assert run_fresh(cli_code(*argv), "-S")["typing"] is False


@pytest.mark.parametrize(
    "code",
    [
        "import compucap.efficiency\n",
        "import types\nimport compucap.efficiency as m\nassert isinstance(m, types.ModuleType)\n",
        "from compucap import efficiency_from_distribution\n",
        "from compucap import efficiency\nimport compucap.efficiency as m\nassert efficiency is m\n",
    ],
    ids=["import-submodule", "import-as", "from-import", "from-import-module"],
)
def test_efficiency_is_the_module_whatever_loads_it(code):
    report = run_fresh(code + EFFICIENCY_IS_THE_MODULE)
    assert "compucap.efficiency" in report["loaded"]


def test_efficiency_is_the_module_after_a_cli_command():
    report = run_fresh(cli_code(*EFFICIENCY_ARGV) + EFFICIENCY_IS_THE_MODULE)
    assert report["loaded"] == TRACE


MOVED_TO_THE_SOLVER = ["DistributionError", "InstructionDistribution", "optimal_distribution"]


@pytest.mark.parametrize("name", MOVED_TO_THE_SOLVER)
def test_the_distribution_names_are_the_solvers_objects(name):
    # the solver defines them; the package and the efficiency module export the same objects
    report = run_fresh(
        "import compucap\n"
        f"value = getattr(compucap, {name!r})\n"
        "import compucap.efficiency, compucap.solver\n"
        f"assert value is getattr(compucap.efficiency, {name!r}) is getattr(compucap.solver, {name!r})\n"
        f"assert {name!r} in compucap.__all__\n"
    )
    assert report["loaded"] == ["compucap.efficiency", "compucap.model", "compucap.solver"]


@pytest.mark.parametrize("name", MOVED_TO_THE_SOLVER)
def test_the_distribution_names_load_only_the_solver(name):
    # the package resolves each name from the module that defines it
    report = run_fresh(f"import compucap\ncompucap.{name}\n")
    assert report["loaded"] == ["compucap.model", "compucap.solver"]


def test_importlib_reaches_the_same_module():
    report = run_fresh(
        "import importlib, compucap\n"
        "module = importlib.import_module('compucap.efficiency')\n"
        "assert module.optimal_distribution is compucap.optimal_distribution\n"
        + EFFICIENCY_IS_THE_MODULE
    )
    assert "compucap.efficiency" in report["loaded"]
