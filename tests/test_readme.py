"""The README's examples must run as written.

Every fenced `json` block must parse as a model or a memory problem,
every `python` block must run, and every `$ compucap ...` example must
succeed and print each output line the README shows for it (a `...`
line stands for omitted output).  Every `--flag` the README names must be
an option of some subcommand.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from compucap import parse_model, parse_problem
from compucap.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text(encoding="utf-8")
DATA = REPO / "src" / "compucap" / "data"

BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
JSON_BLOCKS = [body for lang, body in BLOCKS if lang == "json"]
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]


def _examples() -> list[tuple[str, list[str]]]:
    """(command line, shown output lines) for each `$ compucap` example."""
    examples: list[tuple[str, list[str]]] = []
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        shown = None
        for line in body.splitlines():
            if line.startswith("$ compucap "):
                shown = []
                examples.append((line[len("$ compucap "):], shown))
            elif shown is not None and line.strip() not in ("", "..."):
                shown.append(line)
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(JSON_BLOCKS) >= 2
    assert len(PYTHON_BLOCKS) >= 1
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize(
    "body", JSON_BLOCKS, ids=[f"json{i}" for i in range(len(JSON_BLOCKS))]
)
def test_json_block_parses(body):
    if "kinds" in json.loads(body):
        parse_problem(body, base_dir=DATA)
    else:
        parse_model(body)


@pytest.mark.parametrize(
    "body", PYTHON_BLOCKS, ids=[f"python{i}" for i in range(len(PYTHON_BLOCKS))]
)
def test_python_block_runs(body):
    exec(compile(body, "README.md", "exec"), {})


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_command_example_output(command, shown, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code = main(shlex.split(command))
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    for line in shown:
        assert line in out


def test_readme_names_only_flags_the_parser_takes():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}
    # pip's flag in the install instructions is not compucap's
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README)) - {"--no-build-isolation"}
    assert named
    assert named <= options, sorted(named - options)
