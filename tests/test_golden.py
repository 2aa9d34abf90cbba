"""Every bundled-data CLI command prints the bytes committed in tests/golden/.

A change that means to alter them rewrites the corpus with
tests/golden_corpus.py, which names the entries that moved.
"""

import json

import pytest

from golden_corpus import COMMANDS, CORPUS, EXITS, run, stdout_path


@pytest.mark.parametrize("name", COMMANDS)
def test_bundled_command_prints_its_committed_bytes(name):
    code, out, err = run(COMMANDS[name])
    assert out.encode("utf-8") == stdout_path(name).read_bytes()
    assert {"exit": code, "stderr": err} == json.loads(EXITS.read_text(encoding="utf-8"))[name]


def test_the_corpus_holds_exactly_the_commands():
    assert {path.stem for path in CORPUS.glob("*.out")} == COMMANDS.keys()
    assert json.loads(EXITS.read_text(encoding="utf-8")).keys() == COMMANDS.keys()
