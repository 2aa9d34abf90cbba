"""The CLI commands on the bundled data files and their committed output.

tests/golden/ holds each command's stdout as <name>.out, and its exit code
and stderr in exits.json; tests/test_golden.py runs every command in
process and compares bytes.  A change that means to alter the output
rewrites the corpus, which prints the entries that moved:

    python tests/golden_corpus.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden"
EXITS = CORPUS / "exits.json"
DATA = "src/compucap/data/"
TOY, MIX, MMIX, TRACE = DATA + "toy.json", DATA + "mix.json", DATA + "mmix.json", DATA + "toy-trace.txt"
MEMORY = DATA + "memory-example.json"

# name -> argv, every path relative to the repo root
COMMANDS = {
    "capacity-toy": ["capacity", TOY, "--json"],
    "capacity-mix": ["capacity", MIX, "--json"],
    "capacity-mmix-mu1": ["capacity", MMIX, "--param", "mu=1", "--json"],
    "capacity-mmix-mu6_5": ["capacity", MMIX, "--param", "mu=6/5", "--json"],
    "capacity-mmix-mu5-text": ["capacity", MMIX, "--param", "mu=5"],
    "distribution-toy": ["distribution", TOY, "--json"],
    "distribution-mix": ["distribution", MIX, "--json"],
    "distribution-mmix-mu2": ["distribution", MMIX, "--param", "mu=2", "--json"],
    "distribution-mix-text": ["distribution", MIX],
    "efficiency-toy-order0": ["efficiency", TOY, TRACE, "--order", "0", "--json"],
    "efficiency-toy-order3": ["efficiency", TOY, TRACE, "--order", "3", "--json"],
    "efficiency-toy-order2-text": ["efficiency", TOY, TRACE, "--order", "2"],
    "count-toy-T50": ["count", TOY, "--max-time", "50", "--json"],
    "count-mmix-mu1-T40": ["count", MMIX, "--param", "mu=1", "--max-time", "40", "--json"],
    "memory-vertex": ["optimize-memory", MEMORY, "--json"],
    "memory-vertex-mu1_1.4": ["optimize-memory", MEMORY, "--param", "mu1=1.4", "--json"],
    "memory-grid-step1048576": ["optimize-memory", MEMORY, "--mode", "grid", "--step", "1048576", "--json"],
    "memory-grid-step33554432-text": ["optimize-memory", MEMORY, "--mode", "grid", "--step", "33554432"],
}


def run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) in this process, from the repo root: (exit code, stdout, stderr)."""
    from compucap.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def stdout_path(name: str) -> Path:
    return CORPUS / f"{name}.out"


def rewrite() -> list[str]:
    """Run every command, write the corpus afresh and return the names of
    the entries that moved, appeared or went away."""
    old_exits = json.loads(EXITS.read_text(encoding="utf-8")) if EXITS.exists() else {}
    old_out = {path.stem: path.read_bytes() for path in CORPUS.glob("*.out")}
    CORPUS.mkdir(exist_ok=True)
    exits, moved = {}, []
    for name, argv in COMMANDS.items():
        code, out, err = run(argv)
        exits[name] = {"exit": code, "stderr": err}
        data = out.encode("utf-8")
        if old_out.get(name) != data or old_exits.get(name) != exits[name]:
            moved.append(name)
        stdout_path(name).write_bytes(data)
    for name in sorted(old_out.keys() - COMMANDS.keys()):
        stdout_path(name).unlink()
        moved.append(name)
    EXITS.write_text(json.dumps(exits, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return moved


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    moved = rewrite()
    print("\n".join(f"moved: {name}" for name in moved) if moved else "no entry moved")
