"""The command line's help and usage errors, checked byte for byte against
tests/golden/help.txt. Each call runs `python -m ionrep.cli` in a fresh
process with COLUMNS=80, and its block in the golden holds the exit code,
stdout and stderr. A declared change re-records the golden in the same
commit, from the repo root:

    python3 tests/test_help.py > tests/golden/help.txt
"""
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "help.txt"
COMMANDS = ("rate", "classify", "optimize", "sweep", "figure", "simulate")
# every help page, then no command, an unknown one, an unknown flag, one
# before the command, and two values a subcommand's parser rejects, which
# print its usage
CALLS = [["--help"], *([cmd, "--help"] for cmd in COMMANDS), [], ["bogus"],
         ["rate", "--threads", "2"], ["--bogus", "rate", "--n", "3"], ["rate", "--n", "x"],
         ["figure", "fig1"]]


def block(argv: list[str]) -> str:
    """One call's golden block: its command line, exit code, stdout, stderr."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "ionrep.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "COLUMNS": "80", "PYTHONPATH": path})
    return (f"==> {shlex.join(['ionrep', *argv])}\n--- exit {proc.returncode}, stdout\n"
            f"{proc.stdout}--- stderr\n{proc.stderr}")


def _golden_blocks() -> dict[str, str]:
    """The golden's blocks by their first line."""
    text = GOLDEN.read_text(encoding="utf-8")
    return {b.partition("\n")[0]: b for b in re.split(r"^(?===> )", text, flags=re.M) if b}


@pytest.mark.parametrize("argv", CALLS, ids=lambda argv: " ".join(argv) or "no-args")
def test_call_matches_its_golden(argv):
    expected = _golden_blocks()[f"==> {shlex.join(['ionrep', *argv])}"]
    assert block(argv) == expected


def test_golden_holds_exactly_these_calls():
    assert list(_golden_blocks()) == [f"==> {shlex.join(['ionrep', *argv])}" for argv in CALLS]


if __name__ == "__main__":
    sys.stdout.write("".join(block(argv) for argv in CALLS))
