#!/usr/bin/env python3
"""Count the one-site mutants of an ionrep module that its tests kill.

Each mutant changes one site of src/ionrep/<module>.py:
- a comparison flipped: < and <=, > and >=, == and !=, is and is not,
  in and not in;
- + and - swapped, or * and /, in an expression or an augmented assignment;
- `and` and `or` swapped;
- the test of an if, while or conditional expression negated: x becomes
  `not x`, and `not x` becomes x;
- an int literal raised by 1.

The probe copies the repository to a temporary directory and first checks
that the module's tests pass there on the module as ast.unparse writes it.
Then it runs them with -x on each mutant, at most --timeout seconds each. A
mutant is killed when its tests fail or time out, and survives when they
pass. The sites are sampled with a fixed seed, so the same module source
gives the same mutants; with --since REV, the probe takes every site on the
lines that `git diff -U0 REV` changes in the module instead (a site's line
is the first line of its node). Each mutant's line reads "status path:line
change"; the last line is "module: killed K / N". It takes minutes, one
pytest process at a time, and is not part of the test suite.

    python3 scripts/mutation_probe.py mcsim [--sites 40] [--seed 0] [--timeout 300]
    python3 scripts/mutation_probe.py optimize --since HEAD~1
"""
import argparse
import ast
import itertools
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# each module's tests, run from the repository root
TESTS = {
    "mcsim": ["tests/test_sim.py", "tests/test_model.py", "tests/test_scripts.py"],
    "rates": ["tests/test_rates.py", "tests/test_model.py", "tests/test_optimize.py",
              "tests/test_scripts.py"],
    "model": ["tests/test_model.py", "tests/test_rates.py", "tests/test_cli.py",
              "tests/test_optimize.py", "tests/test_scripts.py"],
    "optimize": ["tests/test_optimize.py", "tests/test_scripts.py"],
    "cli": ["tests/test_cli.py", "tests/test_optimize.py", "tests/test_help.py",
            "tests/test_scripts.py"],
    "figures": ["tests/test_cli.py", "tests/test_sim.py", "tests/test_scripts.py"],
}
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.And: "and", ast.Or: "or"}
TESTED = {ast.If: "if", ast.While: "while", ast.IfExp: "if"}  # nodes with a test


def _is_not(test: ast.expr) -> bool:
    return isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)


def sites(source: str) -> list[tuple[int, int, int, str]]:
    """(node, op, line, change) of every site: node is the node's place in
    ast.walk's order, op the operator's place within a comparison."""
    found = []
    for i, node in enumerate(ast.walk(ast.parse(source))):
        if isinstance(node, ast.Compare):
            found += [(i, k, node.lineno, f"{SYMBOLS[type(op)]} -> {SYMBOLS[FLIPS[type(op)]]}")
                      for k, op in enumerate(node.ops)]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) \
                and type(node.op) in SWAPS:
            op = type(node.op)
            found.append((i, 0, node.lineno, f"{SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((i, 0, node.lineno, f"{node.value} -> {node.value + 1}"))
        elif type(node) in TESTED:
            word = TESTED[type(node)]
            change = f"{word} not -> {word}" if _is_not(node.test) else f"{word} -> {word} not"
            found.append((i, 0, node.lineno, change))
    return found


def mutant(source: str, node: int, op: int) -> str:
    """source with the site (node, op) changed, as ast.unparse writes it."""
    tree = ast.parse(source)
    target = next(itertools.islice(ast.walk(tree), node, None))
    if isinstance(target, ast.Compare):
        target.ops[op] = FLIPS[type(target.ops[op])]()
    elif isinstance(target, ast.Constant):
        target.value += 1
    elif type(target) in TESTED:
        target.test = target.test.operand if _is_not(target.test) \
            else ast.UnaryOp(ast.Not(), target.test)
    else:
        target.op = SWAPS[type(target.op)]()
    return ast.unparse(tree)


def hunk_lines(diff: str) -> set[int]:
    """The new-file line numbers that the hunks of a -U0 diff change."""
    lines: set[int] = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff, re.M):
        lines.update(range(int(start), int(start) + int(count or 1)))
    return lines


def run_tests(work: Path, tests: list[str], timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for the tests in the copy at work."""
    # a failing example one mutant's run saved must not be replayed on the next
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", *tests],
                              cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", choices=sorted(TESTS))
    parser.add_argument("--sites", type=int, default=40, help="mutants to run, 0 for all")
    parser.add_argument("--seed", type=int, default=0, help="seed of the site sample")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds a mutant's tests may take")
    parser.add_argument("--since", metavar="REV",
                        help="every site on the lines changed since REV, not a sample")
    args = parser.parse_args(argv)

    rel = Path("src", "ionrep", f"{args.module}.py")
    source = (ROOT / rel).read_text(encoding="utf-8")
    every = sites(source)
    if args.since is not None:
        diff = subprocess.run(["git", "diff", "-U0", args.since, "--", str(rel)], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout
        changed = hunk_lines(diff)
        chosen = [site for site in every if site[2] in changed]
    else:
        chosen = every if not args.sites else random.Random(args.seed).sample(
            every, min(args.sites, len(every)))
    tests = TESTS[args.module]
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".bench_out", ".hypothesis", ".pytest_cache"))
        target = work / rel
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        if run_tests(work, tests, args.timeout) != "pass":
            print(f"{args.module}: its tests fail before any mutation", file=sys.stderr)
            return 2
        killed = 0
        for node, op, line, change in sorted(chosen, key=lambda s: (s[2], s[0], s[1])):
            target.write_text(mutant(source, node, op), encoding="utf-8")
            status = run_tests(work, tests, args.timeout)
            killed += status != "pass"
            label = {"pass": "survived", "fail": "killed"}.get(status, status)
            print(f"{label:8} {rel}:{line} {change}", flush=True)
    drawn = f"since {args.since}" if args.since is not None else f"seed {args.seed}"
    print(f"{args.module}: killed {killed} / {len(chosen)} "
          f"({len(every)} sites, {drawn}, tests {' '.join(tests)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
