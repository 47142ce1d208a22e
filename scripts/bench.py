#!/usr/bin/env python3
"""A/B the working tree against a git revision on perfbench's workloads.

Each pair runs `perfbench/run.py --workload W --seed S --seconds 20 --trace 0`
once in REV's tree and once in this one, with PYTHONDONTWRITEBYTECODE=1;
which side runs first alternates from pair to pair, and pair i of a workload
takes seed --seed + i on both sides. REV's tree is a temporary
`git worktree`, removed afterwards. The script refuses to run when
perfbench/ or BENCHMARK.json differ between the two trees, since the runs
would not measure the same thing.

It writes BENCH_<LABEL>.json at the repository root: the machine record of
the first run, with the start-up floor under every CLI process beside it
(the median wall times of `python -S -c pass`, `python -c pass` and
`python -c "import numpy"` as processes, on one pinned core, and whether
numpy has its AVX-512 Skylake-X loops), every run's end-to-end metrics
with its correct / attempted / failed counts, and per workload and metric each side's median and
quartiles, the pairs the change won (strictly better in BENCHMARK.json's
direction) and whether the change's median beats the base median by more
than the base's interquartile range. On two vCPUs a figure_family run takes
~5 s and one of any other workload ~25 s, so ten pairs of all four take
about half an hour.

    python3 scripts/bench.py LABEL [--against REV] [--pairs N] [--workload W ...]
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHARED = ("perfbench", "BENCHMARK.json")  # what both sides must run alike


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench_differs(rev: str) -> bool:
    """Whether perfbench/ or BENCHMARK.json differ between REV and the
    working tree, untracked files included."""
    changed = subprocess.run(["git", "diff", "--quiet", rev, "--", *SHARED],
                             cwd=ROOT).returncode != 0
    return changed or bool(git("ls-files", "--others", "--exclude-standard", "--", *SHARED))


# what every CLI process pays before ionrep's code, as (label, interpreter arguments)
STARTUP = (("python -S -c pass", ("-S", "-c", "pass")),
           ("python -c pass", ("-c", "pass")),
           ('python -c "import numpy"', ("-c", "import numpy")))


def startup_floor(runs: int = 9) -> dict:
    """The start-up floor for the machine record: per STARTUP command, the
    median wall time in ms of runs fresh processes, run one at a time with
    PYTHONDONTWRITEBYTECODE=1 on the core perfbench pins its workers to
    (the highest this process may use); and numpy's AVX512_SKX flag, which
    decides the loops its exp, log1p, expm1 and power dispatch to."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    allowed = os.sched_getaffinity(0)
    core = max(allowed)
    os.sched_setaffinity(0, {core})  # the children inherit it
    try:
        floor = {}
        for label, args in STARTUP:
            times = []
            for _ in range(runs):
                t = time.perf_counter()
                subprocess.run([sys.executable, *args], env=env, check=True)
                times.append(time.perf_counter() - t)
            floor[label] = statistics.median(times) * 1e3
    finally:
        os.sched_setaffinity(0, allowed)
    return {"startup_floor_ms": floor, "startup_core": core, "startup_runs": runs,
            "numpy_avx512_skx": bool(__cpu_features__.get("AVX512_SKX"))}


def parse_run(stdout: str) -> dict:
    """A perfbench run's record from its stdout: the last line's counts and
    metric values, and the machine record of the line before it."""
    *_, detail, last = stdout.strip().splitlines()
    summary = json.loads(last)
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
            "machine": json.loads(detail).get("machine", {})}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "20", "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def _spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], entries: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's median and quartiles,
    the pairs the change won and whether its median clears the base's
    interquartile range in the better direction. runs hold workload, pair,
    side ("base" or "change") and metrics; entries are BENCHMARK.json's."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        both = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        per_metric = out[workload] = {}
        for entry in entries:
            name, sign = entry["name"], 1 if entry["better"] == "lower" else -1
            base = [p["base"][name] for p in both]
            change = [p["change"][name] for p in both]
            b, c = _spread(base), _spread(change)
            per_metric[name] = {
                "unit": entry["unit"], "better": entry["better"], "pairs": len(both),
                "base": b, "change": c,
                "change_wins": sum(sign * (y - x) < 0 for x, y in zip(base, change)),
                "clears_base_iqr": sign * (b["median"] - c["median"]) > b["q3"] - b["q1"],
            }
    return out


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--against", default="HEAD", metavar="REV",
                    help="the base revision (default HEAD: the working tree's changes)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=workloads,
                    help="repeat for several (default: every BENCHMARK.json workload)")
    ap.add_argument("--seed", type=int, default=1000, help="the first pair's seed")
    args = ap.parse_args(argv)
    rev = git("rev-parse", "--verify", args.against + "^{commit}")
    if bench_differs(rev):
        print(f"bench: {' or '.join(SHARED)} differ between {args.against} and the "
              "working tree; the two sides would not run the same benchmark",
              file=sys.stderr)
        return 2
    floor = startup_floor()
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        base_tree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_tree), rev)
        try:
            for workload in args.workload or workloads:
                for pair in range(args.pairs):
                    seed = args.seed + pair
                    order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
                    for position, side in enumerate(order):
                        tree = base_tree if side == "base" else ROOT
                        record = run_once(tree, workload, seed)
                        runs.append({"workload": workload, "pair": pair, "seed": seed,
                                     "side": side, "position": position, **record})
                        print(f"{workload} pair {pair} {side}: "
                              + " ".join(f"{k}={v:.4g}" for k, v in record["metrics"].items()),
                              flush=True)
        finally:
            git("worktree", "remove", "--force", str(base_tree))
    machine = dict(runs[0]["machine"]) if runs else {}
    machine.pop("commit", None)
    machine.update(floor)
    for r in runs:
        del r["machine"]
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    doc = {"label": args.label, "base": rev,
           "change": git("rev-parse", "HEAD") + (" + working tree" if dirty else ""),
           "command": "perfbench/run.py --seconds 20 --trace 0, PYTHONDONTWRITEBYTECODE=1",
           "machine": machine, "runs": runs, "summary": summarize(runs, spec["end_to_end"])}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
