"""Record the input pools and expected answers in `expected/`.

Run from the repository root at the commit whose answers are the reference:

    PYTHONPATH=src python3 perfbench/record.py

Pools are drawn from a fixed master seed, so re-running at the same commit
rewrites the same files. Re-record only when a change is meant to alter
ionrep's answers, and say so with the change: the checks in `workloads.py`
compare every run against these files.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import (EXPECTED, ROOT, child_env, file_sha256, planner_args,
                       sim_inputs)

MASTER_SEED = 2105_06707
GRID_FLAGS = ["--l-min-km", "10", "--l-max-km", "500", "--l-step-km", "50"]


def write(name: str, doc: dict) -> None:
    EXPECTED.mkdir(exist_ok=True)
    with open(EXPECTED / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_figures() -> None:
    import io
    import contextlib
    import ionrep.cli
    figures = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        for fig_id in sorted(ionrep.cli.FIGURES):
            with contextlib.redirect_stdout(io.StringIO()):
                code = ionrep.cli.main(["figure", fig_id, *GRID_FLAGS,
                                        "--out-dir", out, "--format", "json"])
            assert code == 0, fig_id
            figures[fig_id] = {p.name: file_sha256(p)
                               for p in sorted(Path(out).glob(f"{fig_id}_*.csv"))}
    write("figure_family", {"grid_flags": GRID_FLAGS, "points_per_curve": 10,
                            "warmup": "fig8", "figures": figures})


def _query(rng: random.Random) -> dict:
    mux = rng.choice([1, 5, 10, 25, 50])
    tau_g_us = rng.choice([1, 10])
    n_max, m_max = (200, 500) if rng.random() < 0.3 else (600, 2000)
    item = {"l_km": round(rng.uniform(10.0, 500.0), 3), "spatial_mux": mux,
            "eps": round(rng.uniform(0.0, 1e-3), 7), "tau_g_us": tau_g_us,
            "n_max": n_max, "m_max": m_max, "n_o_max": None, "n_m_max": None}
    cap = rng.random()
    if cap < 0.15:
        item["n_o_max"] = int(2 * mux * tau_g_us * rng.uniform(1.0, 3.0))
    elif cap < 0.30:
        item["n_m_max"] = 2 * mux * rng.randint(5, 100)
    return item


def record_planner() -> None:
    from ionrep import InfeasibleError, crossover_distance, optimize_rate
    rng = random.Random(MASTER_SEED)
    queries = []
    while len(queries) < 400:
        item = _query(rng)
        try:
            res = optimize_rate(*planner_args(item))
        except InfeasibleError:
            continue  # a cap below every row's need: draw again
        item["expect"] = {"n_opt": res.n_opt, "m_opt": res.m_opt,
                          "noisy_rate": res.report.noisy_rate}
        queries.append(item)
    crossovers = []
    for _ in range(16):
        item = _query(rng)
        item = {k: item[k] for k in ("spatial_mux", "eps", "tau_g_us", "n_max", "m_max")}
        _, mux, hw, bounds, _ = planner_args(item)
        item["expect"] = crossover_distance(mux, hw, bounds)
        crossovers.append(item)
    write("planner_queries", {"queries": queries, "crossovers": crossovers})


def record_sim() -> None:
    from ionrep import validate_against_analytic
    rng = random.Random(MASTER_SEED)
    pool: dict[str, list[dict]] = {"small_grid": [], "blind_long_k": [],
                                   "wait": [], "headline": []}
    seed = 0
    for n in range(0, 4):
        for mux in range(1, 4):
            for m in range(1, 6):
                for p in (0.1, 0.3, 0.5):
                    pool["small_grid"].append({
                        "l_km": 10.0 * (n + 1), "n": n, "spatial_mux": mux,
                        "time_mux": m, "p": p, "num_blocks": 100_000, "seed": seed})
                    seed += 1
    for l_km in (120.0, 150.0, 180.0):
        for n in (2, 3, 4):
            for _ in range(2):
                pool["blind_long_k"].append({
                    "l_km": l_km, "n": n, "spatial_mux": 10, "time_mux": 25,
                    "num_blocks": 4000, "seed": rng.randrange(1 << 30)})
    for l_km in (20.0, 30.0):
        for n in (3, 5):
            for mux in (5, 10):
                for m in (10, 25):
                    pool["wait"].append({
                        "l_km": l_km, "n": n, "spatial_mux": mux, "time_mux": m,
                        "num_blocks": 8192, "seed": rng.randrange(1 << 30)})
    for _ in range(8):
        pool["headline"].append({
            "l_km": 150.0, "n": 88, "spatial_mux": 10, "time_mux": 25,
            "num_blocks": 2048, "seed": rng.randrange(1 << 30)})
    for cls, items in pool.items():
        for item in items:
            config, report = sim_inputs(cls, item)
            assert config.waits_for_herald == (cls in ("wait", "headline")) \
                or cls == "small_grid", (cls, item)
            verdict = validate_against_analytic(config, report)
            item["expect"] = {
                "successes": round(verdict.observed_block_success * config.num_blocks),
                "passed": verdict.passed}
    write("sim_validate", pool)


def record_cli() -> None:
    rng = random.Random(MASTER_SEED)
    calls: dict[str, list[list[str]]] = {k: [] for k in (
        "rate", "classify", "optimize", "sweep", "simulate", "optimize_infeasible")}
    for _ in range(8):
        calls["rate"].append([
            "rate", "--l-km", f"{rng.uniform(20, 300):.1f}", "--n", str(rng.randint(0, 100)),
            "--time-mux", str(rng.randint(1, 100)),
            "--spatial-mux", str(rng.choice([1, 5, 10, 25]))])
        calls["classify"].append(["classify", "--l0-km", f"{rng.uniform(0.5, 60):.2f}"])
        calls["optimize"].append([
            "optimize", "--l-km", f"{rng.uniform(20, 400):.1f}",
            "--spatial-mux", str(rng.choice([1, 5, 10, 25]))])
        lo = rng.randint(2, 30) * 10
        calls["sweep"].append([
            "sweep", "--l-list-km", f"{lo},{lo + 50},{lo + 100}",
            "--spatial-mux", str(rng.choice([1, 5, 10]))])
        calls["simulate"].append([
            "simulate", "--l-km", "20", "--n", str(rng.randint(0, 2)),
            "--time-mux", str(rng.randint(2, 8)), "--spatial-mux", str(rng.randint(1, 3)),
            "--num-blocks", "20000", "--seed", str(rng.randrange(1 << 20)), "--validate"])
    for _ in range(4):
        calls["optimize_infeasible"].append([
            "optimize", "--l-km", f"{rng.uniform(20, 400):.1f}",
            "--spatial-mux", str(rng.choice([1, 5, 10])), "--n-o-max", "1"])
    env = child_env()
    pool = {}
    for kind, argvs in calls.items():
        pool[kind] = []
        for argv in argvs:
            argv = [*argv, "--format", "json"]
            proc = subprocess.run([sys.executable, "-m", "ionrep.cli", *argv], env=env,
                                  cwd=ROOT, capture_output=True, text=True, timeout=120)
            assert proc.returncode in (0, 3, 4), (argv, proc.stderr)
            pool[kind].append({"argv": argv, "expect": {
                "code": proc.returncode, "doc": json.loads(proc.stdout)}})
    write("cli_calls", {"calls": pool})


if __name__ == "__main__":
    os.environ.setdefault("IONREP_THREADS", "1")
    wanted = sys.argv[1:] or ["figure_family", "planner_queries", "sim_validate",
                              "cli_calls"]
    steps = {"figure_family": record_figures, "planner_queries": record_planner,
             "sim_validate": record_sim, "cli_calls": record_cli}
    for name in wanted:
        steps[name]()
        print(f"recorded {name}", flush=True)
