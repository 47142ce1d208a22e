"""ionrep benchmark: one seeded workload per run, each in fresh processes.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout; ionrep is imported from `src/`.
Setup is measured SETUP_RUNS times, each in its own process from spawn to
the first timed operation, and its median is reported. The last process
also measures (--trace 0) or traces (--trace 1) the workload.

Output: one detail line (machine record, the workload's named metrics with
units, latency percentiles with sample counts, per-layer metrics), then, as
the last line, {"correct", "attempted", "failed", "metrics"} with the
metrics that BENCHMARK.json lists for the chosen --trace. Results are also
written to .bench_out/. Exits 2 when the checkout holds no ionrep source.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170

# Per-workload metric names, printed on the detail line: name -> (source in
# the worker result, unit), where source is (sample kind, statistic) or a
# top-level key. The names in BENCHMARK.json are workload-independent.
NAMED = {
    "figure_family": {"sweep_points_per_s": ("throughput", "1/s")},
    "planner_queries": {
        "optimize_p50_ms": (("optimize", "p50_s"), "ms"),
        "optimize_tail_ms": (("optimize", "tail_s"), "ms"),
        "rate_p50_us": (("rate", "p50_s"), "us"),
        "rate_tail_us": (("rate", "tail_s"), "us"),
        "crossover_p50_ms": (("crossover", "p50_s"), "ms"),
    },
    "sim_validate": {"sim_blocks_per_s": ("throughput", "1/s")},
    "cli_calls": {"cli_p50_ms": (("cli", "p50_s"), "ms"),
                  "cli_tail_ms": (("cli", "tail_s"), "ms")},
}
SCALE = {"ms": 1e3, "us": 1e6}


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # sweeps take their thread count from the environment: one, as the run
    # is pinned to one core (see run_workload)
    env.update(IONREP_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    readings = [calibrate.measure(["proc"], 3)]
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    # setup is start-up and imports: scaled by the process kernel
    res["setup_raw_s"] = res["setup_s"]
    readings.append(calibrate.measure(["proc"], 3))
    res["setup_s"] *= calibrate.speed_at(readings, 0, "proc")
    return res


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    # Workers, their sweep pool and their children share one core, the one
    # their calibration reads: on two vCPUs shared with other tenants,
    # timings spread across both followed no calibration kernel.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        setups = [spawn(workload, seed, seconds, trace, True)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        res = spawn(workload, seed, seconds, trace, False)
    finally:
        os.sched_setaffinity(0, allowed)
    setups.append(res["setup_s"])
    res["setup_runs_s"] = setups
    res["setup_s"] = statistics.median(setups)
    prim = res["samples"][res["primary"]]
    res["throughput"] = res["units"] / prim["sum_s"]
    res["end_to_end"] = {
        "setup_s": res["setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "throughput_per_s": res["throughput"],
        "p50_ms": prim["p50_s"] * 1e3,
        "tail_ms": prim["tail_s"] * 1e3,
    }
    named = {"setup_s": (res["setup_s"], "s"), "peak_rss_mb": (res["peak_rss_mb"], "MB"),
             "failed_frac": (res["failed"] / res["attempted"], "frac")}
    for name, (source, unit) in NAMED[workload].items():
        if isinstance(source, tuple):
            kind, stat = source
            value = res["samples"][kind][stat] * SCALE[unit]
        else:
            value = res[source]
        named[name] = (value, unit)
    res["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    return res


# ---------------------------------------------------------------- machine

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(str(ROOT / ".git" / ref)).strip()
    if loose:
        return loose
    for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(str(index / "size")).strip()
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown"),
            "ram_mb": mem_kb // 1024, "python": platform.python_version(),
            "numpy": numpy_version, "commit": git_commit()}


# ---------------------------------------------------------------- main

def metric_entries(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ionrep" / "__init__.py").is_file():
        print(f"perfbench: no ionrep source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    entries = metric_entries(args.trace)
    OUT.mkdir(exist_ok=True)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    record = machine()
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        source = res["layers"] if args.trace else res["end_to_end"]
        prefix = f"{name}." if args.workload == "all" else ""
        for entry in entries:
            metrics[prefix + entry["name"]] = {"value": source[entry["name"]],
                                               "unit": entry["unit"]}
        attempted += res["attempted"]
        failed += res["failed"]
        detail = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": record, **res}
        with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
        print(json.dumps({"workload": name, "named_metrics": res["named"],
                          "scaled": res["samples"], "raw": res["raw"],
                          "layers": res.get("layers"), "failures": res["failures"],
                          "machine": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
