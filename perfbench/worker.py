"""One workload in one fresh process: set up, then measure or trace.

Started by run.py, which passes the wall-clock time at which it spawned
this process as --t0, so setup time runs from process start to the first
timed operation. Prints one JSON object as its last stdout line.

--trace 0 runs as many whole passes as fill --seconds on the reference
machine (a fixed count, so every run covers the same mix). --trace 1 runs
half as many, first untraced and then traced, so its counts repeat exactly
for a seed and its overhead has a base.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import calibrate
from tracer import COMPUTED, Tracer, install, layer_metrics
from workloads import KERNEL_OF, OUT, WORKLOADS, Tally, Workload, child_env


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is given,
    as percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def summarize(samples: dict[str, list[float]]) -> dict:
    out = {}
    for kind, values in sorted(samples.items()):
        value, pct = tail(values)
        out[kind] = {"n": len(values), "p50_s": statistics.median(values),
                     "tail_s": value, "tail_pct": pct, "sum_s": sum(values)}
    return out


def run_pass(wl: Workload, ops, tally: Tally, tracer: Tracer = None) -> None:
    kernels = sorted({KERNEL_OF[kind] for kind in wl.kinds} - {None})

    def reading():
        tally.readings.append(calibrate.measure(kernels, wl.calibration_repeats))

    reading()
    for op in ops:
        try:
            if tracer is None:
                wl.run_op(op, tally)
            else:
                attrs = {"sim_class": op.sim_class} if op.sim_class else {}
                with tracer.span("bench.op", kind=op.kind, **attrs):
                    wl.run_op(op, tally, tracer)
        except Exception as err:  # counted as a failed operation; the run goes on
            tally.outcome(False, f"{op.kind}: {type(err).__name__}: {err}")
        reading()


def passes_for(wl: Workload, seconds: float) -> list:
    """The fixed pass list that fills about `seconds` on the reference machine.

    A fixed count keeps the sample count, and so the rank the tail percentile
    lands on within the op mix, the same in every run.
    """
    return [wl.make_pass() for _ in range(max(1, round(seconds / wl.pass_seconds)))]


def measure(wl: Workload, seconds: float, tally: Tally) -> float:
    passes = passes_for(wl, seconds)
    t0 = time.perf_counter()
    for ops in passes:
        run_pass(wl, ops, tally)
    return time.perf_counter() - t0


def import_ms(repeats: int = 3) -> float:
    """Median wall time of `import ionrep.cli` in a fresh process."""
    code = ("import time; t = time.perf_counter(); import ionrep.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times) * 1e3


def trace(wl: Workload, seconds: float, tally: Tally) -> dict:
    passes = passes_for(wl, seconds / 2)
    t0 = time.perf_counter()
    for ops in passes:
        run_pass(wl, ops, tally)
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    with install(tracer):
        t0 = time.perf_counter()
        root = tracer.open("bench.run", workload=wl.name)
        for ops in passes:
            run_pass(wl, ops, tally, tracer)
        tracer.close(root)
        traced = time.perf_counter() - t0
    layers = layer_metrics(tracer.spans, root, traced)
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    layers["cli.import_ms"] = import_ms()
    tracer.dump(str(OUT / f"spans-{wl.name}.json"))
    return {"layers": layers, "computed": list(COMPUTED), "passes": len(passes),
            "untraced_s": untraced, "traced_s": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="wall-clock time at which this process was spawned")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    warm = Tally()
    wl.setup(warm)
    setup_s = time.time() - args.t0
    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        # the warm-up call's outcome counts, its timing does not
        tally = Tally(attempted=warm.attempted, failed=warm.failed,
                      failures=list(warm.failures))
        if args.trace:
            result.update(trace(wl, args.seconds, tally))
        else:
            result["measured_s"] = measure(wl, args.seconds, tally)
        # the median CLI child where the work runs in children, else ourselves
        rss_kb = (statistics.median(tally.child_rss_kb) if tally.child_rss_kb
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        result.update(
            peak_rss_mb=rss_kb / 1024.0, units=tally.units, unit=wl.unit,
            primary=wl.primary, attempted=tally.attempted, failed=tally.failed,
            failures=tally.failures, raw=summarize(tally.raw()),
            samples=summarize(tally.scaled()))
        if not args.trace:
            result["events"] = {"samples": tally.samples, "readings": tally.readings}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
