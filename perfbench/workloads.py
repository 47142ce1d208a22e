"""The four seeded workloads: their inputs, timed operations and checks.

Inputs come from pools recorded at the seed commit (`expected/*.json`, made
by `record.py`), so every answer has a recorded value to be checked against.
The run seed drives a `random.Random` that picks pool entries and their
order, so the same seed gives the same inputs.

A run is a sequence of passes. Each pass has the same mix of operation
kinds whatever the seed, so medians and throughputs compare across seeds;
only which recorded inputs fill the mix changes.

Operations are timed around the call into ionrep only. Checks run outside
the timed region, and an operation that raises, answers wrongly or exits
with an unexpected code counts as failed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
OUT = ROOT / ".bench_out"

# recorded rates are compared within this relative tolerance, a few hundred
# float64 roundings of slack for a reordered but equivalent computation
REL_TOL = 1024 * sys.float_info.epsilon
CHILD_TIMEOUT_S = 120


def load_pool(name: str) -> dict:
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


@dataclass(frozen=True)
class Op:
    kind: str
    data: Any
    sim_class: Optional[str] = None


class Cycle:
    """Draws that go through a seeded permutation of `items` before any
    repeats, so the passes of one run cover nearly the same mix whatever
    the seed."""

    def __init__(self, items: list, rng: random.Random) -> None:
        self.items = list(items)
        self.rng = rng
        self.queue: list = []

    def next(self):
        if not self.queue:
            self.queue = self.items[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


# calibration kernel (see calibrate.py) that each timed kind is scaled by
KERNEL_OF = {"figure": "np", "optimize": "np", "crossover": "np", "rate": "py",
             "sim": "np", "cli": "proc"}


@dataclass
class Tally:
    """Timings and outcomes of the operations of one run.

    `samples` holds raw seconds, each with the index of the calibration
    reading taken just before its operation; `readings` holds the
    calibrations taken before the first operation and after every one.
    """

    samples: dict[str, list[tuple[float, int]]] = field(default_factory=dict)
    readings: list[dict[str, float]] = field(default_factory=list)
    units: int = 0
    # peak RSS of each CLI child, for workloads whose work runs in children
    child_rss_kb: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def time(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append((seconds, len(self.readings) - 1))

    def raw(self) -> dict[str, list[float]]:
        return {kind: [s for s, _ in values] for kind, values in self.samples.items()}

    def scaled(self) -> dict[str, list[float]]:
        """Samples in reference seconds; see calibrate.speed_at."""
        out = {}
        for kind, values in self.samples.items():
            kernel = KERNEL_OF[kind]
            out[kind] = [s if kernel is None else
                         s * calibrate.speed_at(self.readings, i, kernel)
                         for s, i in values]
        return out

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Workload:
    name = ""
    # work unit counted by throughput_per_s, and the op kind whose latency
    # gives p50_ms / tail_ms
    unit = ""
    primary = ""
    # seconds of one pass on the reference machine (2-core Xeon); turns
    # --seconds into a fixed pass count
    pass_seconds = 1.0
    # op kinds timed; their calibration kernels are read between operations
    kinds: tuple[str, ...] = ()
    # kernel calls per calibration reading, of which the median is kept
    calibration_repeats = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def setup(self, tally: Tally) -> None:
        """Import, load inputs and make one warm-up call."""
        raise NotImplementedError

    def make_pass(self) -> list[Op]:
        raise NotImplementedError

    def run_op(self, op: Op, tally: Tally, tracer=None) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------- figures

class FigureFamily(Workload):
    """Every figure id through `ionrep.cli.main(["figure", ...])`."""

    name = "figure_family"
    unit = "sweep_points"
    primary = "figure"
    pass_seconds = 22.0
    kinds = ("figure",)
    calibration_repeats = 15

    def setup(self, tally: Tally) -> None:
        import ionrep.cli
        self.cli = ionrep.cli
        self.pool = load_pool(self.name)
        self.out_dir = OUT / "figures"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.run_op(Op("figure", self.pool["warmup"]), tally)

    def make_pass(self) -> list[Op]:
        ids = sorted(self.pool["figures"])
        self.rng.shuffle(ids)
        return [Op("figure", fig_id) for fig_id in ids]

    def run_op(self, op: Op, tally: Tally, tracer=None) -> None:
        expected = self.pool["figures"][op.data]
        for name in expected:
            (self.out_dir / name).unlink(missing_ok=True)
        argv = ["figure", op.data, *self.pool["grid_flags"],
                "--out-dir", str(self.out_dir), "--format", "json"]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        tally.time("figure", time.perf_counter() - t0)
        tally.units += len(expected) * self.pool["points_per_curve"]
        bad = [name for name, digest in expected.items()
               if file_sha256(self.out_dir / name) != digest]
        tally.outcome(code == 0 and not bad,
                      f"figure {op.data}: exit {code}, CSV mismatch {bad}")


def file_sha256(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------- planner

QUERIES_PER_PASS = 24
SMALL_PER_PASS = 7
PROBES_PER_QUERY = 20
NEIGHBOURS = [(dn, dm) for dn in (-1, 0, 1) for dm in (-1, 0, 1)]


def planner_args(item: dict) -> tuple:
    """(l_km, spatial_mux, hw, bounds, constraints) of a recorded query."""
    from ionrep import Constraints, HardwareProfile, SearchBounds
    eps = item["eps"]
    hw = HardwareProfile().updated(eps_g=eps, f0=1.0 - eps, tau_g=item["tau_g_us"] * 1e-6)
    cons = None
    if item.get("n_o_max") is not None or item.get("n_m_max") is not None:
        cons = Constraints(n_o_max=item.get("n_o_max"), n_m_max=item.get("n_m_max"))
    return (item.get("l_km"), item["spatial_mux"], hw,
            SearchBounds(item["n_max"], item["m_max"]), cons)


class PlannerQueries(Workload):
    """Closed loop, one client: optimize, probe the plateau, sometimes a crossover."""

    name = "planner_queries"
    unit = "queries"
    primary = "optimize"
    pass_seconds = 1.6
    kinds = ("optimize", "rate", "crossover")

    def setup(self, tally: Tally) -> None:
        import ionrep
        self.ionrep = ionrep
        self.pool = load_pool(self.name)
        queries = self.pool["queries"]
        # a fixed share of small-bounds queries, which run ten times faster
        self.small = Cycle([q for q in queries if q["n_max"] < 600], self.rng)
        self.default = Cycle([q for q in queries if q["n_max"] >= 600], self.rng)
        self.crossovers = Cycle(self.pool["crossovers"], self.rng)
        self.run_op(self._query(queries[0]), tally)

    def _query(self, item: dict) -> Op:
        offsets = set(NEIGHBOURS)
        while len(offsets) < PROBES_PER_QUERY:
            offsets.add((self.rng.randint(-4, 4), self.rng.randint(-6, 6)))
        return Op("query", (item, sorted(offsets)))

    def make_pass(self) -> list[Op]:
        items = ([self.default.next() for _ in range(QUERIES_PER_PASS - SMALL_PER_PASS)]
                 + [self.small.next() for _ in range(SMALL_PER_PASS)])
        self.rng.shuffle(items)
        ops = [self._query(item) for item in items]
        ops.insert(self.rng.randrange(len(ops) + 1),
                   Op("crossover", self.crossovers.next()))
        return ops

    def run_op(self, op: Op, tally: Tally, tracer=None) -> None:
        if op.kind == "crossover":
            self._crossover(op.data, tally)
        else:
            self._optimize(*op.data, tally)

    def _crossover(self, item: dict, tally: Tally) -> None:
        _, mux, hw, bounds, _ = planner_args(item)
        t0 = time.perf_counter()
        got = self.ionrep.crossover_distance(mux, hw, bounds)
        tally.time("crossover", time.perf_counter() - t0)
        tally.outcome(got == item["expect"],
                      f"crossover {item}: got {got}, recorded {item['expect']}")

    def _optimize(self, item: dict, offsets: list, tally: Tally) -> None:
        l_km, mux, hw, bounds, cons = planner_args(item)
        t0 = time.perf_counter()
        res = self.ionrep.optimize_rate(l_km, mux, hw, bounds, cons)
        tally.time("optimize", time.perf_counter() - t0)
        tally.units += 1
        exp = item["expect"]
        best = res.report.noisy_rate
        tally.outcome(
            (res.n_opt, res.m_opt) == (exp["n_opt"], exp["m_opt"])
            and rel_close(best, exp["noisy_rate"]),
            f"optimize {item}: got ({res.n_opt}, {res.m_opt}, {best!r})")
        for dn, dm in offsets:
            n, m = res.n_opt + dn, res.m_opt + dm
            if n < 0 or m < 1:
                continue
            layout = self.ionrep.ChainLayout(l_km, n, mux, m)
            t0 = time.perf_counter()
            rep = self.ionrep.evaluate_rate(layout, hw)
            tally.time("rate", time.perf_counter() - t0)
            if (dn, dm) == (0, 0):
                ok = rel_close(rep.noisy_rate, best)
            else:
                # no feasible point near the optimum may beat it
                ok = not (_feasible(n, m, rep, bounds, cons)
                          and rep.noisy_rate > best * (1.0 + REL_TOL))
            tally.outcome(ok, f"probe ({n}, {m}) of {item}: rate {rep.noisy_rate!r} "
                              f"vs optimum {best!r}")


def _feasible(n: int, m: int, rep, bounds, cons) -> bool:
    if n > bounds.n_max or m > bounds.m_max:
        return False
    if cons is not None:
        if cons.n_o_max is not None and rep.n_o > cons.n_o_max:
            return False
        if cons.n_m_max is not None and rep.n_m > cons.n_m_max:
            return False
    return True


# ---------------------------------------------------------------- simulator

# configs of each class in one pass; small_grid is three quarters, so the
# median config falls well inside its cluster and the tail among the
# headline runs
SIM_MIX = {"small_grid": 24, "blind_long_k": 2, "wait": 2, "headline": 3}


def sim_inputs(cls: str, item: dict):
    """(SimConfig, RateReport) of a recorded simulator config."""
    from ionrep import (ChainLayout, HardwareProfile, SimConfig,
                        block_success_prob, evaluate_rate)
    hw = HardwareProfile()
    layout = ChainLayout(item["l_km"], item["n"], item["spatial_mux"], item["time_mux"])
    report = evaluate_rate(layout, hw)
    if cls == "small_grid":
        # the criterion-7 oracle grid: fixed p, j, k; exact block success
        config = SimConfig(layout, j_steps=1, k_steps=2, tau_s=1e-6, tau_o_s=50e-6,
                           p=item["p"], num_blocks=item["num_blocks"], seed=item["seed"])
        exact = block_success_prob(item["p"], item["spatial_mux"], item["time_mux"],
                                   item["n"])
        report = dataclasses.replace(report, p=item["p"], block_success=exact)
    else:
        config = SimConfig.from_profile(layout, hw, num_blocks=item["num_blocks"],
                                        seed=item["seed"])
    return config, report


class SimValidate(Workload):
    """`validate_against_analytic` over a fixed mix of four config classes."""

    name = "sim_validate"
    unit = "blocks"
    primary = "sim"
    pass_seconds = 4.3
    kinds = ("sim",)

    def setup(self, tally: Tally) -> None:
        import ionrep
        self.ionrep = ionrep
        self.pool = load_pool(self.name)
        # cycle through chain shapes; the seed picks the order and, per
        # shape, which recorded variant (p or simulator seed) runs
        self.shapes = {}
        for cls in SIM_MIX:
            groups: dict[tuple, list[dict]] = {}
            for item in self.pool[cls]:
                shape = (item["l_km"], item["n"], item["spatial_mux"], item["time_mux"])
                groups.setdefault(shape, []).append(item)
            self.shapes[cls] = Cycle(list(groups.values()), self.rng)
        self.run_op(Op("sim", self.pool["small_grid"][0], "small_grid"), tally)

    def make_pass(self) -> list[Op]:
        ops = [Op("sim", self.rng.choice(self.shapes[cls].next()), cls)
               for cls, count in SIM_MIX.items() for _ in range(count)]
        self.rng.shuffle(ops)
        return ops

    def run_op(self, op: Op, tally: Tally, tracer=None) -> None:
        item = op.data
        config, report = sim_inputs(op.sim_class, item)
        t0 = time.perf_counter()
        verdict = self.ionrep.validate_against_analytic(config, report)
        tally.time("sim", time.perf_counter() - t0)
        tally.units += config.num_blocks
        successes = round(verdict.observed_block_success * config.num_blocks)
        exp = item["expect"]
        tally.outcome(successes == exp["successes"] and verdict.passed == exp["passed"],
                      f"sim {op.sim_class} {item}: successes {successes}, "
                      f"passed {verdict.passed}")


# ---------------------------------------------------------------- CLI

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class CliCalls(Workload):
    """Fresh `python -m ionrep.cli` processes, one at a time."""

    name = "cli_calls"
    unit = "calls"
    primary = "cli"
    pass_seconds = 2.1
    kinds = ("cli",)
    calibration_repeats = 3

    def setup(self, tally: Tally) -> None:
        self.pool = load_pool(self.name)
        self.env = child_env()
        self.calls = {kind: Cycle(calls, self.rng)
                      for kind, calls in sorted(self.pool["calls"].items())}
        self.run_op(Op("cli", self.pool["calls"]["classify"][0]), tally)

    def make_pass(self) -> list[Op]:
        ops = [Op("cli", calls.next()) for calls in self.calls.values()]
        self.rng.shuffle(ops)
        return ops

    def run_op(self, op: Op, tally: Tally, tracer=None) -> None:
        item = op.data
        if tracer is None:
            t0 = time.perf_counter()
            code, out, err, rss_kb = run_child(
                [sys.executable, "-m", "ionrep.cli", *item["argv"]], self.env)
            tally.time("cli", time.perf_counter() - t0)
            tally.child_rss_kb.append(rss_kb)
        else:
            spans_path = OUT / "cli_spans.json"
            env = dict(self.env, PERFBENCH_SPANS=str(spans_path))
            with tracer.span("cli.process") as span:
                code, out, err, _ = run_child(
                    [sys.executable, str(HERE / "tracer.py"), *item["argv"]], env)
            tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")), span)
            tally.time("cli", span.duration)
        tally.units += 1
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            doc = None
        exp = item["expect"]
        tally.outcome(code == exp["code"] and doc == exp["doc"],
                      f"cli {item['argv']}: exit {code}, "
                      f"stdout {out[:200]!r}, stderr {err[-300:]!r}")


def run_child(cmd: list[str], env: dict) -> tuple[int, str, str, int]:
    """Run `cmd` to its end: (exit code, stdout, stderr, peak RSS in KiB).

    Reaped with wait4 rather than through subprocess, which drops the
    child's resource usage.
    """
    with tempfile.TemporaryFile(dir=OUT) as err_file:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=err_file)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        return (proc.returncode, out.decode(errors="replace"),
                err_file.read().decode(errors="replace"), usage.ru_maxrss)


WORKLOADS = {w.name: w for w in (FigureFamily, PlannerQueries, SimValidate, CliCalls)}
