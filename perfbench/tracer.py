"""Span tracer for the benchmark's traced run, and the per-layer metrics.

Spans are recorded from outside the program: `install` swaps public
functions of the ionrep modules for timing wrappers and puts them back on
exit. Nothing inside `src/` knows about tracing.

A span has a name, a start, an end and the span that caused it. Spans are
kept in memory and written out once, at the end of the run. Each thread has
its own stack of open spans; a span opened on a worker thread whose stack
is empty (the sweep thread pool) takes the main thread's innermost open
span as its parent, which is the `sweep_distance` call waiting on the pool.

Self time is a span's duration minus the part of it that its children
cover. Children on different threads may overlap; the overlap is what lets
the summed self times exceed wall time, and

    root duration == sum(self) - sum(overlap)

holds exactly over any tree, which is how the trace accounts for its wall
time.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; safe to use from the sweep thread pool."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            main = self._main_stack
            parent = main[-1].id if main else None
        span = Span(next(self._ids), parent, name, time.perf_counter(), attrs=attrs)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)

    def adopt(self, records: list[dict], parent: Span) -> None:
        """Attach spans recorded by a child process under `parent`.

        perf_counter reads the system-wide monotonic clock on Linux, so the
        child's times are on the same axis as ours.
        """
        ids = {rec["id"]: next(self._ids) for rec in records}
        for rec in records:
            self.spans.append(Span(
                ids[rec["id"]],
                ids[rec["parent"]] if rec["parent"] is not None else parent.id,
                rec["name"], rec["start"], rec["end"], rec["attrs"]))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"id": s.id, "parent": s.parent, "name": s.name,
                        "start": s.start, "end": s.end, "attrs": s.attrs}
                       for s in self.spans], fh)


# ------------------------------------------------------------ self time

def children_of(spans: list[Span]) -> dict[Optional[int], list[Span]]:
    out: dict[Optional[int], list[Span]] = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def self_and_overlap(span: Span, children: list[Span]) -> tuple[float, float]:
    """(self time, child overlap) of one span, children clipped to it."""
    parts = sorted((max(c.start, span.start), min(c.end, span.end))
                   for c in children)
    parts = [(a, b) for a, b in parts if b > a]
    covered = 0.0
    cur_a = cur_b = None
    for a, b in parts:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return span.duration - covered, sum(b - a for a, b in parts) - covered


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    kids = children_of(spans)
    return {s.id: self_and_overlap(s, kids.get(s.id, [])) for s in spans}


# ------------------------------------------------------------ wrappers

IONREP_MODULES = ("ionrep", "ionrep.model", "ionrep.rates", "ionrep.optimize",
                  "ionrep.mcsim", "ionrep.figures", "ionrep.cli")

# (module, attribute, span name). A function is replaced wherever an ionrep
# module holds it, since `from .x import f` copies the name.
TARGETS = (
    ("ionrep.cli", "load_config", "cli.load_config"),
    ("ionrep.cli", "emit", "cli.emit"),
    ("ionrep.figures", "curve_rows", "figures.curve_rows"),
    ("ionrep.optimize", "sweep_distance", "optimize.sweep_distance"),
    ("ionrep.optimize", "optimize_rate", "optimize.optimize_rate"),
    ("ionrep.optimize", "crossover_distance", "optimize.crossover_distance"),
    ("ionrep.rates", "evaluate_rate", "rates.evaluate_rate"),
    ("ionrep.mcsim", "validate_against_analytic", "mcsim.validate_against_analytic"),
    ("ionrep.mcsim", "run_protocol_sim", "mcsim.run_protocol_sim"),
)
# model functions are wrapped only where rates imported them
MODEL_FUNCTIONS = ("derive_timing", "link_success_prob", "end_to_end_fidelity",
                   "werner_rci")


def _optimize_attrs(span: Span, args: tuple, kwargs: dict, result) -> None:
    from ionrep.optimize import Constraints, SearchBounds
    bounds = kwargs.get("bounds", args[3] if len(args) > 3 else None) or SearchBounds()
    cons = kwargs.get("constraints", args[4] if len(args) > 4 else None) or Constraints()
    pinned = cons.fixed_n is not None or cons.fixed_l0_km is not None
    rows = 1 if pinned else bounds.n_max + 1
    span.attrs["grid_cells"] = rows * bounds.m_max
    span.attrs["evaluations"] = result.evaluations if result is not None else 0


def _sweep_attrs(span: Span, args: tuple, kwargs: dict, result) -> None:
    names = ("l_list", "spatial_mux", "hw", "bounds", "constraints", "threads")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    span.attrs["threads"] = max(1, bound.get("threads") or 1)
    span.attrs["key"] = repr((bound["hw"], bound["spatial_mux"], bound.get("constraints"),
                              tuple(bound["l_list"]), bound.get("bounds")))


def _sim_attrs(span: Span, args: tuple, kwargs: dict, result) -> None:
    config = args[0] if args else kwargs["config"]
    # iterations of _run_chunk's step loop per chunk: t = 0 .. block_steps - 2j
    span.attrs["steps_per_chunk"] = config.block_steps - 2 * config.j_steps + 1


HOOKS: dict[str, Callable] = {
    "optimize.optimize_rate": _optimize_attrs,
    "optimize.sweep_distance": _sweep_attrs,
    "mcsim.run_protocol_sim": _sim_attrs,
}


def _wrap(fn: Callable, name: str, tracer: Tracer) -> Callable:
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(span)
            if hook is not None:
                hook(span, args, kwargs, result)

    return traced


class _TracedGenerator:
    """numpy Generator whose `random` fills are recorded as draw spans."""

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        span = self._tracer.open("mcsim.draw")
        try:
            out = self._gen.random(*args, **kwargs)
        finally:
            self._tracer.close(span)
        span.attrs["draws"] = int(out.size)
        span.attrs["bytes"] = int(out.nbytes)
        return out

    def __getattr__(self, name: str):
        return getattr(self._gen, name)


def _numpy_with_traced_rng(numpy, tracer: Tracer) -> types.ModuleType:
    def default_rng(*args, **kwargs):
        return _TracedGenerator(numpy.random.default_rng(*args, **kwargs), tracer)

    random_ns = types.ModuleType("numpy.random")
    random_ns.__dict__.update(vars(numpy.random))
    random_ns.default_rng = default_rng
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(vars(numpy))
    proxy.random = random_ns
    proxy.__getattr__ = lambda name: getattr(numpy, name)
    return proxy


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Wrap the traced ionrep functions for the duration of the block."""
    mods = {name: importlib.import_module(name) for name in IONREP_MODULES}
    saved: list[tuple[object, str, object]] = []

    def swap(mod, attr, new):
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    for mod_name, attr, span_name in TARGETS:
        original = getattr(mods[mod_name], attr)
        traced = _wrap(original, span_name, tracer)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    swap(mod, key, traced)
    rates = mods["ionrep.rates"]
    for attr in MODEL_FUNCTIONS:
        swap(rates, attr, _wrap(getattr(rates, attr), f"model.{attr}", tracer))
    mcsim = mods["ionrep.mcsim"]
    swap(mcsim, "np", _numpy_with_traced_rng(mcsim.np, tracer))
    try:
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


# ------------------------------------------------------------ metrics

SIM_CLASSES = ("small_grid", "blind_long_k", "wait", "headline")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], root: Span, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run of `wall_s` seconds under `root`."""
    kids = children_of(spans)
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def self_sum(name: str) -> float:
        return sum(selfs[s.id][0] for s in named(name))

    def durations(name: str) -> list[float]:
        return [s.duration for s in named(name)]

    def ancestor_attr(span: Span, key: str):
        while span is not None:
            if key in span.attrs:
                return span.attrs[key]
            span = by_id.get(span.parent)
        return None

    out: dict[str, float] = {}
    out["cli.load_config_ms"] = _median(durations("cli.load_config")) * 1e3
    out["cli.emit_ms"] = _median(durations("cli.emit")) * 1e3

    curves = named("figures.curve_rows")
    out["figures.curve_rows.calls"] = len(curves)
    out["figures.curve_rows.self_ms"] = self_sum("figures.curve_rows") * 1e3
    sweeps = named("optimize.sweep_distance")
    out["figures.distinct_sweep_frac"] = (
        len({s.attrs["key"] for s in sweeps}) / len(sweeps) if sweeps else 0.0)

    opts = named("optimize.optimize_rate")
    out["optimize.optimize_rate.calls"] = len(opts)
    out["optimize.optimize_rate.p50_ms"] = _median(durations("optimize.optimize_rate")) * 1e3
    out["optimize.optimize_rate.self_ms"] = self_sum("optimize.optimize_rate") * 1e3
    cells = sum(s.attrs["grid_cells"] for s in opts)
    out["optimize.grid_cells"] = cells
    out["optimize.feasible_frac"] = (
        sum(s.attrs["evaluations"] for s in opts) / cells if cells else 0.0)
    out["optimize.sweep_distance.self_ms"] = self_sum("optimize.sweep_distance") * 1e3
    capacity = sum(s.attrs["threads"] * s.duration for s in sweeps)
    busy = sum(c.duration for s in sweeps for c in kids.get(s.id, [])
               if c.name == "optimize.optimize_rate")
    out["optimize.thread_busy_frac"] = busy / capacity if capacity else 0.0
    out["optimize.crossover_distance.optimize_calls"] = sum(
        1 for s in named("optimize.crossover_distance")
        for c in kids.get(s.id, []) if c.name == "optimize.optimize_rate")

    evals = named("rates.evaluate_rate")
    out["rates.evaluate_rate.calls"] = len(evals)
    out["rates.evaluate_rate.p50_us"] = _median(durations("rates.evaluate_rate")) * 1e6
    out["rates.evaluate_rate.self_us"] = self_sum("rates.evaluate_rate") * 1e6
    model = [c for e in evals for c in kids.get(e.id, []) if c.name.startswith("model.")]
    out["model.calls_per_evaluate"] = len(model) / len(evals) if evals else 0.0
    out["model.self_us_per_evaluate"] = (
        sum(selfs[c.id][0] for c in model) / len(evals) * 1e6 if evals else 0.0)

    draws = named("mcsim.draw")
    sims = named("mcsim.run_protocol_sim")
    chunks = {s.id: 0 for s in sims}
    for d in draws:
        if d.parent in chunks:
            chunks[d.parent] += 1
    steps = {s.id: chunks[s.id] * s.attrs["steps_per_chunk"] for s in sims}
    for cls in SIM_CLASSES:
        runs = [s for s in named("mcsim.validate_against_analytic")
                if ancestor_attr(s, "sim_class") == cls]
        cls_sims = [s for s in sims if ancestor_attr(s, "sim_class") == cls]
        cls_draws = [d for d in draws if ancestor_attr(d, "sim_class") == cls]
        draw_s = sum(d.duration for d in cls_draws)
        n_draws = sum(d.attrs["draws"] for d in cls_draws)
        n_steps = sum(steps[s.id] for s in cls_sims)
        out[f"mcsim.{cls}.run_s"] = sum(s.duration for s in runs)
        out[f"mcsim.{cls}.ns_per_draw"] = draw_s / n_draws * 1e9 if n_draws else 0.0
        out[f"mcsim.{cls}.us_per_step"] = (
            (sum(s.duration for s in cls_sims) - draw_s) / n_steps * 1e6
            if n_steps else 0.0)
    out["mcsim.draws"] = sum(d.attrs["draws"] for d in draws)
    out["mcsim.step_iterations"] = sum(steps.values())
    out["mcsim.peak_draw_bytes"] = max((d.attrs["bytes"] for d in draws), default=0)

    tree = _subtree(root, kids)
    out["trace.accounted_frac"] = (
        sum(selfs[s.id][0] - selfs[s.id][1] for s in tree) / wall_s)
    return out


def _subtree(root: Span, kids: dict[Optional[int], list[Span]]) -> list[Span]:
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(s.id, []))
    return out


# computed from array sizes and configs, not timed; they repeat exactly
COMPUTED = ("optimize.grid_cells", "mcsim.draws", "mcsim.step_iterations",
            "mcsim.peak_draw_bytes")


def main_shim() -> int:
    """Run `ionrep.cli.main` traced, writing spans to $PERFBENCH_SPANS."""
    import os
    tracer = Tracer()
    with install(tracer):
        import ionrep.cli
        span = tracer.open("cli.main")
        try:
            code = ionrep.cli.main(sys.argv[1:])
        finally:
            tracer.close(span)
    tracer.dump(os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main_shim())
