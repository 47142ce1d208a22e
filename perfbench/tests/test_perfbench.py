"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke tests run the real command on one pass per workload, so this file
takes a couple of minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracer import COMPUTED, Span, Tracer, layer_metrics, self_times  # noqa: E402
from worker import tail  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_per_seed(name):
    def passes(seed):
        wl = WORKLOADS[name](seed)
        tally = Tally()
        wl.setup(tally)
        assert tally.failed == 0, tally.failures
        return [wl.make_pass() for _ in range(3)]

    assert passes(5) == passes(5)
    assert passes(5) != passes(6)


def test_self_time_arithmetic_on_a_hand_built_tree():
    # b overlaps a by one second, as two pool threads would
    spans = [Span(1, None, "root", 0.0, 10.0), Span(2, 1, "a", 1.0, 4.0),
             Span(3, 2, "a1", 2.0, 3.0), Span(4, 1, "b", 3.0, 6.0),
             Span(5, 1, "c", 8.0, 9.5)]
    st = self_times(spans)
    assert st == {1: (3.5, 1.0), 2: (2.0, 0.0), 3: (1.0, 0.0), 4: (3.0, 0.0),
                  5: (1.5, 0.0)}
    assert sum(s - o for s, o in st.values()) == spans[0].duration
    assert layer_metrics(spans, spans[0], 10.0)["trace.accounted_frac"] == 1.0


def test_child_clipped_to_parent():
    st = self_times([Span(1, None, "root", 0.0, 2.0), Span(2, 1, "late", 1.5, 3.0)])
    assert st[1] == (1.5, 0.0)


def test_pool_thread_spans_parent_to_the_waiting_main_span():
    tracer = Tracer()
    with tracer.span("sweep") as sweep:
        worker = threading.Thread(target=lambda: tracer.close(tracer.open("point")))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    point = next(s for s in tracer.spans if s.name == "point")
    assert point.parent == sweep.id


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = tail([float(i) for i in range(30)])
    assert value == 19.0 and pct == pytest.approx(100.0 * 20 / 30)
    assert sum(1 for v in range(30) if v > value) == 10


def test_smoke_all_workloads():
    out = last_line(run_bench("--workload", "all", "--seed", "1", "--seconds", "1",
                              "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert set(out["metrics"]) == wanted
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", ["planner_queries", "sim_validate"])
def test_traced_counts_repeat_for_a_seed(name):
    runs = [last_line(run_bench("--workload", name, "--seed", "4", "--seconds", "1",
                                "--trace", "1"))
            for _ in range(2)]
    assert set(runs[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for key in COMPUTED:
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key], key
    assert all(r["correct"] for r in runs)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "planner_queries", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
