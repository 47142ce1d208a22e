"""Smoke tests of the scripts under scripts/, run in-process, and the digest
checked against its golden, tests/golden/digest.txt, the frozen output.

The digest's last two lines, the evaluate_rate and SimConfig.p hashes of
float bits, depend on numpy's CPU dispatch: numpy's AVX-512 loops for exp,
log1p, expm1 and power differ in the last bit from its AVX2 and SSE loops
on part of their inputs, and those two agree. So the golden ends in two
pairs of those lines, one per dispatch family: the AVX-512 loops' pair, then
the pair of the loops without them. The tests pick the pair of the loops
numpy runs, and one test runs the digest with the AVX-512 loops turned off,
so both families are checked on a machine that has them. A declared output
change re-records the golden in the same commit, from the repo root of such
a machine:

    python3 scripts/digest.py > tests/golden/digest.txt
    NPY_DISABLE_CPU_FEATURES="$NO_AVX512" python3 scripts/digest.py | tail -n 2 \
        >> tests/golden/digest.txt

with NO_AVX512="AVX512_SPR AVX512_ICL X86_V4".
"""
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "digest.txt"
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"  # NPY_DISABLE_CPU_FEATURES' value


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_headline_prints_the_crossovers(capsys):
    _load("reproduce_headline").main()
    lines = capsys.readouterr().out.split("\n")
    assert "  M=1: chain first beats PLOB at 133 km" in lines
    assert "  M=10: chain first beats PLOB at 142 km" in lines


@pytest.fixture(scope="module")
def digest():
    """The digest module and the lines its main printed, run once."""
    module, out = _load("digest"), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setenv("COLUMNS", "80")  # main sets it for argparse; this restores it after
        module.main()
    return module, out.getvalue().splitlines()


def _golden(avx512: bool) -> list[str]:
    """The golden as the digest prints it where numpy runs its AVX-512
    loops (avx512) or not: its call lines and that family's report pair."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return lines[:-4] + (lines[-4:-2] if avx512 else lines[-2:])


def _runs_avx512() -> bool:
    """Whether this process's numpy runs its AVX-512 loops."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX"))


# pytest's list diff names the first line that differs, call or hash
def test_output_digest_matches_its_golden(digest):
    assert digest[1][:-2] == _golden(_runs_avx512())[:-2]


def test_report_digest_matches_its_golden(digest):
    assert digest[1][-2:] == _golden(_runs_avx512())[-2:]


def test_digest_without_avx512_matches_its_golden():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    run = subprocess.run([sys.executable, str(SCRIPTS / "digest.py")], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.splitlines() == _golden(avx512=False)


def test_output_digest_prints_one_line_per_call(digest):
    module, lines = digest
    calls = [line.split(" ", 2) for line in lines[:-2]]
    assert len(calls) >= 150
    assert all(len(sha) == 64 for sha, _, _ in calls)
    assert {code for _, code, _ in calls} == {"0", "2", "3", "4"}
    assert {argv.split()[0] for _, _, argv in calls} == {
        "rate", "classify", "optimize", "sweep", "figure", "simulate"}
    # two runs of one call hash alike
    assert module.call(["rate", "--n", "3", "--time-mux", "4"]) == \
        module.call(["rate", "--n", "3", "--time-mux", "4"])


def test_report_digest_prints_two_hashes(digest):
    lines = [line.split(" ") for line in digest[1][-2:]]
    assert [name for _, name in lines] == ["evaluate_rate", "SimConfig.p"]
    assert all(len(sha) == 64 for sha, _ in lines)


def test_mutation_probe_reads_new_lines_from_hunk_headers():
    # a -U0 hunk's "+start,count" names the new file's lines; count 0 is a
    # pure deletion, and a missing count is one line
    diff = ("diff --git a/m.py b/m.py\n--- a/m.py\n+++ b/m.py\n"
            "@@ -3,2 +3 @@ def f():\n-    a\n-    b\n+    c\n"
            "@@ -9 +8,0 @@\n-    d\n"
            "@@ -20,0 +20,3 @@ class C:\n+    e\n+    f\n+    g\n")
    assert _load("mutation_probe").hunk_lines(diff) == {3, 20, 21, 22}


def _perfbench_stdout(p50_ms: float, rss_mb: float) -> str:
    """perfbench/run.py's last two lines, as one run prints them."""
    metrics = {"p50_ms": {"value": p50_ms, "unit": "ms"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    return "\n".join([
        '{"workload": "figure_family", "machine": {"nproc": 2, "commit": "abc"}}',
        f'{{"correct": true, "attempted": 8, "failed": 0, "metrics": {json.dumps(metrics)}}}',
        ""])


def test_bench_summarizes_pairs_per_metric():
    bench = _load("bench")
    entries = [{"name": "p50_ms", "unit": "ms", "better": "lower"},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]
    first = bench.parse_run(_perfbench_stdout(2.0, 120.0))
    assert first == {"correct": True, "attempted": 8, "failed": 0,
                     "metrics": {"p50_ms": 2.0, "peak_rss_mb": 120.0},
                     "machine": {"nproc": 2, "commit": "abc"}}
    # p50: the change wins pairs 0 and 1 and ties pair 2; RSS: it loses
    # pair 0, so its median of 120.0 clears nothing
    sides = {"base": [(2.0, 120.0), (3.0, 120.0), (1.0, 120.0)],
             "change": [(1.5, 120.5), (2.0, 120.0), (1.0, 120.0)]}
    runs = [{"workload": "figure_family", "pair": pair, "side": side,
             **bench.parse_run(_perfbench_stdout(*values))}
            for side, per_pair in sides.items() for pair, values in enumerate(per_pair)]
    summary = bench.summarize(runs, entries)["figure_family"]
    assert summary["p50_ms"] == {
        "unit": "ms", "better": "lower", "pairs": 3,
        "base": {"median": 2.0, "q1": 1.5, "q3": 2.5},
        "change": {"median": 1.5, "q1": 1.25, "q3": 1.75},
        "change_wins": 2, "clears_base_iqr": False}
    assert summary["peak_rss_mb"]["change_wins"] == 0
    assert summary["peak_rss_mb"]["change"]["median"] == 120.0
    # a median better by more than the base's quartile distance clears it
    runs[3]["metrics"]["p50_ms"] = runs[4]["metrics"]["p50_ms"] = 0.5
    assert bench.summarize(runs, entries)["figure_family"]["p50_ms"]["clears_base_iqr"]


def test_bench_records_the_start_up_floor():
    bench = _load("bench")
    allowed = os.sched_getaffinity(0)
    record = bench.startup_floor(runs=1)
    assert os.sched_getaffinity(0) == allowed  # the pin is undone
    floor = record.pop("startup_floor_ms")
    assert list(floor) == ["python -S -c pass", "python -c pass",
                           'python -c "import numpy"']
    assert all(0.0 < ms < 60_000.0 for ms in floor.values())
    assert floor['python -c "import numpy"'] > floor["python -S -c pass"]
    assert record == {"startup_core": max(allowed), "startup_runs": 1,
                      "numpy_avx512_skx": record["numpy_avx512_skx"]}
    assert isinstance(record["numpy_avx512_skx"], bool)
