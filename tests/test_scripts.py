"""Smoke tests of the scripts under scripts/, run in-process, and their
output checked against the goldens under tests/golden/.

The goldens are the frozen outputs: each line of output_digest.txt hashes
one CLI call's bytes, and report_digest.txt hashes REPORT_POINTS reports
and simulator p values at the last bit. A declared output change re-records
them in the same commit, from the repository root:

    python3 scripts/output_digest.py > tests/golden/output_digest.txt
    python3 scripts/report_digest.py --points 4000 > tests/golden/report_digest.txt
"""
import contextlib
import importlib.util
import io
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
REPORT_POINTS = 4000  # about 0.7 s of report_digest


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


def _printed(main, *args) -> list[str]:
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setenv("COLUMNS", "80")  # output_digest sets it for argparse
        main(*args)
    return out.getvalue().splitlines()


@pytest.fixture(scope="module")
def output_digest():
    """The output_digest module and the lines its main printed, run once."""
    digest = _load("output_digest")
    return digest, _printed(digest.main)


def assert_golden(lines: list[str], name: str, what) -> None:
    """lines equal the golden file name line by line; a failure names the
    first line that differs by what(golden line)."""
    want = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    for i, (got, expected) in enumerate(zip(lines, want), 1):
        assert got == expected, (f"{name} line {i}, {what(expected)}, differs from its "
                                 f"golden: {got.split(' ', 2)[:2]} != "
                                 f"{expected.split(' ', 2)[:2]}")
    assert len(lines) == len(want), f"{name}: {len(lines)} lines, golden has {len(want)}"


def test_output_digest_matches_its_golden(output_digest):
    assert_golden(output_digest[1], "output_digest.txt",
                  lambda line: "call `" + line.split(" ", 2)[2] + "`")


def test_report_digest_matches_its_golden():
    lines = _printed(_load("report_digest").main, ["--points", str(REPORT_POINTS)])
    assert_golden(lines, "report_digest.txt", lambda line: "hash of " + line.split(" ")[1])


def test_output_digest_prints_one_line_per_call(output_digest):
    digest, lines = output_digest
    assert len(lines) >= 150
    calls = [line.split(" ", 2) for line in lines]
    assert all(len(sha) == 64 for sha, _, _ in calls)
    assert {code for _, code, _ in calls} == {"0", "2", "3", "4"}
    assert {argv.split()[0] for _, _, argv in calls} == {
        "--help", "rate", "classify", "optimize", "sweep", "figure", "simulate"}
    # two runs of one call hash alike
    assert digest.call(["rate", "--n", "3", "--time-mux", "4"]) == \
        digest.call(["rate", "--n", "3", "--time-mux", "4"])


def test_report_digest_prints_two_hashes(capsys):
    digest = _load("report_digest")
    digest.main(["--points", "100"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ")[1] for line in lines] == ["evaluate_rate", "SimConfig.p"]
    assert all(len(line.split(" ")[0]) == 64 for line in lines)
    # the points, and so the hashes, are fixed by the seed
    assert digest.digests(100, 0) == tuple(line.split(" ")[0] for line in lines)
    assert digest.digests(100, 1) != digest.digests(100, 0)
