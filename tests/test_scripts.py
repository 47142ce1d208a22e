"""Smoke tests of the scripts under scripts/, run in-process."""
import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


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


def test_output_digest_prints_one_line_per_call(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the script sets it for argparse
    digest = _load("output_digest")
    digest.main()
    lines = capsys.readouterr().out.splitlines()
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
