"""Smoke tests of the scripts under scripts/, run in-process, and the digest
checked against its golden, tests/golden/digest.txt, the frozen output. A
declared output change re-records it in the same commit, from the repo root:

    python3 scripts/digest.py > tests/golden/digest.txt

The digest's last two lines, the evaluate_rate and SimConfig.p hashes of
float bits, depend on numpy's CPU dispatch: the golden was recorded with
numpy's AVX-512 loops, whose exp, log1p, expm1 and power differ in the last
bit from its AVX2 and SSE loops on part of their inputs. With
NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
test_report_digest_matches_its_golden fails and every other test passes; a
CPU without AVX-512 runs those other loops, so it should fail there too.
"""
import contextlib
import importlib.util
import io
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "digest.txt"


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


def _golden() -> list[str]:
    return GOLDEN.read_text(encoding="utf-8").splitlines()


# pytest's list diff names the first line that differs, call or hash
def test_output_digest_matches_its_golden(digest):
    assert digest[1][:-2] == _golden()[:-2]


def test_report_digest_matches_its_golden(digest):
    assert digest[1][-2:] == _golden()[-2:]


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
