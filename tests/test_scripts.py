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
