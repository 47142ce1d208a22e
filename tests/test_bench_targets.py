"""The benchmark's traced run wraps ionrep functions by name, listed in
perfbench/tracer.py; a renamed or deleted function would crash that run.
The names are read from the file's source, without importing or running it.
"""
import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_constant(name: str):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACER.name}")


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _ in _tracer_constant("TARGETS")])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("attr", _tracer_constant("MODEL_FUNCTIONS"))
def test_traced_model_function_resolves_on_rates(attr):
    assert callable(getattr(importlib.import_module("ionrep.rates"), attr))
