"""Fixtures and marks shared by every test module."""
import pathlib

import pytest

import ionrep.optimize as optimize_module

TESTS_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Every warning raised in a test under this directory is an error:
    ionrep has no warning path, so a warning is a fault in the code or in
    the test (a file left open, a numpy overflow). A test that expects one
    catches it itself, with pytest.warns or warnings.catch_warnings."""
    for item in items:
        if TESTS_DIR in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture(autouse=True)
def empty_sweep_cache():
    """Each test starts and ends with sweep_variants' cache empty: tests
    that count solves, or patch what a solve calls, must not read rows an
    earlier test left behind, whatever order the tests run in."""
    optimize_module._solved.clear()
    yield
    optimize_module._solved.clear()
