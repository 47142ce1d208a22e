"""Fixtures shared by every test module."""
import pytest

import ionrep.optimize as optimize_module


@pytest.fixture(autouse=True)
def empty_sweep_cache():
    """Each test starts and ends with sweep_variants' cache empty: tests
    that count solves, or patch what a solve calls, must not read rows an
    earlier test left behind, whatever order the tests run in."""
    optimize_module._solved.clear()
    yield
    optimize_module._solved.clear()
