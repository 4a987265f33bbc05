"""Shared fixtures: tiny systems and cached SCF results to keep tests fast —
and the tier-1 budget that holds every test to it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dft.grid import RealSpaceGrid
from repro.dft.scf import SCFOptions, run_scf
from repro.systems import dimer, sic_crystal

#: The tier-1 ceiling: wall-clock seconds any one test may take, set-up (the
#: shared fixtures it is the first to build included) plus call.  The
#: slowest test measures about 20 s on the 2-vCPU build host; a session
#: with a test over the ceiling fails, naming it.
TEST_BUDGET_S = 60.0

_SPENT = pytest.StashKey[dict]()


def pytest_configure(config):
    config.stash[_SPENT] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    if report.when in ("setup", "call"):
        spent = item.config.stash[_SPENT]
        spent[item.nodeid] = spent.get(item.nodeid, 0.0) + report.duration


def _over_budget(config) -> list[tuple[str, float]]:
    return sorted(
        (nodeid, seconds) for nodeid, seconds in config.stash[_SPENT].items()
        if seconds > TEST_BUDGET_S
    )


def pytest_terminal_summary(terminalreporter, config):
    for nodeid, seconds in _over_budget(config):
        terminalreporter.write_line(
            f"OVER BUDGET {nodeid}: {seconds:.1f} s of set-up + call, the "
            f"tier-1 ceiling is {TEST_BUDGET_S:g} s per test",
            red=True,
        )


def pytest_sessionfinish(session, exitstatus):
    if exitstatus == pytest.ExitCode.OK and _over_budget(session.config):
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(scope="session")
def h2_config():
    return dimer("H", "H", 1.4, 12.0)


@pytest.fixture(scope="session")
def h2_scf(h2_config):
    """A converged SCF result on the toy H₂ dimer (session-cached)."""
    opts = SCFOptions(ecut=8.0, extra_bands=3, tol=1e-8, eig_tol=1e-9)
    res = run_scf(h2_config, opts)
    assert res.converged
    return res


@pytest.fixture(scope="session")
def sic8():
    return sic_crystal((1, 1, 1))


@pytest.fixture()
def small_grid():
    return RealSpaceGrid([9.0, 10.0, 11.0], [12, 12, 12])


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
