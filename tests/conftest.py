import time

import pytest

from onelambda.experiments import usable_cpus

_ACCEPTANCE_RESULTS = []
_TEST_START = [0.0]


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    _TEST_START[0] = time.perf_counter()


def record_criterion(crit_id: str, description: str, passed: bool, detail: str = ""):
    """Collect one acceptance-criterion verdict, with the wall time its test
    has taken so far, for the end-of-run table."""
    wall = time.perf_counter() - _TEST_START[0]
    _ACCEPTANCE_RESULTS.append((crit_id, description, bool(passed), detail, wall))


def workers() -> int:
    """Pool size for the criteria: the usable CPUs, at most 2."""
    return min(2, usable_cpus())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid, desc, ok, detail, wall in _ACCEPTANCE_RESULTS:
        line = f"{wall:7.1f} s  [{'PASS' if ok else 'FAIL'}] {cid}: {desc}"
        if detail:
            line += f"  -- {detail}"
        terminalreporter.write_line(line)
    total = sum(r[4] for r in _ACCEPTANCE_RESULTS)
    terminalreporter.write_line(f"{total:7.1f} s  in {len(_ACCEPTANCE_RESULTS)} criteria")
