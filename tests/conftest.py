"""Shared fixtures and helpers, plus a reporter that prints one line per
acceptance criterion at the end of the run."""

import os

import numpy as np
import pytest

from hoamp.ensemble import factoring_ranges, fidelity, member_masses

_ACCEPTANCE_LINES = []


class AcceptanceRecorder:
    """Collects criterion outcomes; check() records the line, then asserts."""

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE: {name} ... {status}"
        if detail:
            line += f"   ({detail})"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, f"acceptance criterion failed: {name} {detail}"


def factoring_rectangle(N):
    """Every trial pair of N, lexicographic, one per row."""
    n_lo, n_hi, m_lo, m_hi = factoring_ranges(N)
    n, m = np.meshgrid(np.arange(n_lo, n_hi + 1), np.arange(m_lo, m_hi + 1), indexing="ij")
    return np.stack([n.ravel(), m.ravel()], axis=1)


def factor_fidelity(state, N):
    """The engine's fidelity of a stored factoring state: that of bin N."""
    i = int(np.searchsorted(state.keys, N))
    return fidelity(int(state.counts[i]), float(state.mass[i]), state.total)


def per_member(state):
    """(tuples, masses): every member tuple, ascending, with its share
    mass/count of its bin's mass."""
    pairs = member_masses(state)
    return np.array([p for p, _ in pairs]), np.array([w for _, w in pairs])


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid or '(still running)'} unreaped")


@pytest.fixture
def acceptance():
    return AcceptanceRecorder()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
