"""Shared fixtures and small enumeration helpers for the test suite."""

import os
import time
from itertools import combinations, combinations_with_replacement

import pytest

from sepsys import Family
import sepsys.search as search


def all_families(m, max_members, with_duplicates=False):
    """Every family on ground m with at most max_members members.

    Member order is normalized ascending; properties under test are
    order-invariant.  With duplicates enabled the enumeration covers
    multiset families as well.
    """
    words = range(1 << m)
    picker = combinations_with_replacement if with_duplicates else combinations
    for size in range(max_members + 1):
        for combo in picker(words, size):
            yield Family(m, tuple(combo))


@pytest.fixture(scope="session")
def _g5_timed():
    t0 = time.time()
    report = search.max_nice_size(5, 2)
    return report, time.time() - t0


@pytest.fixture(scope="session")
def g5_report(_g5_timed):
    """The m=5 exhaustive nice-family search, shared across test modules."""
    return _g5_timed[0]


@pytest.fixture(scope="session")
def g5_seconds(_g5_timed):
    return _g5_timed[1]


@pytest.fixture(autouse=True)
def _no_child_process_left():
    """Fail any test that leaves a child process behind, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind (pid {pid or 'still running'})")
