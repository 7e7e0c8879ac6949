"""Fixtures shared by the test modules: a pool that counts itself, and a
guard that the session leaves no process running."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

import liepqc.util as util_mod


@pytest.fixture(scope="session", autouse=True)
def no_processes_left():
    """At the end of the session, ``util.run_tasks``'s kept pool is closed
    and no child process is left running."""
    yield
    util_mod._close_pool()
    assert multiprocessing.active_children() == []


@pytest.fixture
def forked_pool(monkeypatch):
    """``util.run_tasks``'s pool with forked children; lists each pool made
    as its (max_workers, initializer).

    The kept pool is closed before and after the test, so the test's first
    pooled call forks children that inherit its patches, and the next test
    does not reuse them.
    """
    fork = multiprocessing.get_context("fork")
    pools = []

    def forked(max_workers, initializer):
        pools.append((max_workers, initializer))
        return ProcessPoolExecutor(max_workers, mp_context=fork, initializer=initializer)

    util_mod._close_pool()
    monkeypatch.setattr(util_mod, "ProcessPoolExecutor", forked)
    yield pools
    util_mod._close_pool()
