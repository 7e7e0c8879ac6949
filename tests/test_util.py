"""Seeding, deterministic reductions, complex and strict JSON encoding, the
process runner."""

import json
import math
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liepqc.util as util_mod
from liepqc.util import (
    complex_from_json,
    complex_to_json,
    json_text,
    pairwise_mean,
    pairwise_sum,
    rng_from,
    run_tasks,
    stable_key,
)


def test_stable_key_mixes_ints_and_strings():
    a = stable_key(3, "metric", 7)
    b = stable_key(3, "metric", 7)
    assert a == b
    assert stable_key(3, "metric") != stable_key(3, "variance")


def test_rng_streams_independent_and_reproducible():
    x = rng_from(5, "theta", 0).uniform(size=4)
    y = rng_from(5, "theta", 0).uniform(size=4)
    z = rng_from(5, "theta", 1).uniform(size=4)
    np.testing.assert_array_equal(x, y)
    assert not np.array_equal(x, z)


def test_pairwise_sum_matches_total():
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((13, 4, 4))
    np.testing.assert_allclose(pairwise_sum(arr), arr.sum(axis=0), atol=1e-12)


def test_pairwise_sum_chunking_invariance():
    # the reduction tree depends only on the count, so any precomputed
    # partition of the same samples gives bit-identical results
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((16, 3))
    direct = pairwise_mean(arr)
    again = pairwise_mean(arr.copy())
    assert np.array_equal(direct, again)


def test_pairwise_sum_empty_raises():
    with pytest.raises(ValueError):
        pairwise_sum(np.empty((0, 2)))


def test_complex_json_round_trip_vector():
    v = np.array([1 + 2j, -0.5j, 3.0])
    np.testing.assert_array_equal(complex_from_json(complex_to_json(v)), v)


def test_complex_json_round_trip_matrix():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_array_equal(complex_from_json(complex_to_json(m)), m)


def test_complex_json_shape_is_re_im_pairs():
    data = complex_to_json(np.array([1 + 2j]))
    assert data == [[1.0, 2.0]]


def _pairing_reference(rows: list) -> float:
    """Pairwise sum as a recursion on Python lists: pair neighbours, carry an odd last."""
    if len(rows) == 1:
        return rows[0]
    paired = [rows[i] + rows[i + 1] for i in range(0, len(rows) - 1, 2)]
    if len(rows) % 2:
        paired.append(rows[-1])
    return _pairing_reference(paired)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text("ab", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(st.text("ab", max_size=4), inner, max_size=3),
    max_leaves=12,
))
def test_json_text_is_strict_and_keeps_finite_text(doc):
    # strict JSON always, and json.dumps's own text wherever that is strict
    text = json_text(doc)
    json.loads(text, parse_constant=_no_constant)
    loose = json.dumps(doc, indent=2)
    if "NaN" not in loose and "Infinity" not in loose:
        assert text == loose


def test_json_text_writes_nonfinite_floats_as_null():
    doc = {"kappa": np.inf, "margins": (1.5, np.float64(0.1), -math.inf, math.nan)}
    assert json.loads(json_text(doc), parse_constant=_no_constant) == {
        "kappa": None, "margins": [1.5, 0.1, None, None],
    }


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), min_size=1, max_size=64))
def test_pairwise_sum_matches_recursive_pairing_property(values):
    got = pairwise_sum(np.array(values))
    want = _pairing_reference([np.float64(v) for v in values])
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# run_tasks's kept pool
# ---------------------------------------------------------------------------


def _exit_in_task(code):
    os._exit(code)


def _raise_in_task(value):
    raise LookupError(value)


def test_a_task_that_kills_its_process_raises_and_the_next_call_starts_clean(forked_pool):
    with pytest.raises(BrokenProcessPool):
        run_tasks(_exit_in_task, [3], 2)
    assert util_mod._pool is None and multiprocessing.active_children() == []
    assert run_tasks(abs, [-1, 2, -3], 2) == [1, 2, 3]
    with pytest.raises(LookupError, match="injected"):
        run_tasks(_raise_in_task, ["injected"], 2)
    assert util_mod._pool is None and multiprocessing.active_children() == []
    assert run_tasks(abs, [-4], 2) == [4]
    assert forked_pool == [(2, util_mod._one_blas_thread)] * 3


def test_a_new_worker_count_closes_the_pool_before_forking(monkeypatch, forked_pool):
    # no fork while another pool's processes or threads are alive
    threads = threading.active_count()
    opening = util_mod.ProcessPoolExecutor
    alive = []

    def checking(max_workers, initializer):
        alive.append((len(multiprocessing.active_children()), threading.active_count()))
        return opening(max_workers, initializer)

    monkeypatch.setattr(util_mod, "ProcessPoolExecutor", checking)
    for workers in (2, 3, 3, 1, 2, 2):
        assert run_tasks(abs, [-1, -2, -3], workers) == [1, 2, 3]
    assert [max_workers for max_workers, _ in forked_pool] == [2, 3, 2]
    assert alive == [(0, threads)] * 3


def test_a_pool_that_broke_while_idle_is_replaced_before_the_tasks_run(forked_pool):
    # a pool process killed between calls (by the OOM killer, say) costs no call
    assert run_tasks(abs, [-1, -2], 2) == [1, 2]
    pool = util_mod._pool[1]
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30.0
    while not pool._broken:
        assert time.monotonic() < deadline, "the pool did not notice its dead process"
        time.sleep(0.01)
    assert run_tasks(abs, [-3], 2) == [3]
    assert forked_pool == [(2, util_mod._one_blas_thread)] * 2
