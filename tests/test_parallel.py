import os
import time

import numpy as np
import pytest

from ufrank import parallel


def tag_items(tag, chunk):
    return [(tag, int(i), len(chunk)) for i in chunk]


def test_map_chunks_keeps_item_order_and_splits_by_worker_count():
    items = np.arange(10, 15)
    inline = parallel.map_chunks(tag_items, ("a",), items, 1)
    assert inline == [("a", i, 5) for i in range(10, 15)]
    split = parallel.map_chunks(tag_items, ("a",), items, 2)
    assert [row[:2] for row in split] == [row[:2] for row in inline]
    assert [row[2] for row in split] == [3, 3, 3, 2, 2]


def test_map_chunks_runs_inline_below_two_items():
    assert parallel.map_chunks(tag_items, ("b",), [7], 4) == [("b", 7, 1)]
    assert parallel.map_chunks(tag_items, ("b",), [], 4) == []


def first_and_chunk(tag, chunk):
    return [(tag, item[0], type(chunk).__name__, len(chunk)) for item in chunk]


def test_map_chunks_passes_slices_of_a_plain_sequence():
    # items numpy cannot stack into one array; each chunk gets only its own
    # slice, still a list, in the sizes np.array_split gives
    items = [(i, np.arange(i)) for i in range(7)]
    split = parallel.map_chunks(first_and_chunk, ("c",), items, 3)
    assert split == [("c", i, "list", size)
                     for i, size in enumerate([3, 3, 3, 2, 2, 2, 2])]
    assert parallel.map_chunks(first_and_chunk, ("c",), items, 1) == [
        ("c", i, "list", 7) for i in range(7)]


def pid_per_item(caller, chunk):
    if os.getpid() != caller:
        time.sleep(0.2)  # keeps this process busy, so no other chunk joins it
    return [(int(i), os.getpid()) for i in chunk]


@pytest.mark.parametrize("workers", [2, 3])
def test_chunk_0_runs_in_the_caller_and_the_rest_in_the_pool(workers):
    me = os.getpid()
    got = parallel.map_chunks(pid_per_item, (me,), np.arange(workers), workers)
    assert [i for i, _ in got] == list(range(workers))
    pids = [pid for _, pid in got]
    assert pids[0] == me
    assert me not in pids[1:]
    assert len(set(pids[1:])) == workers - 1
    # the pool kept for W holds exactly the W - 1 other processes
    assert set(pids[1:]) == set(parallel._POOLS[workers]._processes)


def fail_where(where, caller, stamp, chunk):
    """Raises in the caller's chunk or in the pool's; a pool chunk that
    does not raise leaves ``stamp`` behind once it has finished."""
    in_caller = os.getpid() == caller
    if (where == "caller") == in_caller:
        raise ValueError(f"chunk at {int(chunk[0])}")
    if not in_caller:
        time.sleep(0.2)
        stamp.write_text("done")
    return [int(i) for i in chunk]


def test_a_raise_in_the_callers_chunk_waits_for_the_pool_and_keeps_it(
        tmp_path):
    stamp = tmp_path / "stamp"
    with pytest.raises(ValueError, match="chunk at 0"):
        parallel.map_chunks(fail_where, ("caller", os.getpid(), stamp),
                            np.arange(4), 2)
    assert stamp.read_text() == "done"  # the pool's chunk did not outlive it
    assert parallel.map_chunks(tag_items, ("d",), np.arange(4), 2) == [
        ("d", i, 2) for i in range(4)]


def test_a_raise_in_a_pool_chunk_propagates(tmp_path):
    with pytest.raises(ValueError, match="chunk at 2"):
        parallel.map_chunks(fail_where, ("pool", os.getpid(), tmp_path / "s"),
                            np.arange(4), 2)
    assert parallel.map_chunks(tag_items, ("e",), np.arange(4), 2) == [
        ("e", i, 2) for i in range(4)]


def test_shutdown_then_a_new_call_makes_a_fresh_pool():
    items = np.arange(6)
    before = parallel.map_chunks(tag_items, ("f",), items, 2)
    old = parallel._POOLS[2]
    parallel.shutdown()
    assert parallel._POOLS == {}
    assert parallel.map_chunks(tag_items, ("f",), items, 2) == before
    assert parallel._POOLS[2] is not old
