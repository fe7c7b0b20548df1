import numpy as np

from ufrank import parallel


def tag_items(tag, chunk):
    return [(tag, int(i), chunk.size) for i in chunk]


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
