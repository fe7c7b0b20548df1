import numpy as np

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
