"""Work split across process pools shared by the package.

At W workers the calling process is worker 0: it computes the first chunk
of a call itself, and a pool of W - 1 processes computes the others. Pools
are created lazily, one per worker count, and reused for the life of the
process: repeated fold/tree loops then pay the spawn cost once. All tasks
are pure functions of their arguments, and callers key every random draw
by stable indices, so neither scheduling nor the process a chunk runs in
can change a result.
"""

from __future__ import annotations

import atexit
import time

import numpy as np

# worker count -> ProcessPoolExecutor of workers - 1 processes
_POOLS: dict = {}


def map_chunks(fn, shared: tuple, items, workers: int) -> list:
    """``fn(*shared, chunk)`` over the non-empty chunks of ``items`` (an
    array or any sliceable sequence), each returning a list; the lists are
    concatenated in item order. The chunks are ``workers`` contiguous slices
    of ``items``, sized as ``np.array_split`` sizes them, so a task carries
    only its own items. Runs inline, as one call on all the items, when
    ``workers < 2`` or there are fewer than two items.

    Otherwise chunks 1.. go to the pool, and once each of them is running
    the calling process computes chunk 0. Whether chunk 0 returns or
    raises, the call waits for the pool's chunks, so none outlives it; an
    exception from any chunk propagates."""
    if workers < 2 or len(items) < 2:
        return fn(*shared, items)
    # imported here, so that a command that makes no pool does not load them
    from concurrent.futures import ProcessPoolExecutor, wait

    if workers not in _POOLS:
        _POOLS[workers] = ProcessPoolExecutor(max_workers=workers - 1)
    edges = [c[0] for c in np.array_split(np.arange(len(items)), workers)
             if c.size] + [len(items)]
    chunks = [items[a:b] for a, b in zip(edges, edges[1:])]
    futures = [_POOLS[workers].submit(fn, *shared, c) for c in chunks[1:]]
    # hand the tasks over first: chunk 0 would hold the GIL that the
    # pool's threads need to ship them
    while not all(f.running() or f.done() for f in futures):
        time.sleep(1e-4)
    try:
        first = fn(*shared, chunks[0])
    finally:
        wait(futures)
    return [x for part in [first, *(f.result() for f in futures)]
            for x in part]


@atexit.register
def shutdown() -> None:
    for p in _POOLS.values():
        p.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()
