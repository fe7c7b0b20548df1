"""Work split across process pools shared by the package.

Pools are created lazily, one per worker count, and reused for the life of
the process: repeated fold/tree loops then pay the spawn cost once. All
tasks sent through these pools are pure functions of their arguments, and
callers key every random draw by stable indices, so scheduling can never
change a result.
"""

from __future__ import annotations

import atexit
from itertools import repeat

import numpy as np

# worker count -> ProcessPoolExecutor
_POOLS: dict = {}


def map_chunks(fn, shared: tuple, items, workers: int) -> list:
    """``fn(*shared, chunk)`` over the non-empty chunks of ``items`` (an
    array or any sliceable sequence), each returning a list; the lists are
    concatenated in item order. The chunks are ``workers`` contiguous slices
    of ``items``, sized as ``np.array_split`` sizes them, so a task carries
    only its own items. Runs inline, as one call on all the items, when
    ``workers < 2`` or there are fewer than two items."""
    if workers < 2 or len(items) < 2:
        return fn(*shared, items)
    if workers not in _POOLS:
        # imported here, so that a command that makes no pool does not load it
        from concurrent.futures import ProcessPoolExecutor

        _POOLS[workers] = ProcessPoolExecutor(max_workers=workers)
    edges = [c[0] for c in np.array_split(np.arange(len(items)), workers)
             if c.size] + [len(items)]
    chunks = [items[a:b] for a, b in zip(edges, edges[1:])]
    out = []
    for part in _POOLS[workers].map(fn, *map(repeat, shared), chunks):
        out.extend(part)
    return out


@atexit.register
def shutdown() -> None:
    for p in _POOLS.values():
        p.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()
