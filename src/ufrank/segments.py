"""Sums, runs and maxima over the segments of an array.

The tree kernels lay out many nodes' rows one after another, each node a
contiguous segment, and reduce them all with one call. Each function here
computes every segment on its own, adding its entries in their order, so a
segment's results are bit-identical whatever other segments share the
array. Every float segment sum of growth and rf-score (node means and
totals, candidate sides, leaf prototypes) is a group_sums product that
adds a group's rows in index order; np.add.reduceat serves only exact
reductions (min, max, integer counts). Buffers holds the scratch arrays
that such kernels fill again and again.
"""

from __future__ import annotations

import math

import numpy as np


def sorted_runs(pair: np.ndarray, value: np.ndarray):
    """Sort entries by (pair, value), ties in entry order. Returns the
    order, the sorted pairs and values, and flags for the first entry of
    each pair and of each run of equal values within a pair."""
    order = np.lexsort((value, pair))
    sp, sv = pair[order], value[order]
    pair_head = np.ones(sp.size, dtype=bool)
    pair_head[1:] = sp[1:] != sp[:-1]
    run_head = pair_head.copy()
    run_head[1:] |= sv[1:] != sv[:-1]
    return order, sp, sv, pair_head, run_head


def group_indicator(src: np.ndarray, heads: np.ndarray, n_rows: int):
    """The sparse (groups, n_rows) 0/1 matrix G whose row i marks the rows
    ``src[heads[i]:heads[i + 1]]`` (the last group runs to the end), a row
    listed twice marked twice. ``G @ A`` is group_sums(A, src, heads), and
    one G serves every array of n_rows rows."""
    # imported here so that `import ufrank` loads numpy only
    from scipy import sparse

    index = np.int32 if n_rows < 2**31 else np.int64
    return sparse.csr_array(
        (np.ones(src.size), src.astype(index),
         np.append(heads, src.size).astype(index)),
        shape=(heads.size, n_rows))


def group_sums(A: np.ndarray, src: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Row i: the sum of the rows ``A[src[heads[i]:heads[i + 1]]]`` (the
    last group runs to the end), with no gather of those rows. The sparse
    indicator product (group_indicator) adds up each group on its own: it
    starts from zero and adds the group's rows one at a time, in index
    order."""
    # the two numpy forms were measured and rejected. np.add.reduceat(A[src],
    # heads, axis=0) copies a group's first row and adds the rest with
    # numpy's pairwise loop, run once per (group, column): 1.12 vs 0.15 ms
    # on 4000 x 50 rows in 2000 groups, 0.16 vs 0.10 ms in 200 groups.
    # np.add.at gives the same bytes as the product but is 3-18x slower
    # (2.0 vs 0.11 ms on 4000 x 50 rows in 200 groups). numpy 2.4, scipy
    # 1.17, 2-core x86
    return group_indicator(src, heads, A.shape[0]) @ A


def running_sums(A: np.ndarray, src: np.ndarray, heads: np.ndarray,
                 at: np.ndarray) -> np.ndarray:
    """Running sums over the rows ``A[src]`` that restart at each position
    in ``heads`` (ascending, first 0), read at the positions ``at``.

    Segments are stacked side by side, zero-padded to the power of two that
    holds them, and summed one row position at a time. The padding at most
    doubles the work, and a segment's layout depends on its length alone.
    """
    lengths = np.diff(np.append(heads, src.size))
    seg = np.repeat(np.arange(heads.size), lengths)
    offset = np.arange(src.size) - heads[seg]
    width = np.frexp((lengths - 1).astype(np.float64))[1]
    wanted = np.zeros(heads.size, dtype=bool)
    wanted[seg[at]] = True
    out = np.empty((at.size, A.shape[1]))
    for w in np.unique(width[seg[at]]):
        members = wanted & (width == w)
        stack = np.cumsum(members) - 1
        entries = np.flatnonzero(members[seg])
        pad = np.zeros((1 << int(w), int(members.sum()), A.shape[1]))
        pad[offset[entries], stack[seg[entries]]] = A[src[entries]]
        # one vectorized add per row position: np.cumsum(pad, axis=0) gives
        # the same bytes but measured 4-14x slower (numpy 2.4, 2-core x86)
        for i in range(1, pad.shape[0]):
            pad[i] += pad[i - 1]
        pick = np.flatnonzero(width[seg[at]] == w)
        out[pick] = pad[offset[at[pick]], stack[seg[at[pick]]]]
    return out


def first_max(owner: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Index of each owner's first entry with the owner's largest h, by
    ascending owner; "first" is in the order the entries are listed."""
    order = np.lexsort((-h, owner))
    first = np.ones(order.size, dtype=bool)
    first[1:] = owner[order[1:]] != owner[order[:-1]]
    return order[first]


class Buffers:
    """Named float64 scratch arrays for a kernel that runs many times, such
    as growth at every depth level or rf-score at every batch of trees.
    Each call for a name returns a C-contiguous view of that name's one
    flat buffer, which grows to the largest shape asked for. Its pages are
    then faulted in once for the life of the Buffers, not at every call,
    as they are when the allocator hands a freed temporary back to the OS.
    A view's contents are whatever its name's last user left, and it stays
    valid only until the next call for that name. Growth to the exact size
    held about 2 MB less at peak than doubling on the planted 200 x 50
    table, and ran as fast."""

    def __init__(self):
        self.flat: dict = {}

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        cells = math.prod(shape)
        buf = self.flat.setdefault(name, np.empty(0))
        if buf.size < cells:
            buf = self.flat[name] = np.empty(cells)
        return buf[:cells].reshape(shape)
