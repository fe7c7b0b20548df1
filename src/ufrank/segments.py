"""Sums, runs and maxima over the segments of an array.

The tree kernels lay out many nodes' rows one after another, each node a
contiguous segment, and reduce them all with one call. Each function here
computes every segment on its own, adding its entries in their order, so a
segment's results are bit-identical whatever other segments share the
array.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


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


def group_sums(A: np.ndarray, src: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Row i: the sum of the rows ``A[src[heads[i]:heads[i + 1]]]`` (the
    last group runs to the end). A sparse indicator product adds up each
    group on its own, in index order."""
    index = np.int32 if A.shape[0] < 2**31 else np.int64
    indicator = sparse.csr_array(
        (np.ones(src.size), src.astype(index),
         np.append(heads, src.size).astype(index)),
        shape=(heads.size, A.shape[0]))
    return indicator @ A


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
