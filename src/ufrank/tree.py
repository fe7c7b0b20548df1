"""Predictive clustering trees over the full attribute set.

Every attribute plays both roles at once: tests are drawn from the
attributes, and node quality is measured over all of them. The impurity of
a row multiset is the mean across attributes of its per-attribute impurity
(population variance for numeric, Gini for nominal), each normalized by the
same quantity on the training rows. A split's heuristic is

    h = |E| * impurity(E) - sum over children |E_child| * impurity(E_child)

and a node keeps the first-enumerated test that strictly maximizes h.
Trees are fully grown: a node becomes a leaf only when it has fewer than
two rows or no candidate test achieves h > 0.

Growth goes one depth level at a time: one call of search_frontier
searches every node of the level at once, and best_test is its one-node
case. Several trees may grow together, so a level may hold the nodes of
all of them, and grow_tree is the one-tree case. A node's test and h still
depend only on its own rows and its own random draws, never on which other
nodes, of its own tree or of another, share its level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import AttributeStats, Dataset, _check_rows
from .segments import (Buffers, first_max, group_sums, running_sums,
                       sorted_runs)

ALL_THRESHOLDS = "all-thresholds"
ONE_RANDOM_THRESHOLD = "one-random-threshold"


@dataclass(frozen=True)
class SplitSearchPolicy:
    """Per-node candidate enumeration: sample ``n_candidates`` attributes
    without replacement, then enumerate thresholds per ``threshold_mode``."""

    n_candidates: int
    threshold_mode: str = ALL_THRESHOLDS

    def __post_init__(self) -> None:
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be at least 1")
        if self.threshold_mode not in (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD):
            raise ValueError(f"unknown threshold mode {self.threshold_mode!r}")


class SplitWorkspace:
    """Precomputed matrix shared by every node of one tree (or one ensemble):
    Z = [x_c | one-hot blocks] over the columns whose training denominator is
    positive and finite, each column weighted by w = 1 / its attribute's
    denominator. A column whose variance overflows would weigh 1/inf = 0, so
    it adds nothing to h; left in, its S^2 overflows too, and inf * 0 would
    make every candidate's h NaN.

    Split a node's M rows into a yes side of L_y rows and a no side of L_n,
    with column sums S_y, S_n and S = S_y + S_n over them. The squared-value
    terms of the three impurities cancel, leaving a weighted between-sides
    sum of squares:

        n * h = sum over columns of w * (S_y^2 / L_y + S_n^2 / L_n - S^2 / M)

    Each node first centers its value columns on its own means. The three
    terms then carry no large common offset, so they do not cancel when a
    column's spread is small next to its magnitude; h is shift invariant.

    The workspace keeps the large per-level arrays in four buffers (see
    segments.Buffers) that every frontier it searches reuses, each grown
    to the largest frontier so far: "rows" and "means" for scoring's
    centered rows of Z, "yes" and "no" for the squared side sums of
    gains. The levels of a stack, and the stacks that one workspace grows,
    then fault these pages in once, not at every level. What scoring
    returns is a view of "rows", valid only until its next call.
    """

    def __init__(self, d: Dataset, stats: AttributeStats):
        self.n = d.n
        num = d.numeric_mask
        active = (stats.denominator > 0) & np.isfinite(stats.denominator)
        num_active = np.flatnonzero(num & active)
        blocks = [d.X[:, num_active]]
        weights = [1.0 / stats.denominator[num_active]]
        for j in np.flatnonzero(~num & active):
            codes = np.arange(len(d.kinds[j].domain))
            blocks.append((d.X[:, j, None] == codes).astype(np.float64))
            weights.append(np.full(codes.size, 1.0 / stats.denominator[j]))
        self.P = num_active.size
        self.nominal = ~num
        self.weight = np.concatenate(weights)
        self.Z = np.ascontiguousarray(np.concatenate(blocks, axis=1))
        self.buffers = Buffers()

    def scoring(self, rows: np.ndarray, heads: np.ndarray, counts: np.ndarray,
                seg: np.ndarray) -> np.ndarray:
        """Z's rows for a frontier whose node f owns the ``counts[f]`` rows
        from ``heads[f]`` on (``seg`` names each row's node), each node's
        value columns centered on that node's own means. The result is a
        view of the workspace's buffers (see the class notes)."""
        sub = self.buffers("rows", (rows.size, self.Z.shape[1]))
        # mode "raise" would gather through a temporary copy of ``out``
        np.take(self.Z, rows, axis=0, out=sub, mode="clip")
        if self.P:
            V = sub[:, :self.P]
            mean = np.add.reduceat(V, heads, axis=0) / counts[:, None]
            V -= np.take(mean, seg, axis=0, mode="clip",
                         out=self.buffers("means", V.shape))
        return sub

    def square_sums(self, S: np.ndarray, out=None) -> np.ndarray:
        """sum over columns of w * S^2, for each row of column sums S, with
        S^2 formed in ``out`` if given (S itself may be ``out``)."""
        q = np.multiply(S, S, out=out)
        q *= self.weight
        return q.sum(axis=1)

    def gains(self, totals: np.ndarray, base: np.ndarray, size: np.ndarray,
              owner: np.ndarray, S: np.ndarray, L: np.ndarray) -> np.ndarray:
        """h per candidate row: yes side with sums S and size L, in the node
        ``owner`` of a frontier whose nodes have sums ``totals``, ``size``
        rows and ``base`` square_sums(totals) / size. Both sides' squared
        sums are formed in the workspace's buffers."""
        no = np.take(totals, owner, axis=0, mode="clip",
                     out=self.buffers("no", S.shape))
        np.subtract(no, S, out=no)
        return (self.square_sums(S, out=self.buffers("yes", S.shape)) / L
                + self.square_sums(no, out=no) / (size[owner] - L)
                - base[owner]) / self.n


# Bytes that one group of slots' candidates may hold, 24 per candidate and
# Z column (three float64 arrays: the yes sums, the no sums and squares).
# A slot holds one candidate per cut with all thresholds, at most one per
# row, and at most one per node with one random threshold; slots are
# searched in groups within this bound.
_BLOCK_BUDGET = 16_000_000


@dataclass(frozen=True)
class FrontierSplits:
    """The split tests of a frontier's nodes, in the one encoding that
    best_test returns and FlatTree stores.

    Per node: ``attr`` is the tested attribute and ``h`` the test's
    heuristic; ``value`` is a category code where ``nominal``, else a
    threshold. A node without a test has ``attr`` -1, ``value`` NaN and h 0.
    A row goes to the yes child when x[attr] <= value on a numeric test
    (inclusive, so a boundary value goes yes) and when x[attr] == value on
    a nominal one; no row takes a NaN value. Per row of the frontier, in
    the order of its rows, ``yes`` is that predicate."""

    attr: np.ndarray
    value: np.ndarray
    nominal: np.ndarray
    h: np.ndarray
    yes: np.ndarray


def draw_frontier(rng: np.random.Generator, n_nodes: int, n_attrs: int,
                  policy: SplitSearchPolicy):
    """One level's randomness: an (n_nodes, n_attrs) block of uniform keys,
    then, in one-random-threshold mode only, an (n_nodes, k) block with
    k = min(n_candidates, n_attrs). Row f of each belongs to node f."""
    keys = rng.random((n_nodes, n_attrs))
    if policy.threshold_mode != ONE_RANDOM_THRESHOLD:
        return keys, None
    return keys, rng.random((n_nodes, min(policy.n_candidates, n_attrs)))


def search_frontier(d: Dataset, ws: SplitWorkspace, policy: SplitSearchPolicy,
                    rows: np.ndarray, starts: np.ndarray, keys: np.ndarray,
                    u: np.ndarray | None = None) -> FrontierSplits:
    """Search the splits of every node of a frontier at once. Node f owns
    ``rows[starts[f]:starts[f + 1]]`` and the draws ``keys[f]``, ``u[f]``
    (see draw_frontier). Its candidates are the first min(n_candidates, n)
    attributes by ascending key (stable argsort), in that order. With one
    random threshold, candidate s uses u = u[f, s]: a numeric attribute
    with range [lo, hi] on the node tests x <= lo + (hi - lo) * u if that
    is strictly inside (lo, hi); a nominal one with p >= 2 codes present
    tests x == the floor(u * p)-th of them, ascending. With all thresholds,
    every midpoint between consecutive distinct values and every present
    category is a candidate. A node keeps the first strict maximizer of h,
    if h > 0, in the order attributes as sampled, then thresholds or
    categories ascending. Every sum is taken within one node in its rows'
    order, so a node's result is bit-identical whichever nodes share its
    frontier. The frontier may hold the nodes of one tree's level or, as
    _grow_stack lays it out, of a level of several trees."""
    counts = np.diff(starts)
    F = counts.size
    best = (np.full(F, -1, dtype=np.intp), np.full(F, np.nan),
            np.zeros(F, dtype=bool), np.zeros(F))
    if counts.max() < 2:  # single rows cannot split
        return FrontierSplits(*best, np.zeros(rows.size, dtype=bool))
    heads = starts[:-1]
    seg = np.repeat(np.arange(F), counts)
    k = min(policy.n_candidates, d.n)
    cand = _first_k_stable(keys, k)
    scored = ws.scoring(rows, heads, counts, seg)
    totals = np.add.reduceat(scored, heads, axis=0)
    base = ws.square_sums(totals) / counts
    vals = d.X[rows[:, None], cand[seg]]
    nominal = ws.nominal[cand]

    per_slot = rows.size if u is None else F
    group = max(1, _BLOCK_BUDGET // (24 * per_slot * max(scored.shape[1], 1)))
    parts = []
    for s0 in range(0, k, group):
        part = slice(s0, s0 + group)
        if u is None:
            found = _threshold_candidates(seg, counts, scored, vals[:, part],
                                          nominal[:, part])
        else:
            found = _one_random_candidates(seg, heads, scored, vals[:, part],
                                           nominal[:, part], u[:, part])
        owner, slot, value, S, L = found
        h = ws.gains(totals, base, counts, owner, S, L)
        parts.append((owner, s0 + slot, value, h))
    # every node's candidates stay listed in enumeration order
    owner, slot, value, h = (parts[0] if len(parts) == 1 else
                             [np.concatenate(c) for c in zip(*parts)])
    win = first_max(owner, h)
    win = win[h[win] > 0.0]
    f, s = owner[win], slot[win]
    for out, got in zip(best, (cand[f, s], value[win], nominal[f, s], h[win])):
        out[f] = got
    attr, value, is_nominal, _ = best
    col = d.X[rows, np.maximum(attr, 0)[seg]]
    return FrontierSplits(*best, _goes_yes(col, value[seg], is_nominal[seg]))


def _first_k_stable(keys: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(keys, axis=1, kind="stable")[:, :k]``, without sorting
    every key: a row's first k keys are those not above its k-th smallest,
    and a stable sort of just those, taken in column order, orders them as
    the full sort does. A row where ties at the k-th key leave more than k
    such keys is marked from its full sort instead."""
    if k >= keys.shape[1]:
        return np.argsort(keys, axis=1, kind="stable")[:, :k]
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1:k]
    first = keys <= kth
    tied = np.flatnonzero(np.count_nonzero(first, axis=1) > k)
    if tied.size:
        first[tied] = False
        first[tied[:, None],
              np.argsort(keys[tied], axis=1, kind="stable")[:, :k]] = True
    cols = np.nonzero(first)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(keys, cols, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _goes_yes(x, value, nominal):
    """FrontierSplits' yes predicate, elementwise: x == value where
    ``nominal``, else x <= value."""
    yes = x <= value
    if nominal.any():
        yes = np.where(nominal, x == value, yes)
    return yes


def _one_random_candidates(seg, heads, scored, vals, nominal, u):
    """Valid one-random-threshold candidates of a group of slots as (node,
    slot, threshold or code, yes sums, yes size), each node's in order."""
    ks = vals.shape[1]
    nominal_at = nominal[seg]
    lo = np.minimum.reduceat(vals, heads, axis=0)
    hi = np.maximum.reduceat(vals, heads, axis=0)
    # an overflowing span gives an inf or NaN threshold, which is not valid
    with np.errstate(over="ignore", invalid="ignore"):
        value = lo + (hi - lo) * u
    valid = (lo < value) & (value < hi)
    if nominal.any():
        r, s = np.nonzero(nominal_at)
        _, _, code, pair_head, run_head = sorted_runs(seg[r] * ks + s, vals[r, s])
        present = np.add.reduceat(run_head, np.flatnonzero(pair_head),
                                  dtype=np.intp)
        pick = np.minimum((u[nominal] * present).astype(np.intp), present - 1)
        value[nominal] = code[run_head][np.cumsum(present) - present + pick]
        valid[nominal] = present >= 2
    # the valid candidates' yes rows, grouped by (slot, node), in row order
    below = _goes_yes(vals, value[seg], nominal_at)
    s, r = np.nonzero((below & valid[seg]).T)
    first = np.flatnonzero(np.diff(s * seg.size + seg[r], prepend=-1))
    f, s = seg[r[first]], s[first]
    return (f, s, value[f, s], group_sums(scored, r, first),
            np.diff(np.append(first, r.size)))


def _threshold_candidates(seg, counts, scored, vals, nominal):
    """All-thresholds candidates, as _one_random_candidates returns them.
    Each (node, slot) pair's rows are sorted by value: a numeric pair's
    candidates are its cuts between distinct values, with running sums over
    the pair as yes sides; a nominal pair's are its runs of one code."""
    ks = vals.shape[1]
    pair = (seg[:, None] * ks + np.arange(ks)).ravel()
    order, sp, sv, pair_head, run_head = sorted_runs(pair, vals.ravel())
    is_nominal = nominal.ravel()[sp]
    runs = np.add.reduceat(run_head, np.flatnonzero(pair_head), dtype=np.intp)
    several = np.repeat(runs >= 2, np.repeat(counts, ks))
    at = np.flatnonzero(np.append(run_head[1:], True) & np.where(
        is_nominal, several, ~np.append(pair_head[1:], True)))
    scan = np.flatnonzero(pair_head | (run_head & is_nominal))
    L = at + 1 - scan[np.searchsorted(scan, at, side="right") - 1]
    low, high = sv[at], sv[np.minimum(at + 1, sv.size - 1)]
    mid = low + (high - low) / 2
    # a midpoint that rounds onto the upper value falls back to the lower
    # one, so the test keeps the partition it was scored on
    value = np.where(is_nominal[at] | (mid >= high), low, mid)
    return (sp[at] // ks, sp[at] % ks, value,
            running_sums(scored, order // ks, scan, at), L)


def best_test(d: Dataset, rows, policy: SplitSearchPolicy, stats: AttributeStats,
              rng: np.random.Generator) -> FrontierSplits:
    """The strict maximizer of h among one node's candidate tests, if one
    achieves h > 0: search_frontier on the one-node frontier of ``rows``,
    candidates, thresholds and tie rule as documented there, so ``yes``
    marks each of ``rows``. Whatever the row count, it draws
    draw_frontier's blocks for one node, as grow_tree's root level does:
    ``rng.random((1, n))``, then, with one random threshold,
    ``rng.random((1, k))``."""
    rows = _check_rows(rows, d.m)
    keys, u = draw_frontier(rng, 1, d.n, policy)
    return search_frontier(d, SplitWorkspace(d, stats), policy, rows,
                           np.array([0, rows.size]), keys, u)


def grow_tree(d: Dataset, rows, policy: SplitSearchPolicy, stats: AttributeStats,
              rng: np.random.Generator) -> "FlatTree":
    """Grow a fully expanded tree on the given row multiset (duplicate
    indices count with multiplicity everywhere), as a one-tree FlatTree.

    The tree grows one depth level at a time, its nodes in canonical order:
    the root, then the children of the previous level's split nodes in
    their parents' order, yes child first. Each level takes draw_frontier's
    blocks for all its nodes from ``rng`` and searches them with one
    search_frontier call. This fixes the random stream layout, so one seed
    always yields one tree, and the root's test is the one best_test finds
    on the same rows from the same generator state.

    This is the one-tree case of _grow_stack, which grows several trees
    with one search_frontier call per level for all of them; a tree grown
    in a stack is byte for byte the tree grown here alone, since each of
    its nodes sees only its own rows and its own tree's draws: the stack's
    record cut to that tree (FlatTree.trees) equals this one array for
    array.
    """
    rows = _check_rows(rows, d.m)
    return _grow_stack(d, SplitWorkspace(d, stats), policy, [rows], [rng])


def _grow_stack(d: Dataset, ws: SplitWorkspace, policy: SplitSearchPolicy,
                bags: list, rngs: list) -> "FlatTree":
    """The record of one tree per row array of ``bags``, each grown as
    grow_tree grows it from ``rngs`` at the same index. Each level
    concatenates the frontiers of the trees still growing, in tree order,
    into one search_frontier call; every tree first takes its own
    draw_frontier blocks from its own generator. A tree whose level split
    nothing leaves the stack. The levels' node records, one after another,
    are in the order FlatTree.from_node lays out in one call."""
    tree = np.arange(len(bags))  # the tree of each frontier node
    counts = np.array([b.size for b in bags])
    rows = np.concatenate(bags)
    levels = []
    while tree.size:
        nodes = np.bincount(tree, minlength=len(bags))
        draws = [draw_frontier(rngs[i], nodes[i], d.n, policy)
                 for i in np.flatnonzero(nodes)]
        keys = np.concatenate([k for k, _ in draws])
        u = None if draws[0][1] is None else np.concatenate([u for _, u in draws])
        found = search_frontier(d, ws, policy, rows,
                                np.cumsum(np.append(0, counts)), keys, u)
        levels.append((counts, found.attr, found.value, found.nominal, found.h))
        # children in their parents' order, yes child first, each keeping
        # its rows' order; the rows of unsplit nodes sort last. Each tree's
        # nodes stay together, in tree order.
        split = found.attr >= 0
        n_split = int(split.sum())
        child = np.repeat(np.where(split, 2 * np.cumsum(split) - 2,
                                   2 * n_split), counts) + ~found.yes
        order = np.argsort(child, kind="stable")
        counts = np.bincount(child, minlength=2 * n_split + 2)[:2 * n_split]
        rows = rows[order[:counts.sum()]]
        tree = np.repeat(tree[split], 2)

    n_reached, attr, value, nominal, h = (np.concatenate(a)
                                          for a in zip(*levels))
    return FlatTree.from_node(attr, value, nominal, n_reached, h, len(bags))


@dataclass
class FlatTree:
    """The forest record: one or more grown trees as arrays, for batch
    routing and vectorized node sweeps over all of them at once.

    The trees' nodes lie back to back: tree t's are node ids
    ``node_start[t]`` to ``node_start[t + 1] - 1``, in preorder (yes
    first). ``attr``, ``value`` and ``is_nominal`` encode each node's test
    as FrontierSplits does, with -1 and NaN at leaves. A node's one link is
    relative to itself (Knuth's sequential preorder representation): node
    v's yes child is v + 1, its no child is v + ``skip[v]``, 1 + the size
    of its yes subtree, and ``skip`` is 0 at leaves. No link depends on
    where its tree lies in the record, so ``trees`` slices every node array
    and ``concat`` joins them as they are. Only ``node_start`` counts from
    the record's first node; a one-tree record, as grow_tree returns it,
    has ``node_start`` [0, nodes].

    The record holds no leaf predictions: only rf-score needs them, and it
    rebuilds them from each tree's bootstrap rows (see
    scores.random_forest_score).
    """

    attr: np.ndarray
    value: np.ndarray
    is_nominal: np.ndarray
    skip: np.ndarray
    n_reached: np.ndarray
    h_star: np.ndarray
    node_start: np.ndarray

    @classmethod
    def from_node(cls, attr, value, is_nominal, n_reached, h_star,
                  trees) -> "FlatTree":
        """The record of ``trees`` trees from their node records in level
        order, the depth levels of all trees together as _grow_stack grows
        them: the first ``trees`` records are the roots, in tree order, and
        the r-th internal node's children are records trees + 2r (yes) and
        trees + 2r + 1 (no). Each test's ``value`` is encoded as in
        FrontierSplits (NaN at leaves). One call lays out every tree in
        preorder, yes child first, one depth at a time from subtree sizes:
        a root starts after the trees before it, a yes child follows its
        parent, and a no child follows its yes sibling's subtree, so an
        internal node's ``skip`` is 1 + the size of its yes subtree.

        The name dates from when this flattened linked node objects. It is
        kept because the benchmark wraps ``FlatTree.from_node`` by name and
        reports its time as ``tree.flatten_s``; without it every traced run
        would fail.
        """
        inner = np.flatnonzero(attr >= 0)
        child = np.full((attr.size, 2), -1, dtype=np.intp)
        child[inner] = trees + 2 * np.arange(inner.size)[:, None] + np.array([0, 1])
        depths = [np.arange(trees)]
        while (inner := depths[-1][attr[depths[-1]] >= 0]).size:
            depths.append(child[inner].ravel())
        size = np.ones(attr.size, dtype=np.intp)
        for level in reversed(depths):
            inner = level[attr[level] >= 0]
            size[inner] += size[child[inner]].sum(axis=1)
        node_start = np.append(0, np.cumsum(size[:trees]))
        pre = np.zeros(attr.size, dtype=np.intp)
        pre[:trees] = node_start[:-1]
        for level in depths:
            inner = level[attr[level] >= 0]
            yes, no = child[inner].T
            pre[yes] = pre[inner] + 1
            pre[no] = pre[yes] + size[yes]
        skip = np.where(attr >= 0, 1 + size[child[:, 0]], 0)
        order = np.argsort(pre)
        return cls(attr[order], value[order], is_nominal[order], skip[order],
                   n_reached[order], h_star[order], node_start)

    @classmethod
    def concat(cls, parts) -> "FlatTree":
        """One record of the trees of ``parts``, in order."""
        return cls(*(np.concatenate([getattr(p, name) for p in parts])
                     for name in _NODE_FIELDS),
                   np.cumsum(np.concatenate(
                       [[0], *(np.diff(p.node_start) for p in parts)])))

    @property
    def n_trees(self) -> int:
        return self.node_start.size - 1

    @cached_property
    def child(self) -> np.ndarray:
        """(yes, no) node ids of each node, -1 at leaves, computed from
        ``skip`` at the first access. The package reads ``skip``; this form
        is for readers outside it, such as the benchmark's tree depth,
        which reads it once per internal node."""
        node = np.arange(self.skip.size)
        return np.where((self.skip > 0)[:, None],
                        np.column_stack([node + 1, node + self.skip]), -1)

    def trees(self, a: int, b: int) -> "FlatTree":
        """The record of trees a to b - 1 alone: views of this record's
        node arrays, with ``node_start`` counted from its first node."""
        n0, n1 = self.node_start[a], self.node_start[b]
        return FlatTree(*(getattr(self, name)[n0:n1] for name in _NODE_FIELDS),
                        self.node_start[a:b + 1] - n0)

    def route(self, X: np.ndarray, start=None, rows=None,
              swap=None) -> np.ndarray:
        """Node id of the leaf each query reaches. Query q reads row
        ``rows[q]`` of X (row q without ``rows``) and starts at node
        ``start[q]`` (node 0, the first tree's root, without ``start``), so
        one walk routes queries through many trees when each starts at its
        own tree's root, ``node_start[t]``. With ``swap`` = (attrs, values),
        query q reads ``values[q]`` as its value of attribute ``attrs[q]``.
        Each step moves a query at node v to v + 1 on yes and to v +
        ``skip[v]`` on no.
        """
        n_queries = len(X) if rows is None else len(rows)
        cur = (np.zeros(n_queries, dtype=np.intp) if start is None
               else np.array(start, dtype=np.intp))
        live = np.flatnonzero(self.attr[cur] >= 0)
        while live.size:
            node = cur[live]
            attr = self.attr[node]
            x = X[live if rows is None else rows[live], attr]
            if swap is not None:
                x = np.where(attr == swap[0][live], swap[1][live], x)
            yes = _goes_yes(x, self.value[node], self.is_nominal[node])
            cur[live] = node = node + np.where(yes, 1, self.skip[node])
            live = live[self.attr[node] >= 0]
        return cur

    def first_tests(self, slots: np.ndarray, n: int) -> np.ndarray:
        """(leaves, n) node ids, the leaves numbered in node order
        (``slots`` holds each leaf node's number): entry (l, i) is the
        first node on the path from its tree's root to leaf l that tests
        attribute i, or -1 where none does. Built in one walk down the
        depth levels of all trees at once: each child starts from its
        parent's row, with the parent set as its attribute's entry if none
        was yet."""
        out = np.empty((slots[-1] + 1, n), dtype=np.intp)
        level = self.node_start[:-1]
        first = np.full((level.size, n), -1, dtype=np.intp)
        while level.size:
            attr = self.attr[level]
            leaf = attr < 0
            out[slots[level[leaf]]] = first[leaf]
            level, attr, first = level[~leaf], attr[~leaf], first[~leaf]
            k = np.arange(level.size)
            first[k, attr] = np.where(first[k, attr] < 0, level, first[k, attr])
            level = np.column_stack([level + 1, level + self.skip[level]]).ravel()
            first = np.repeat(first, 2, axis=0)
        return out


# FlatTree's per-node arrays, in field order: all but node_start
_NODE_FIELDS = ("attr", "value", "is_nominal", "skip", "n_reached", "h_star")
