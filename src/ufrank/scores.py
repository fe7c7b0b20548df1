"""Feature rankings computed from a tree ensemble.

Three scores share the same ensembles, and read all trees at once off the
ensemble's forest record (see tree.FlatTree):

* genie3 — each attribute collects the heuristic h* of every internal node
  that tests it, averaged over trees.
* symbolic — like genie3, but each test occurrence counts the number of
  examples that reached the node instead of h*.
* rf-score — the permutation importance: the mean relative increase of a
  tree's out-of-bag reconstruction error when the attribute's out-of-bag
  values are shuffled. A row is reconstructed by its leaf's prototype,
  which the forest record does not keep: rf-score, its one reader,
  rebuilds each batch of trees' prototypes from their bootstrap rows.
  Each out-of-bag row's error terms are computed once, and the increase
  is summed from the terms that a shuffle changes, never as the
  difference of two nearly equal means. A shuffle of attribute i only
  changes term i of a row that keeps its leaf; only the rows that the
  shuffle sends to another leaf get a new full row of terms. One walk
  routes the out-of-bag rows of a batch of trees, and one more reroutes,
  for every shuffled attribute at once, the rows that may move, each
  from the first node on its path that tests the attribute.

Per-tree contributions are stacked in tree order and reduced with one
pairwise sum, so the totals depend neither on accumulation order nor on
which worker scored a tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import parallel, streams
from .data import ComputationError, write_rows
from .forest import Ensemble
from .segments import Buffers, first_max, sorted_runs
from .tree import FlatTree


@dataclass
class Ranking:
    """Per-attribute importance with the induced descending order.

    Ties order by ascending attribute index, so rankings are reproducible
    even when many attributes share a score (all-zero noise, say). A
    non-finite importance (a variance that overflows, say) has no place in
    the order and raises ComputationError.
    """

    method: str
    importance: np.ndarray
    attr_names: tuple[str, ...]
    provenance: dict = field(default_factory=dict)
    order: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.importance = np.asarray(self.importance, dtype=np.float64)
        if self.importance.ndim != 1:
            raise ValueError("importance must be a vector")
        if len(self.attr_names) != self.importance.size:
            raise ValueError("importance length does not match attribute names")
        bad = np.flatnonzero(~np.isfinite(self.importance))
        if bad.size:
            raise ComputationError(f"{self.method} importance of "
                                   f"{self.attr_names[bad[0]]!r} is not finite")
        n = self.importance.size
        self.order = np.lexsort((np.arange(n), -self.importance))

    @property
    def n(self) -> int:
        return self.importance.size

    def top(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.n:
            raise ValueError(f"k must be in [1, {self.n}], got {k}")
        return self.order[:k]


def _per_tree_node_sums(e: Ensemble, weight: np.ndarray) -> np.ndarray:
    """(trees, n): for each tree and attribute, the sum of ``weight`` over
    the tree's internal nodes testing the attribute. One np.add.at over
    (tree, attribute) adds each cell's nodes in node order."""
    f = e.forest
    inner = np.flatnonzero(f.attr >= 0)
    tree = np.repeat(np.arange(e.n_trees), np.diff(f.node_start))
    out = np.zeros((e.n_trees, e.dataset.n))
    np.add.at(out, (tree[inner], f.attr[inner]), weight[inner])
    return out


def genie3(e: Ensemble) -> Ranking:
    """Importance of x_i: mean over trees of the summed h* of nodes testing
    x_i. Attributes never tested score 0."""
    per_tree = _per_tree_node_sums(e, e.forest.h_star)
    imp = per_tree.sum(axis=0) / e.n_trees
    return Ranking("genie3", imp, e.dataset.attr_names, _provenance(e, "genie3"))


def symbolic(e: Ensemble) -> Ranking:
    """Importance of x_i: mean over trees of the summed example counts of
    nodes testing x_i."""
    per_tree = _per_tree_node_sums(e, e.forest.n_reached.astype(np.float64))
    imp = per_tree.sum(axis=0) / e.n_trees
    return Ranking("symbolic", imp, e.dataset.attr_names, _provenance(e, "symbolic"))


# out-of-bag cells (rows x n) that one batch of trees may hold. A batch
# keeps five float64 values per cell, each in a buffer that every batch of
# one _tree_contributions call reuses (see segments.Buffers): the
# out-of-bag values, their predictions, their error terms, their shuffles
# and each shuffle's growth of the row's error. The leaf prototypes, also
# in a buffer, and the first-testing nodes add about 1.7 each (a leaf per
# distinct bootstrap row), and rebuilding the prototypes briefly adds the
# values of the bootstrap rows, about 2.7; kept in a buffer too, they
# raised planted-et's peak RSS by about 1 MB and saved no measurable time.
# On the planted 180 x 50 ET-100 fold, batches 4 to 16 times larger
# measured no faster, and batches of one tree as slow as scoring tree by
# tree.
_BATCH_CELLS = 62_500

# rows that change leaf whose full rows of terms one step of the rebuild
# holds, in three buffers of this many rows x n. On the planted 200 x 50
# table a batch moves about 3 700 rows; steps of 256 and 1024 rows
# measured alike, and steps of 64 slower.
_REBUILD_ROWS = 256


def random_forest_score(e: Ensemble) -> Ranking:
    """Permutation importance over out-of-bag rows.

    Tree t's baseline error e_t is the mean over its out-of-bag rows of
    each row's mean error term. With E_rj the terms of those rows and E'_rj
    the terms after shuffling attribute i's values among them (the shuffle
    moves an example's routing and the value its reconstruction is
    compared to), attribute i contributes

        mean_r sum_j (E'_rj - E_rj) / n / e_t,

    which is (e_t^i - e_t) / e_t, the relative increase of the error, in
    exact arithmetic. Summed from the changed terms, it loses no digits to
    the cancellation of two nearly equal means. Trees with an empty
    out-of-bag set or zero baseline error carry no information for a
    ratio and are skipped, with the divisor reduced accordingly.

    A row is reconstructed by the prototype of the leaf it reaches: per
    attribute, the mean (numeric) or the modal code (nominal, ties to the
    smallest code) of the tree's bootstrap draws that reach that leaf,
    summed in draw order. The forest record keeps no prototypes. Each
    batch of trees rebuilds its own: one walk routes every tree's draws
    (``e.in_bags``) from the tree's root, and a stable sort groups them by
    leaf in draw order. Growth keeps each node's rows in draw order too,
    so a leaf's group is the rows, in the order, that growth left there.

    Trees are scored in batches of the forest record. One walk routes the
    out-of-bag rows of all of a batch's trees, each row from its own
    tree's root, and each row's n error terms are computed once, laid out
    so that numpy takes each row's mean as that of one contiguous row;
    e_t is the mean of tree t's row means. A row's growth sum_j (E'_rj -
    E_rj) under a shuffle of column i is its new term i less its old one,
    exactly, if the row keeps its leaf, since it keeps its prediction and
    its other values. If the row reaches a new leaf, it takes a full row of
    new terms, and its growth is numpy's sum of that row less its old
    terms, laid out as one contiguous row. Tree t's growths of attribute i
    are averaged as one contiguous row too, so with finite terms each
    contribution is, bit for bit, that of a recomputation that reroutes
    every row and sums each row's changed terms:

    * A row whose root-to-leaf path tests no i cannot change leaf.
    * A row whose path first tests i at node f (the batch's
      first-testing-node table, FlatTree.first_tests, built in one walk
      down the depth levels of all its trees, gives f for every leaf and
      attribute) follows the same path down to f after the shuffle, since
      no node above f reads column i. It is rerouted from f, with its
      shuffled value read in place of column i and no copy of its row; one
      walk reroutes the moved rows of every attribute across all the
      batch's trees.
    * A moved row that reaches its old leaf keeps its prediction, so only
      its term i changes. Only rows that reach a new leaf get a new row.

    Tree t's shuffles come from one stream, keyed by (seed,
    OOB_PERMUTATION, t): before any attribute is scored it draws all n of
    them in one call, and row i of
    ``rng.permuted(np.tile(np.arange(|oob|), (n, 1)), axis=1)`` is the
    shuffle of attribute i (row r takes the value of row perm[r]). How
    trees are batched under ``_BATCH_CELLS`` cannot change a draw, a term
    or a sum.

    The trees are scored in contiguous ranges of the record by the
    ``e.workers`` processes the ensemble was grown with: this process
    scores the first range and the pool the others, and each chunk sent
    to the pool carries only its own trees. Every draw is keyed by (seed,
    tree) and the per-tree rows are reduced in tree order, so the worker
    count never changes a bit of the result.
    """
    d = e.dataset
    nominal = ~d.numeric_mask
    var = e.stats.denominator
    scale = np.divide(1.0, var, out=np.zeros_like(var), where=(var > 0) & ~nominal)
    rows = parallel.map_chunks(_tree_contributions,
                               (d.X, scale, nominal, e.config.seed),
                               _Trees(e.forest, e.in_bags, e.oobs), e.workers)
    contributions = [row for row in rows if row is not None]
    if not contributions:
        raise ComputationError(
            "score undefined for this ensemble: every tree had an empty "
            "out-of-bag set or zero baseline error")
    imp = np.vstack(contributions).sum(axis=0) / len(contributions)
    prov = _provenance(e, "rf-score")
    prov["trees_used"] = len(contributions)
    return Ranking("rf-score", imp, d.attr_names, prov)


@dataclass
class _Trees:
    """Trees ``first`` to ``first + len(oobs) - 1`` of an ensemble: their
    forest record, bootstrap draws and out-of-bag rows. Slicing gives a
    contiguous range, as parallel.map_chunks cuts its items."""

    forest: FlatTree
    in_bags: list
    oobs: list
    first: int = 0

    def __len__(self) -> int:
        return len(self.oobs)

    def __getitem__(self, part: slice) -> "_Trees":
        a, b, _ = part.indices(len(self))
        return _Trees(self.forest.trees(a, b), self.in_bags[a:b],
                      self.oobs[a:b], self.first + a)


def _tree_contributions(X, scale, nominal, seed, trees: _Trees) -> list:
    """For each tree of ``trees``, the row of (e_t^i - e_t) / e_t over the
    attributes i (see random_forest_score), or None for a tree skipped for
    an empty out-of-bag set or a zero baseline error. The trees go in
    batches of at most _BATCH_CELLS out-of-bag cells, one tree at least."""
    cells = np.cumsum([oob.size for oob in trees.oobs]) * X.shape[1]
    buffers = Buffers()
    out = []
    while len(out) < len(trees):
        a = len(out)
        b = max(a + 1, int(np.searchsorted(
            cells, (cells[a - 1] if a else 0) + _BATCH_CELLS, "right")))
        out += _batch_contributions(X, scale, nominal, seed, buffers,
                                    trees[a:b])
    return out


def _batch_contributions(X, scale, nominal, seed, buffers: Buffers,
                         trees: _Trees) -> list:
    """_tree_contributions for one batch of trees. Every (attribute, row)
    array of the batch is laid out (n, rows): attribute i's values of all
    out-of-bag rows lie in one contiguous row. The out-of-bag error terms
    are the exception: each row's n terms lie together, so that a row's
    mean is numpy's sum of one contiguous row. The large arrays are views
    of ``buffers``, which every batch of the call reuses, so a call faults
    their pages in once, not at every batch. The rows that change leaf get
    their full rows of terms _REBUILD_ROWS rows at a time, each summed as
    one contiguous row, as the whole set at once would be."""
    f, n = trees.forest, X.shape[1]
    slots = np.cumsum(f.attr < 0) - 1  # at a leaf node: its leaf's number
    # each tree's draws routed from its root and grouped by leaf, in draw
    # order: the rows, in the order, that growth left at each leaf
    drawn = np.concatenate(trees.in_bags)
    at = slots[f.route(X, np.repeat(f.node_start[:-1],
                                    [bag.size for bag in trees.in_bags]),
                       drawn)]
    proto = _leaf_prototypes(X, nominal, drawn[np.argsort(at, kind="stable")],
                             np.bincount(at, minlength=slots[-1] + 1),
                             buffers)
    sizes = np.array([oob.size for oob in trees.oobs])
    head = np.append(0, np.cumsum(sizes))  # tree t's rows: head[t]:head[t + 1]
    oob = np.concatenate(trees.oobs)
    leaf = f.route(X, np.repeat(f.node_start[:-1], sizes), oob)
    slot = slots[leaf]
    values = np.take(X, oob, axis=0, mode="clip",
                     out=buffers("values", (oob.size, n))).T
    predicted = np.take(proto, slot, axis=0, mode="clip",
                        out=buffers("predicted", (oob.size, n))).T
    # terms[i, r]: row r's error term of attribute i, a row's n terms
    # contiguous in memory
    terms = _row_errors(values, predicted, scale, nominal,
                        out=buffers("terms", (oob.size, n)).T)
    row_means = terms.T.mean(axis=1)
    # shuffled[i, r]: row r's value of attribute i after i's shuffle
    shuffled = buffers("shuffled", values.shape)
    shuffled[...] = values
    e_base = np.zeros(len(trees))
    for t, rows in enumerate(trees.oobs):
        if rows.size:
            e_base[t] = row_means[head[t]:head[t + 1]].mean()
        if e_base[t] != 0.0:
            part = slice(head[t], head[t + 1])
            shuffled[:, part] = np.take_along_axis(
                values[:, part], streams.stream(
                    seed, streams.OOB_PERMUTATION, trees.first + t).permuted(
                        np.tile(np.arange(rows.size), (n, 1)), axis=1), axis=1)
    used = np.flatnonzero(e_base != 0.0)
    if not used.size:
        return [None] * len(trees)
    # growth[i, r]: how much row r's sum of error terms grows when i is
    # shuffled. Where the shuffle keeps the row's leaf, only term i
    # changes: to the shuffled value's term against the same prediction
    growth = _row_errors(shuffled, predicted, scale, nominal,
                         out=buffers("growth", shuffled.shape))
    growth -= terms
    # one walk reroutes the moved rows of every tree, each from the first
    # node on its path that tests the shuffled attribute
    scored = np.flatnonzero(np.repeat(e_base != 0.0, sizes))
    first = f.first_tests(slots, n)
    r, a = np.nonzero((first >= 0)[slot[scored]])
    q = scored[r]
    value = shuffled[a, q]
    moved = f.route(X, first[slot[q], a], oob[q], (a, value))
    del first
    changed = moved != leaf[q]
    q, a, value, moved = (v[changed] for v in (q, a, value, moved))
    # a row that reaches a new leaf grows by the sum of its full row of new
    # terms less its old ones, built _REBUILD_ROWS rows at a time in the
    # same three buffers
    full, pred, err = (buffers(name, (min(q.size, _REBUILD_ROWS), n))
                       for name in ("full", "pred", "err"))
    for c0 in range(0, q.size, _REBUILD_ROWS):
        c = slice(c0, c0 + _REBUILD_ROWS)
        k = q[c].size
        np.take(X, oob[q[c]], axis=0, out=full[:k], mode="clip")
        full[np.arange(k), a[c]] = value[c]
        np.take(proto, slots[moved[c]], axis=0, out=pred[:k], mode="clip")
        _row_errors(full[:k].T, pred[:k].T, scale, nominal, out=err[:k].T)
        err[:k] -= np.take(terms.T, q[c], axis=0, out=pred[:k], mode="clip")
        growth[a[c], q[c]] = err[:k].sum(axis=1)
    return [growth[:, head[t]:head[t + 1]].mean(axis=1) / n / e_base[t]
            if e_base[t] != 0.0 else None for t in range(len(trees))]


def _leaf_prototypes(X: np.ndarray, nominal: np.ndarray, rows: np.ndarray,
                     sizes: np.ndarray, buffers: Buffers) -> np.ndarray:
    """Leaf predictions, leaf l owning the next ``sizes[l]`` rows of X
    listed in ``rows``: per attribute, the mean of those rows or, where
    ``nominal``, their modal code, ties to the smallest code, in the
    buffer "proto" of ``buffers``."""
    sub = X[rows]
    # a leaf sum that overflows keeps an inf or NaN prototype
    with np.errstate(over="ignore", invalid="ignore"):
        proto = np.add.reduceat(sub, np.cumsum(sizes) - sizes, axis=0,
                                out=buffers("proto", (sizes.size, X.shape[1])))
        proto /= sizes[:, None]
    nom = np.flatnonzero(nominal)
    if nom.size:
        group = (np.repeat(np.arange(sizes.size), sizes)[:, None] * nom.size
                 + np.arange(nom.size))
        _, sp, sv, _, run_head = sorted_runs(group.ravel(), sub[:, nom].ravel())
        first = np.flatnonzero(run_head)
        mode = first[first_max(sp[first],
                                np.diff(np.append(first, sv.size)))]
        proto[:, nom] = sv[mode].reshape(sizes.size, nom.size)
    return proto


def _row_errors(X: np.ndarray, predicted: np.ndarray, scale: np.ndarray,
                nominal: np.ndarray, out=None) -> np.ndarray:
    """Reconstruction error terms of (n, rows) arrays, attribute j's in row
    j: the squared difference times ``scale`` (the inverse training
    variance of a numeric attribute, 0 where that variance is 0) or, where
    ``nominal``, the 0/1 mismatch. Written to ``out`` if given."""
    # an overflowing term is inf or NaN and makes the importance non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.subtract(X, predicted, out=out)
        err *= err
        err *= scale[:, None]
    if nominal.any():
        err[nominal] = X[nominal] != predicted[nominal]
    return err


def _provenance(e: Ensemble, method: str) -> dict:
    return {
        "method": method,
        "dataset": e.dataset.name,
        "ensemble": e.config.method,
        "trees": e.config.n_trees,
        "subset_rule": e.config.subset_rule,
        "seed": e.config.seed,
    }


def ranking_rows(r: Ranking) -> list[dict]:
    return [{"rank": pos + 1,
             "index": int(i),
             "attribute": r.attr_names[i],
             "importance": float(r.importance[i])}
            for pos, i in enumerate(r.order)]


def ranking_to_csv(r: Ranking, path) -> None:
    write_rows(path, [["rank", "attribute", "importance"],
                      *([row["rank"], row["attribute"], repr(row["importance"])]
                        for row in ranking_rows(r))])
