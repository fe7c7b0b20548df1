"""Feature rankings computed from a tree ensemble.

Three scores share the same ensembles:

* genie3 — each attribute collects the heuristic h* of every internal node
  that tests it, averaged over trees.
* symbolic — like genie3, but each test occurrence counts the number of
  examples that reached the node instead of h*.
* rf-score — the permutation importance: the mean relative increase of a
  tree's out-of-bag reconstruction error when the attribute's out-of-bag
  values are shuffled. Each tree's matrix of per-row, per-attribute error
  terms is computed once; a shuffle of attribute i only changes column i
  of it and the rows whose path through the tree tests i, so each shuffle
  patches a copy of the matrix instead of recomputing it, with the same
  terms and the same order of summation.

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


def _per_tree_node_sums(e: Ensemble, weight_of) -> np.ndarray:
    """Stack one vector per tree: for each attribute, the sum of
    ``weight_of(flat)`` over the internal nodes testing it."""
    out = np.zeros((e.n_trees, e.dataset.n))
    for t, flat in enumerate(e.flats):
        internal = flat.attr >= 0
        np.add.at(out[t], flat.attr[internal], weight_of(flat)[internal])
    return out


def genie3(e: Ensemble) -> Ranking:
    """Importance of x_i: mean over trees of the summed h* of nodes testing
    x_i. Attributes never tested score 0."""
    per_tree = _per_tree_node_sums(e, lambda flat: flat.h_star)
    imp = per_tree.sum(axis=0) / e.n_trees
    return Ranking("genie3", imp, e.dataset.attr_names, _provenance(e, "genie3"))


def symbolic(e: Ensemble) -> Ranking:
    """Importance of x_i: mean over trees of the summed example counts of
    nodes testing x_i."""
    per_tree = _per_tree_node_sums(e, lambda flat: flat.n_reached.astype(np.float64))
    imp = per_tree.sum(axis=0) / e.n_trees
    return Ranking("symbolic", imp, e.dataset.attr_names, _provenance(e, "symbolic"))


# memory cap for one group's stack of patched error matrices, in float64
# elements
_BLOCK_BUDGET = 8_000_000


def random_forest_score(e: Ensemble) -> Ranking:
    """Permutation importance over out-of-bag rows.

    For tree t with baseline error e_t over its out-of-bag set, attribute i
    contributes (e_t^i - e_t) / e_t, where e_t^i is the error after
    shuffling attribute i's values among those rows (the shuffle moves an
    example's routing and the value its reconstruction is compared to).
    Trees with an empty out-of-bag set or zero baseline error carry no
    information for a ratio and are skipped, with the divisor reduced
    accordingly.

    Each tree routes its out-of-bag rows once and keeps the |oob| x n
    matrix E of per-attribute error terms; e_t is the mean of its row
    means. A shuffle of column i is then a patch of a copy of E: column i
    takes the terms of the shuffled values against the same predictions,
    and the rows whose root-to-leaf path tests attribute i are routed again
    and take their full rows of terms. No other row can change leaf, since
    no test on its path reads column i, so the patched copy holds exactly
    the terms a full recomputation would give, and its row means and their
    mean are taken in the same order, so e_t^i is bit for bit the same.

    Tree t's shuffles come from one stream, keyed by (seed,
    OOB_PERMUTATION, t): before any attribute is scored it draws all n of
    them in one call, and row i of
    ``rng.permuted(np.tile(np.arange(|oob|), (n, 1)), axis=1)`` is the
    shuffle of attribute i (row r takes the value of row perm[r]). How the
    attributes are grouped under ``_BLOCK_BUDGET`` cannot change a draw.

    The trees are scored in contiguous chunks on the pool of
    ``e.workers`` processes the ensemble was grown with; each chunk
    carries only its own trees. Every draw is keyed by (seed, tree) and
    the per-tree rows are reduced in tree order, so the worker count never
    changes a bit of the result.
    """
    d = e.dataset
    nominal = ~d.numeric_mask
    var = e.stats.denominator
    scale = np.divide(1.0, var, out=np.zeros_like(var), where=(var > 0) & ~nominal)
    trees = list(zip(range(e.n_trees), e.flats, e.oobs))
    rows = parallel.map_chunks(_tree_contributions,
                               (d.X, scale, nominal, e.config.seed), trees,
                               e.workers)
    contributions = [row for row in rows if row is not None]
    if not contributions:
        raise ComputationError(
            "score undefined for this ensemble: every tree had an empty "
            "out-of-bag set or zero baseline error")
    imp = np.vstack(contributions).sum(axis=0) / len(contributions)
    prov = _provenance(e, "rf-score")
    prov["trees_used"] = len(contributions)
    return Ranking("rf-score", imp, d.attr_names, prov)


def _tree_contributions(X, scale, nominal, seed, trees) -> list:
    """For each (t, FlatTree, out-of-bag rows) of ``trees``, the row of
    (e_t^i - e_t) / e_t over the attributes i (see random_forest_score),
    or None for a tree skipped for an empty out-of-bag set or a zero
    baseline error."""
    n = X.shape[1]
    out = []
    for t, flat, oob in trees:
        if oob.size == 0:
            out.append(None)
            continue
        base_rows = X[oob]
        slot = flat.leaf_slot[flat.route(base_rows)]
        predicted = flat.leaf_proto[slot]
        E = _row_errors(base_rows, predicted, scale, nominal)
        e_base = float(E.mean(axis=1).mean())
        if e_base == 0.0:
            out.append(None)
            continue
        # perms[i, r]: the row whose value of attribute i row r takes
        perms = streams.stream(seed, streams.OOB_PERMUTATION, t).permuted(
            np.tile(np.arange(oob.size), (n, 1)), axis=1)
        rerouted = _path_attrs(flat, n)[slot]
        errors = np.empty(n)
        group = max(1, _BLOCK_BUDGET // (oob.size * n))
        for start in range(0, n, group):
            attrs = np.arange(start, min(start + group, n))
            # shuffled[j, r]: row r's value of attrs[j] after the shuffle
            shuffled = base_rows[perms[attrs], attrs[:, None]]
            stack = np.repeat(E[None], attrs.size, axis=0)
            stack[np.arange(attrs.size), :, attrs] = _row_errors(
                shuffled.T, predicted[:, attrs], scale[attrs], nominal[attrs]).T
            j, r = np.nonzero(rerouted[:, attrs].T)
            if r.size:
                moved = base_rows[r]
                moved[np.arange(r.size), attrs[j]] = shuffled[j, r]
                stack[j, r] = _row_errors(moved, flat.predictions(moved),
                                          scale, nominal)
            errors[attrs] = stack.mean(axis=2).mean(axis=1)
        out.append((errors - e_base) / e_base)
    return out


def _row_errors(X: np.ndarray, predicted: np.ndarray, scale: np.ndarray,
                nominal: np.ndarray) -> np.ndarray:
    """Reconstruction error terms along the last axis: the squared
    difference times ``scale`` (the inverse training variance of a numeric
    attribute, 0 where that variance is 0) or, where ``nominal``, the 0/1
    mismatch."""
    # an overflowing term is inf or NaN and makes the importance non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        err = X - predicted
        err *= err
        err *= scale
    if nominal.any():
        err[..., nominal] = X[..., nominal] != predicted[..., nominal]
    return err


def _path_attrs(flat: FlatTree, n: int) -> np.ndarray:
    """(leaf slots, n) bool: entry (l, i) says whether an internal node on
    the path from the root to the leaf in slot l tests attribute i. Built
    one depth at a time: each child starts from its parent's row with the
    parent's own attribute added."""
    tested = np.zeros((flat.attr.size, n), dtype=bool)
    level = np.zeros(1, dtype=np.intp)
    while (inner := level[flat.attr[level] >= 0]).size:
        tested[inner, flat.attr[inner]] = True
        kids = flat.child[inner]
        tested[kids] = tested[inner][:, None]
        level = kids.ravel()
    leaf = flat.attr < 0
    out = np.empty((leaf.sum(), n), dtype=bool)
    out[flat.leaf_slot[leaf]] = tested[leaf]
    return out


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
