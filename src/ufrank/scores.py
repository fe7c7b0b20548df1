"""Feature rankings computed from a tree ensemble.

Three scores share the same ensembles:

* genie3 — each attribute collects the heuristic h* of every internal node
  that tests it, averaged over trees.
* symbolic — like genie3, but each test occurrence counts the number of
  examples that reached the node instead of h*.
* rf-score — the permutation importance: the mean relative increase of a
  tree's out-of-bag reconstruction error when the attribute's out-of-bag
  values are shuffled.

Per-tree contributions are stacked and reduced with one pairwise sum, so
the totals do not depend on accumulation order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import streams
from .data import ComputationError
from .forest import Ensemble


@dataclass
class Ranking:
    """Per-attribute importance with the induced descending order.

    Ties order by ascending attribute index, so rankings are reproducible
    even when many attributes share a score (all-zero noise, say).
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


# memory cap for one batched routing pass, in float64 elements
_BLOCK_BUDGET = 8_000_000


def random_forest_score(e: Ensemble, attr_ids=None) -> Ranking:
    """Permutation importance over out-of-bag rows.

    For tree t with baseline error e_t over its out-of-bag set, attribute i
    contributes (e_t^i - e_t) / e_t, where e_t^i is the error after
    shuffling attribute i's values among those rows (the shuffle moves an
    example's routing and the value its reconstruction is compared to).
    Trees with an empty out-of-bag set or zero baseline error carry no
    information for a ratio and are skipped, with the divisor reduced
    accordingly.

    ``attr_ids`` optionally renames the permutation streams: entry j is the
    stream id used when shuffling column j (default: the column index). The
    contribution of column j is then reproducible under any relabeling of
    the columns that carries its id along.
    """
    d = e.dataset
    n = d.n
    if attr_ids is None:
        attr_ids = np.arange(n)
    attr_ids = np.asarray(attr_ids, dtype=np.intp)
    if attr_ids.shape != (n,):
        raise ValueError("attr_ids must give one stream id per attribute")

    contributions: list[np.ndarray] = []
    for t in range(e.n_trees):
        oob = e.oobs[t]
        if oob.size == 0:
            continue
        base_rows = d.X[oob]
        flat = e.flats[t]
        e_base = float(_row_errors(e, base_rows, flat.predictions(base_rows)).mean())
        if e_base == 0.0:
            continue
        errors = np.empty(n)
        group = max(1, _BLOCK_BUDGET // (oob.size * n))
        for start in range(0, n, group):
            attrs = range(start, min(start + group, n))
            batch = np.concatenate([_permuted_copy(e, t, base_rows, i, attr_ids[i])
                                    for i in attrs])
            row_err = _row_errors(e, batch, flat.predictions(batch))
            for pos, i in enumerate(attrs):
                errors[i] = float(row_err[pos * oob.size:(pos + 1) * oob.size].mean())
        contributions.append((errors - e_base) / e_base)
    if not contributions:
        raise ComputationError(
            "score undefined for this ensemble: every tree had an empty "
            "out-of-bag set or zero baseline error")
    imp = np.vstack(contributions).sum(axis=0) / len(contributions)
    prov = _provenance(e, "rf-score")
    prov["trees_used"] = len(contributions)
    return Ranking("rf-score", imp, d.attr_names, prov)


def _row_errors(e: Ensemble, X: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Per-row reconstruction error: mean over attributes of the squared
    difference scaled by the training variance (numeric; zero-variance
    attributes contribute 0) or the 0/1 mismatch (nominal)."""
    nom = ~e.dataset.numeric_mask
    var = e.stats.denominator
    scale = np.divide(1.0, var, out=np.zeros_like(var), where=(var > 0) & ~nom)
    diff = X - predicted
    err = diff * diff * scale
    if nom.any():
        err[:, nom] = (X[:, nom] != predicted[:, nom]).astype(np.float64)
    return err.mean(axis=1)


def _permuted_copy(e: Ensemble, t: int, rows_matrix: np.ndarray, attr: int,
                   stream_id: int) -> np.ndarray:
    """The rows with column ``attr`` shuffled by a permutation drawn from
    the (seed, OOB_PERMUTATION, t, stream_id) stream."""
    perm = streams.stream(e.config.seed, streams.OOB_PERMUTATION, t,
                          int(stream_id)).permutation(len(rows_matrix))
    out = rows_matrix.copy()
    out[:, attr] = out[perm, attr]
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
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "attribute", "importance"])
        for row in ranking_rows(r):
            writer.writerow([row["rank"], row["attribute"],
                             repr(row["importance"])])
