"""Seeded ensembles of predictive clustering trees.

Three randomization schemes share one growth path: bagging (all attributes,
all thresholds), random forests (attribute subsets, all thresholds), and
extra trees (attribute subsets, one random threshold per attribute). Every
tree is grown on its own bootstrap replicate of m draws with replacement;
the rows never drawn form the tree's out-of-bag set.

Tree t draws everything from a child stream keyed by (master seed, t), so
the ensemble is identical no matter how many workers grow the trees or in
which order they finish. Each worker grows its trees together in stacks:
a depth level of the stack, which may hold the nodes of several trees, is
searched with one call. A node's test still depends only on its own rows
and its own tree's draws, so stacking never changes a tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel, streams
from .data import Dataset, IngestionError, _complement
from .tree import (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD, FlatTree,
                   SplitSearchPolicy, SplitWorkspace, _grow_stack)

BAGGING = "bagging"
RANDOM_FOREST = "rf"
EXTRA_TREES = "et"
ENSEMBLES = (BAGGING, RANDOM_FOREST, EXTRA_TREES)

SUBSET_RULES = ("log2", "sqrt", "all")


def subset_size(rule: str, n: int) -> int:
    """Evaluate a candidate-count rule, clamped into [1, n]."""
    if rule == "log2":
        k = math.ceil(math.log2(n)) if n > 1 else 1
    elif rule == "sqrt":
        k = round(math.sqrt(n))
    elif rule == "all":
        k = n
    else:
        raise ValueError(f"unknown subset rule {rule!r}")
    return min(max(k, 1), n)


@dataclass(frozen=True)
class EnsembleConfig:
    """An ensemble's settings. The field defaults are the package's
    defaults, and ``settings`` is the one map from the fields to their
    keys in an artifact's config block."""

    method: str = EXTRA_TREES
    n_trees: int = 100
    subset_rule: str = "log2"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in ENSEMBLES:
            raise ValueError(f"unknown ensemble method {self.method!r}")
        if self.n_trees < 1:
            raise ValueError("an ensemble needs at least one tree")
        if self.subset_rule not in SUBSET_RULES:
            raise ValueError(f"unknown subset rule {self.subset_rule!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def policy(self, n: int) -> SplitSearchPolicy:
        """Bagging tests all attributes; the subset rule applies to the
        other two schemes. Extra trees draw one threshold per candidate."""
        if self.method == BAGGING:
            return SplitSearchPolicy(n, ALL_THRESHOLDS)
        mode = ONE_RANDOM_THRESHOLD if self.method == EXTRA_TREES else ALL_THRESHOLDS
        return SplitSearchPolicy(subset_size(self.subset_rule, n), mode)

    def settings(self) -> dict:
        return {"ensemble": self.method, "trees": self.n_trees,
                "subset_rule": self.subset_rule, "seed": self.seed}


@dataclass
class Ensemble:
    """A grown ensemble. ``forest`` is its one forest record: the nodes of
    every tree back to back, tree t's from ``forest.node_start[t]`` on
    (see FlatTree). ``in_bags[t]`` and ``oobs[t]`` are tree t's bootstrap
    draws, in draw order, and out-of-bag rows; the record keeps no leaf
    predictions, and rf-score rebuilds them from ``in_bags``. The
    statistics that normalize its scores are ``dataset.stats``, and the
    kind of each test is its attribute's in ``dataset``. ``workers``
    is the process count it was grown with, the calling process included;
    the scores that work tree by tree (rf-score) split their trees across
    as many, and a hand-built ensemble scores inline. It never changes a
    number."""

    config: EnsembleConfig
    dataset: Dataset
    forest: FlatTree
    in_bags: list[np.ndarray]
    oobs: list[np.ndarray]
    workers: int = 1

    @property
    def n_trees(self) -> int:
        return self.forest.n_trees

    @property
    def flats(self) -> list[FlatTree]:
        """Each tree alone, as a one-tree record whose node arrays are
        views of the forest record's (see FlatTree.trees)."""
        return [self.forest.trees(t, t + 1) for t in range(self.n_trees)]


# Bootstrap rows that one stack of trees may start its growth from: a
# chunk grows its trees max(1, _STACK_ROWS // m) at a time. Stacks of more
# than about 8000 rows measured slower than smaller ones, and a stack holds
# all of its rows of Z at each level.
_STACK_ROWS = 4096


def _grow_chunk(d, policy, seed, tree_ids):
    """Trees ``tree_ids``, grown together in stacks (see tree._grow_stack),
    as one (record, bootstraps, out-of-bag rows) per stack. Tree t's child
    stream first draws its m-sample bootstrap, then drives its growth, one
    block of draws per depth level (see grow_tree)."""
    ws = SplitWorkspace(d)
    size = max(1, _STACK_ROWS // d.m)
    out = []
    for s0 in range(0, len(tree_ids), size):
        rngs = [streams.stream(seed, streams.TREE, int(t))
                for t in tree_ids[s0:s0 + size]]
        bags = [rng.integers(0, d.m, size=d.m) for rng in rngs]
        out.append((_grow_stack(d, ws, policy, bags, rngs), bags,
                    [_complement(bag, d.m) for bag in bags]))
    return out


def build(d: Dataset, cfg: EnsembleConfig, workers: int = 1) -> Ensemble:
    """Grow the configured ensemble. Its trees are bit-identical for a
    fixed seed regardless of ``workers``: work is split into contiguous
    ranges of tree indices, every tree's randomness is keyed by (seed, tree
    index) alone, and the records of the ranges' stacks are joined in tree
    order into the ensemble's one forest record. The ensemble keeps
    ``workers``, so that it is scored by as many processes."""
    if d.m < 2:
        raise IngestionError("an ensemble needs at least two examples")
    d = d.without_target()
    # computed before any chunk is pickled, so each chunk's dataset carries
    # the statistics and no chunk writes them while another is pickled
    d.stats
    stacks = parallel.map_chunks(_grow_chunk, (d, cfg.policy(d.n), cfg.seed),
                                 np.arange(cfg.n_trees), workers)
    return Ensemble(cfg, d, FlatTree.concat([s[0] for s in stacks]),
                    [bag for s in stacks for bag in s[1]],
                    [oob for s in stacks for oob in s[2]], workers)
