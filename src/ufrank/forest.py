"""Seeded ensembles of predictive clustering trees.

Three randomization schemes share one growth path: bagging (all attributes,
all thresholds), random forests (attribute subsets, all thresholds), and
extra trees (attribute subsets, one random threshold per attribute). Every
tree is grown on its own bootstrap replicate of m draws with replacement;
the rows never drawn form the tree's out-of-bag set.

Tree t draws everything from a child stream keyed by (master seed, t), so
the ensemble is identical no matter how many workers grow the trees or in
which order they finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel, streams
from .data import AttributeStats, Dataset, IngestionError, compute_stats
from .tree import (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD, FlatTree,
                   SplitSearchPolicy, SplitWorkspace, grow_tree)

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


@dataclass
class Ensemble:
    config: EnsembleConfig
    dataset: Dataset
    stats: AttributeStats
    flats: list[FlatTree]
    in_bags: list[np.ndarray]
    oobs: list[np.ndarray]

    @property
    def n_trees(self) -> int:
        return len(self.flats)


def _bootstrap_and_grow(d: Dataset, stats: AttributeStats,
                        policy: SplitSearchPolicy, seed: int, t: int,
                        workspace: SplitWorkspace):
    """One tree: the child stream first draws the m-sample bootstrap, then
    drives growth, one block of draws per depth level (see grow_tree)."""
    rng = streams.stream(seed, streams.TREE, t)
    in_bag = rng.integers(0, d.m, size=d.m)
    oob = np.setdiff1d(np.arange(d.m), in_bag)
    return grow_tree(d, in_bag, policy, stats, rng, workspace), in_bag, oob


def _grow_chunk(d, stats, policy, seed, tree_ids):
    ws = SplitWorkspace(d, stats)
    return [_bootstrap_and_grow(d, stats, policy, seed, int(t), ws)
            for t in tree_ids]


def build(d: Dataset, cfg: EnsembleConfig, workers: int = 1) -> Ensemble:
    """Grow the configured ensemble. The result is bit-identical for a fixed
    seed regardless of ``workers``: work is split by tree index and every
    tree's randomness is keyed by (seed, tree index) alone."""
    if d.m < 2:
        raise IngestionError("an ensemble needs at least two examples")
    d = d.without_target()
    stats = compute_stats(d)
    grown = parallel.map_chunks(_grow_chunk,
                                (d, stats, cfg.policy(d.n), cfg.seed),
                                np.arange(cfg.n_trees), workers)
    flats = [g[0] for g in grown]
    in_bags = [g[1] for g in grown]
    oobs = [g[2] for g in grown]
    return Ensemble(cfg, d, stats, flats, in_bags, oobs)
