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

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import parallel, streams
from .data import AttributeStats, Dataset, compute_stats
from .tree import (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD, FlatTree,
                   SplitSearchPolicy, SplitWorkspace, grow_tree)

BAGGING = "bagging"
RANDOM_FOREST = "rf"
EXTRA_TREES = "et"

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
        if self.method not in (BAGGING, RANDOM_FOREST, EXTRA_TREES):
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
    drives node expansion (preorder, yes child first)."""
    rng = streams.stream(seed, streams.TREE, t)
    in_bag = rng.integers(0, d.m, size=d.m)
    oob = np.setdiff1d(np.arange(d.m), in_bag)
    return grow_tree(d, in_bag, policy, stats, rng, workspace), in_bag, oob


def _grow_chunk(args):
    d, stats, policy, seed, tree_ids = args
    ws = SplitWorkspace(d, stats)
    return [_bootstrap_and_grow(d, stats, policy, seed, t, ws)
            for t in tree_ids]


def build(d: Dataset, cfg: EnsembleConfig, workers: int = 1) -> Ensemble:
    """Grow the configured ensemble. The result is bit-identical for a fixed
    seed regardless of ``workers``: work is split by tree index and every
    tree's randomness is keyed by (seed, tree index) alone."""
    if d.m < 2:
        raise ValueError("an ensemble needs at least two examples")
    d = d.without_target()
    stats = compute_stats(d)
    policy = cfg.policy(d.n)
    tree_ids = range(cfg.n_trees)
    if workers <= 1 or cfg.n_trees == 1:
        ws = SplitWorkspace(d, stats)
        grown = [_bootstrap_and_grow(d, stats, policy, cfg.seed, t, ws)
                 for t in tree_ids]
    else:
        chunks = [c for c in np.array_split(np.asarray(tree_ids), workers)
                  if c.size]
        tasks = [(d, stats, policy, cfg.seed, [int(t) for t in c])
                 for c in chunks]
        grown = []
        for part in parallel.pool(workers).map(_grow_chunk, tasks):
            grown.extend(part)
    flats = [g[0] for g in grown]
    in_bags = [g[1] for g in grown]
    oobs = [g[2] for g in grown]
    return Ensemble(cfg, d, stats, flats, in_bags, oobs)


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


def _permutation_for(e: Ensemble, t: int, stream_id: int, size: int) -> np.ndarray:
    return streams.stream(e.config.seed, streams.OOB_PERMUTATION, t,
                          stream_id).permutation(size)


def save_ensemble(e: Ensemble, directory) -> None:
    """Write two files into ``directory``: ``manifest.json`` (the ensemble
    configuration plus the dataset's name, m and n) and ``trees.npz``, which
    holds for each tree t its nine FlatTree arrays under ``t{t}.<field>``
    and its bootstrap and out-of-bag rows under ``t{t}.in_bag`` and
    ``t{t}.oob``. Arrays are stored exactly and load without pickle."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "method": e.config.method,
        "n_trees": e.config.n_trees,
        "subset_rule": e.config.subset_rule,
        "seed": e.config.seed,
        "dataset": e.dataset.name,
        "m": e.dataset.m,
        "n": e.dataset.n,
    }
    with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    arrays = {}
    for t, flat in enumerate(e.flats):
        for f in fields(FlatTree):
            arrays[f"t{t}.{f.name}"] = getattr(flat, f.name)
        arrays[f"t{t}.in_bag"] = e.in_bags[t]
        arrays[f"t{t}.oob"] = e.oobs[t]
    np.savez(directory / "trees.npz", **arrays)


def load_ensemble(directory, d: Dataset) -> Ensemble:
    """Rebuild an ensemble saved by save_ensemble against its dataset."""
    directory = Path(directory)
    with open(directory / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["m"] != d.m or manifest["n"] != d.n:
        raise ValueError("dataset shape does not match the saved manifest")
    cfg = EnsembleConfig(manifest["method"], manifest["n_trees"],
                         manifest["subset_rule"], manifest["seed"])
    d = d.without_target()
    with np.load(directory / "trees.npz", allow_pickle=False) as z:
        flats = [FlatTree(**{f.name: z[f"t{t}.{f.name}"] for f in fields(FlatTree)})
                 for t in range(cfg.n_trees)]
        in_bags = [z[f"t{t}.in_bag"] for t in range(cfg.n_trees)]
        oobs = [z[f"t{t}.oob"] for t in range(cfg.n_trees)]
    return Ensemble(cfg, d, compute_stats(d), flats, in_bags, oobs)
