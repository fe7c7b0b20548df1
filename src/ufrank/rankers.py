"""Uniform construction of ranking procedures.

A ranker is a picklable callable mapping a (target-free) Dataset to a
Ranking; the evaluation harness treats all methods through this one shape.
Its ``settings`` are the method and its config's settings, under their
keys in an artifact's config block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import Dataset
from .forest import EnsembleConfig, build
from .scores import Ranking, genie3, random_forest_score, symbolic
from .urelief import UReliefConfig, urelief

METHODS = ("genie3", "symbolic", "rf-score", "urelief")

_SCORERS = {"genie3": genie3, "symbolic": symbolic,
            "rf-score": random_forest_score}


@dataclass(frozen=True)
class EnsembleRanker:
    score: str
    config: EnsembleConfig
    workers: int = 1

    @property
    def settings(self) -> dict:
        return {"method": self.score, **self.config.settings()}

    def __call__(self, d: Dataset) -> Ranking:
        return _SCORERS[self.score](build(d, self.config, self.workers))


@dataclass(frozen=True)
class UReliefRanker:
    config: UReliefConfig
    workers: int = 1

    @property
    def settings(self) -> dict:
        return {"method": "urelief", **self.config.settings()}

    def __call__(self, d: Dataset) -> Ranking:
        return urelief(d, self.config, workers=self.workers)


def make_ranker(method: str, *, trees: int = EnsembleConfig.n_trees,
                ensemble: str = EnsembleConfig.method,
                subset_rule: str = EnsembleConfig.subset_rule,
                neighbors: int | None = UReliefConfig.neighbors,
                iterations: int | None = UReliefConfig.iterations,
                seed: int = 0, workers: int = 1):
    """Build a ranker for any supported method with its relevant knobs."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    if method == "urelief":
        return UReliefRanker(UReliefConfig(neighbors, iterations, seed), workers)
    cfg = EnsembleConfig(ensemble, trees, subset_rule, seed)
    return EnsembleRanker(method, cfg, workers)
