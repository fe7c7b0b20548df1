"""URelief: distance-based unsupervised feature weighting.

Each iteration picks a reference row, finds its K nearest rows under the
mean per-attribute distance d_X, and accumulates three probability
estimates over the reference/neighbor pairs: that two examples differ
(P_diffClus, from d_X), that attribute i differs (P_diffAttr[i], from d_i),
and the joint event modeled as the product d_i * d_X. The weight of
attribute i is the contrast

    w_i = P(diff attr i | diff examples) - P(diff attr i | alike examples)

computed from those estimates. Informative attributes co-vary with the
overall distance and land above 0; attributes independent of the data's
structure land near 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel, streams
from .data import AttributeStats, Dataset, IngestionError, compute_stats
from .scores import Ranking

_CLAMP = 1e-12


@dataclass(frozen=True)
class UReliefConfig:
    """``neighbors=None`` resolves to min(30, m-1); an explicit value must
    leave at least K other rows (no silent shrinking). ``iterations=None``
    resolves to m, visiting every row exactly once."""

    neighbors: int | None = None
    iterations: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.neighbors is not None and self.neighbors < 1:
            raise ValueError("neighbors must be at least 1")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolve(self, m: int) -> tuple[int, int]:
        if m < 2:
            raise IngestionError("urelief needs at least two examples")
        k = min(30, m - 1) if self.neighbors is None else self.neighbors
        if k > m - 1:
            raise IngestionError(f"neighbors={k} requires at least {k + 1} "
                                 f"examples, dataset has {m}")
        return k, (m if self.iterations is None else self.iterations)


@dataclass(frozen=True)
class UReliefState:
    """Accumulated probability estimates and the weights derived from them."""

    w: np.ndarray
    p_diff_attr: np.ndarray
    p_diff_attr_diff_clus: np.ndarray
    p_diff_clus: float


def attr_distance(d: Dataset, stats: AttributeStats, i: int, a: int, b: int) -> float:
    """Distance in [0, 1] between rows a and b on attribute i: the indicator
    of inequality (nominal) or |difference| / training range (numeric, 0 for
    a constant attribute)."""
    va, vb = d.X[a, i], d.X[b, i]
    if not d.numeric_mask[i]:
        return float(va != vb)
    rng = stats.value_range[i]
    if rng == 0:
        return 0.0
    return float(abs(va - vb) / rng)


def example_distance(d: Dataset, stats: AttributeStats, a: int, b: int) -> float:
    """Mean of attr_distance over all attributes."""
    return float(_distances_to(d, stats, a)[1][b])


def _distances_to(d: Dataset, stats: AttributeStats, r: int):
    """d_i to every row (m x n) and d_X to every row (m,), for reference r."""
    num = d.numeric_mask
    dm = np.empty((d.m, d.n))
    if num.any():
        rngs = stats.value_range[num]
        diff = np.abs(d.X[:, num] - d.X[r, num])
        dm[:, num] = np.divide(diff, rngs, out=np.zeros_like(diff),
                               where=rngs > 0)
    if not num.all():
        dm[:, ~num] = (d.X[:, ~num] != d.X[r, ~num]).astype(np.float64)
    return dm, dm.mean(axis=1)


def _contribution(d: Dataset, stats: AttributeStats, r: int, k: int):
    """One iteration's raw sums over the K nearest rows of r: (sum of d_X,
    per-attribute sum of d_i, per-attribute sum of d_i * d_X). Neighbor ties
    at the boundary resolve to the smaller row index."""
    dm, dx = _distances_to(d, stats, r)
    keyed = dx.copy()
    keyed[r] = np.inf
    nearest = np.argsort(keyed, kind="stable")[:k]
    dx_nb = dx[nearest]
    dm_nb = dm[nearest]
    return float(dx_nb.sum()), dm_nb.sum(axis=0), dm_nb.T @ dx_nb


def _contribution_chunk(args):
    d, stats, refs, k = args
    return [_contribution(d, stats, int(r), k) for r in refs]


def urelief_state(d: Dataset, cfg: UReliefConfig,
                  stats: AttributeStats | None = None,
                  workers: int = 1) -> UReliefState:
    """Run the accumulation and return the full state.

    Reference rows: a seeded permutation visited without replacement when
    I <= m (each row at most once), i.i.d. draws with replacement when
    I > m. Contributions are summed in a canonical order (by row index for
    I <= m, by iteration otherwise), so the result is bit-identical across
    worker counts, and for I = m independent of visit order altogether.
    """
    d = d.without_target()
    stats = stats if stats is not None else compute_stats(d)
    k, iterations = cfg.resolve(d.m)
    rng = streams.stream(cfg.seed, streams.RELIEF)
    if iterations <= d.m:
        refs = np.sort(rng.permutation(d.m)[:iterations])
    else:
        refs = rng.integers(0, d.m, size=iterations)

    if workers <= 1 or iterations < 2 * workers:
        parts = [_contribution(d, stats, int(r), k) for r in refs]
    else:
        chunks = [c for c in np.array_split(refs, workers) if c.size]
        parts = []
        for out in parallel.pool(workers).map(
                _contribution_chunk, [(d, stats, c, k) for c in chunks]):
            parts.extend(out)

    sum_dc = np.array([p[0] for p in parts])
    sum_da = np.vstack([p[1] for p in parts])
    sum_joint = np.vstack([p[2] for p in parts])
    scale = 1.0 / (iterations * k)
    p_dc = float(sum_dc.sum() * scale)
    p_da = sum_da.sum(axis=0) * scale
    p_joint = sum_joint.sum(axis=0) * scale

    if p_dc == 0.0 and not p_da.any() and not p_joint.any():
        w = np.zeros(d.n)
        return UReliefState(w, p_da, p_joint, 0.0)
    p_dc_c = min(max(p_dc, _CLAMP), 1.0 - _CLAMP)
    w = p_joint / p_dc_c - (p_da - p_joint) / (1.0 - p_dc_c)
    return UReliefState(w, p_da, p_joint, p_dc)


def urelief(d: Dataset, cfg: UReliefConfig | None = None,
            stats: AttributeStats | None = None, workers: int = 1) -> Ranking:
    """Rank attributes by URelief weight (descending)."""
    cfg = cfg or UReliefConfig()
    state = urelief_state(d, cfg, stats, workers)
    k, iterations = cfg.resolve(d.m)
    provenance = {"method": "urelief", "dataset": d.name, "neighbors": k,
                  "iterations": iterations, "seed": cfg.seed}
    return Ranking("urelief", state.w, d.attr_names, provenance)
