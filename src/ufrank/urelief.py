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

Distances are computed for a block of B references at a time into one
preallocated C-order B x m x n buffer; B is the number of m x n float64
tables that fit in _BLOCK_BUDGET (4 MB), or 1 when not even one fits. The
K nearest rows of a reference are found by partitioning at the K-th
distance and stable-sorting only the rows at or below it, in row order, so
boundary ties go to the smaller row index exactly as a full stable sort
would. Each reference's sums are taken on their own, in a fixed order, so
the weights do not depend on B or on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel, streams
from .data import AttributeStats, Dataset, IngestionError, compute_stats
from .scores import Ranking

_CLAMP = 1e-12

# the default K, where the table leaves that many other rows
DEFAULT_NEIGHBORS = 30


@dataclass(frozen=True)
class UReliefConfig:
    """``neighbors=None`` resolves to min(DEFAULT_NEIGHBORS, m-1); an
    explicit value must leave at least K other rows (no silent shrinking).
    ``iterations=None`` resolves to m, visiting every row exactly once."""

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
        k = (min(DEFAULT_NEIGHBORS, m - 1) if self.neighbors is None
             else self.neighbors)
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


# memory cap, in bytes, for one block of references' B x m x n distance
# buffer; a block holds at least one reference whatever m*n is
_BLOCK_BUDGET = 4_000_000


@dataclass(frozen=True)
class _Kernel:
    """Per-call setup shared by every block of references: the rows (C-order
    float64, as Dataset keeps them), the divisor of each column (the
    training range on a numeric attribute with positive range, 1
    elsewhere) and the nominal columns with their codes. A numeric column
    of zero range holds one finite value, so its distances are exactly 0."""

    X: np.ndarray
    divisor: np.ndarray
    nominal: np.ndarray
    codes: np.ndarray

    @classmethod
    def make(cls, d: Dataset, stats: AttributeStats) -> "_Kernel":
        num = d.numeric_mask
        spread = num & (stats.value_range > 0)
        nominal = np.flatnonzero(~num)
        return cls(d.X, np.where(spread, stats.value_range, 1.0), nominal,
                   d.X[:, nominal])

    def distances(self, refs: np.ndarray, out: np.ndarray):
        """d_i (B x m x n, written into ``out``) and d_X (B x m) from each
        of the B reference rows to every row. ``out`` must be C-order: the
        mean over its last axis then sums each row's n terms exactly as the
        one-reference m x n case does."""
        np.subtract(self.X, self.X[refs, None, :], out=out)
        np.abs(out, out=out)
        np.divide(out, self.divisor, out=out)
        if self.nominal.size:
            out[:, :, self.nominal] = self.codes != self.codes[refs, None, :]
        return out, out.mean(axis=-1)


def _contributions(d: Dataset, stats: AttributeStats, k: int,
                   refs: np.ndarray):
    """Each reference's raw sums over its K nearest rows: (sum of d_X,
    per-attribute sum of d_i, per-attribute sum of d_i * d_X). Neighbor ties
    at the boundary resolve to the smaller row index.

    References go through the kernel in blocks of B under _BLOCK_BUDGET.
    The K nearest come from a partition to the K-th distance, then a stable
    sort of only the rows not above it, taken in row order: the same rows
    in the same order as a full stable sort, without sorting all m."""
    kernel = _Kernel.make(d, stats)
    block = max(1, min(refs.size, _BLOCK_BUDGET // (8 * d.m * d.n)))
    buf = np.empty((block, d.m, d.n))
    parts = []
    for start in range(0, refs.size, block):
        rs = refs[start:start + block]
        dm, dx = kernel.distances(rs, buf[:rs.size])
        keyed = dx.copy()
        keyed[np.arange(rs.size), rs] = np.inf
        kth = np.partition(keyed, k - 1, axis=1)[:, k - 1]
        for b in range(rs.size):
            # d_X is NaN where a range overflows to inf; "not above" keeps
            # such rows, which both sorts put last, among the candidates
            cand = np.flatnonzero(~(keyed[b] > kth[b]))
            nearest = cand[np.argsort(keyed[b, cand], kind="stable")[:k]]
            dx_nb = dx[b, nearest]
            dm_nb = dm[b, nearest]
            parts.append((float(dx_nb.sum()), dm_nb.sum(axis=0),
                          dm_nb.T @ dx_nb))
    return parts


def urelief_state(d: Dataset, cfg: UReliefConfig,
                  workers: int = 1) -> UReliefState:
    """Run the accumulation and return the full state. Distances are
    normalized by the statistics of the target-free table.

    Reference rows: a seeded permutation visited without replacement when
    I <= m (each row at most once), i.i.d. draws with replacement when
    I > m. Contributions are summed in a canonical order (by row index for
    I <= m, by iteration otherwise), so the result is bit-identical across
    worker counts, and for I = m independent of visit order altogether.
    """
    d = d.without_target()
    stats = compute_stats(d)
    k, iterations = cfg.resolve(d.m)
    rng = streams.stream(cfg.seed, streams.RELIEF)
    if iterations <= d.m:
        refs = np.sort(rng.permutation(d.m)[:iterations])
    else:
        refs = rng.integers(0, d.m, size=iterations)

    parts = parallel.map_chunks(_contributions, (d, stats, k), refs, workers)
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
            workers: int = 1) -> Ranking:
    """Rank attributes by URelief weight (descending)."""
    cfg = cfg or UReliefConfig()
    state = urelief_state(d, cfg, workers)
    k, iterations = cfg.resolve(d.m)
    provenance = {"method": "urelief", "dataset": d.name, "neighbors": k,
                  "iterations": iterations, "seed": cfg.seed}
    return Ranking("urelief", state.w, d.attr_names, provenance)
