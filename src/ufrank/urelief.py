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

The K nearest rows of a reference are found in two steps. A screen
computes, for a block of B references at a time, n * d_X up to rounding
from each reference to every row in one weighted-cityblock pass (scipy's
cdist of |x - x_r| with weight 1/divisor on the numeric columns, plus the
count of nominal mismatches) into one preallocated B x m buffer; B is the
number of m-row float64 screens that fit in _BLOCK_BUDGET (4 MB), or 1.
A row is a candidate when its screen value is not above
rho * kth + n * tiny, where kth is the reference's K-th smallest screen
value (its own entry is inf), rho = 1 + 8(n+4) eps and tiny is the
smallest normal float64. The exact d_i and d_X (subtract, abs, divide,
nominal indicator, mean over the row) are computed for the candidates
only, and a stable sort of their d_X, in row order, gives the K nearest,
boundary ties to the smaller row index.

The screen cannot change a weight. It and n * d_X add the same n
non-negative terms |fl(x - x_r)| / divisor, so each lies within a
relative gamma_{n+6} of the same real sum (gamma_j = j u / (1 - j u),
u = eps / 2; Higham, Accuracy and Stability of Numerical Algorithms,
2002, section 3.1; the 6 also covers a subnormal weight 1/divisor on a
range above 2**1022), and underflow adds far less than n * tiny. rho is
more than four times the (2n + 7) eps the two bounds need together, so
every row at or below the exact K-th d_X is a candidate, and any extra
candidate sorts after those: the K rows and their order are those of a
full stable sort of every row's d_X, bit for bit. A range that overflows
to inf makes the screen and d_X NaN for the same rows; "not above" keeps
them, and an inf or NaN K-th value admits every row. Each reference's
sums are taken on their own, in a fixed order, so the weights depend on
neither B nor the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

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


# memory cap, in bytes, for one block of references' B x m float64 screen;
# a block holds at least one reference whatever m is
_BLOCK_BUDGET = 4_000_000


@dataclass(frozen=True)
class _Kernel:
    """Per-call setup shared by every block of references: the rows (C-order
    float64, as Dataset keeps them), the divisor of each column (the
    training range on a numeric attribute with positive range, 1
    elsewhere), the screen's weight of each column (1 / divisor on a
    numeric column, 0 on a nominal one) and the nominal columns with their
    codes. A numeric column of zero range holds one finite value, so its
    distances are exactly 0."""

    X: np.ndarray
    divisor: np.ndarray
    weight: np.ndarray
    nominal: np.ndarray
    codes: np.ndarray

    @classmethod
    def make(cls, d: Dataset, stats: AttributeStats) -> "_Kernel":
        num = d.numeric_mask
        spread = num & (stats.value_range > 0)
        divisor = np.where(spread, stats.value_range, 1.0)
        nominal = np.flatnonzero(~num)
        return cls(d.X, divisor, np.where(num, 1.0 / divisor, 0.0), nominal,
                   d.X[:, nominal])

    def screen(self, refs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """n * d_X up to rounding (B x m, written into ``out``) from each of
        the B reference rows to every row, the reference's own entry inf:
        the weighted cityblock sum of |x - x_r| / divisor over the numeric
        columns plus the count of nominal mismatches."""
        cdist(self.X[refs], self.X, "cityblock", w=self.weight, out=out)
        if self.nominal.size:
            mismatches = cdist(self.codes[refs], self.codes, "hamming")
            mismatches *= self.nominal.size
            out += mismatches
        out[np.arange(refs.size), refs] = np.inf
        return out

    def exact(self, r, rows: np.ndarray):
        """d_i (len(rows) x n) and d_X (len(rows)) from reference row ``r``
        to ``rows``. The result is C-order, so the mean over its last axis
        sums each row's n terms exactly as the full m x n table would."""
        dm = self.X[rows]
        # an overflowing difference gives an inf d_i, hence an inf d_X
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(dm, self.X[r], out=dm)
            np.abs(dm, out=dm)
            np.divide(dm, self.divisor, out=dm)
        if self.nominal.size:
            dm[:, self.nominal] = self.codes[rows] != self.codes[r]
        return dm, dm.mean(axis=-1)


def _contributions(d: Dataset, stats: AttributeStats, k: int,
                   refs: np.ndarray):
    """Each reference's raw sums over its K nearest rows: (sum of d_X,
    per-attribute sum of d_i, per-attribute sum of d_i * d_X). Neighbor ties
    at the boundary resolve to the smaller row index.

    References are screened in blocks of B under _BLOCK_BUDGET. A row is a
    candidate when its screen value is not above rho * (the K-th screen
    value) + n * tiny; the exact d_X of the candidates, stable-sorted in
    row order, gives the same K rows in the same order as a full stable
    sort of every row's exact d_X (see the module docstring)."""
    kernel = _Kernel.make(d, stats)
    block = max(1, min(refs.size, _BLOCK_BUDGET // (8 * d.m)))
    buf = np.empty((block, d.m))
    rho = 1.0 + 8 * (d.n + 4) * np.finfo(np.float64).eps
    slack = d.n * np.finfo(np.float64).tiny
    parts = []
    for start in range(0, refs.size, block):
        rs = refs[start:start + block]
        screen = kernel.screen(rs, buf[:rs.size])
        bound = rho * np.partition(screen, k - 1, axis=1)[:, k - 1] + slack
        for b, r in enumerate(rs):
            # "not above" keeps rows whose screen is NaN (a range overflowed
            # to inf), and an inf or NaN bound admits every row
            cand = np.flatnonzero(~(screen[b] > bound[b]))
            dm, dx = kernel.exact(r, cand)
            keyed = np.where(cand == r, np.inf, dx)
            nearest = np.argsort(keyed, kind="stable")[:k]
            dx_nb = dx[nearest]
            dm_nb = dm[nearest]
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
