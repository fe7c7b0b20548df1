"""Evaluation harness for feature rankings.

The quality of a ranking is measured indirectly: keep the top-k attributes,
fit a 1-nearest-neighbor regressor on a training fold, and score its mean
squared error on the held-out fold, averaged over a seeded cross-validation
plan shared by every method under comparison (so curves for different
methods coincide at k = n). Error curves sweep k over the geometric grid
1, 2, 4, ... capped with n. Across datasets, methods are compared by
average rank with the Friedman chi-square test and the Nemenyi critical
distance. A separate check measures how well k-means cluster structure
matches the class labels via the adjusted Rand index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .data import (ComputationError, Dataset, IngestionError, _check_rows,
                   write_rows)


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Seeded partition of {0..m-1} into folds whose sizes differ by at
    most one."""

    folds: tuple[np.ndarray, ...]
    n_examples: int
    seed: int

    @classmethod
    def make(cls, m: int, n_folds: int = 10, seed: int = 0) -> "FoldPlan":
        if not 2 <= n_folds <= m:
            raise IngestionError(f"fold count must be in [2, {m}], got {n_folds}")
        order = streams.stream(seed, streams.FOLDS).permutation(m)
        folds = tuple(np.sort(part) for part in np.array_split(order, n_folds))
        return cls(folds, m, seed)

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def test_rows(self, i: int) -> np.ndarray:
        return self.folds[i]

    def train_rows(self, i: int) -> np.ndarray:
        return np.setdiff1d(np.arange(self.n_examples), self.folds[i])


# memory cap, in bytes, for one block of queries' float64 screen against
# every training row; a block holds at least one query whatever t is
_BLOCK_BUDGET = 2_000_000


def _column_mean(T: np.ndarray) -> np.ndarray:
    """Column mean of the rows of T, the origin of ``_nearest``'s screen; a
    column whose sum overflows gets an inf or NaN mean, which sends every
    query to the exact check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return T.mean(axis=0)


def _nearest(T: np.ndarray, Q: np.ndarray, mu: np.ndarray,
             attrs: np.ndarray) -> np.ndarray:
    """Index j of the nearest row T[j] for each query row q of Q: squared
    Euclidean distance over ``attrs``, taken in ascending column order,
    ties to the smallest j. The 1NN evaluator passes training rows in
    ascending row order and k-means its centers in id order.

    The distance that decides is E_j = sum((T[j] - q)**2) by direct
    differences, as ``_sq_dists`` computes it. A screen finds the nearest
    row without it. Queries go in blocks of as many t-long float64 rows as
    fit in _BLOCK_BUDGET (2 MB), or one. In coordinates centered on the
    column mean mu of T (a = q - mu, b_j = T[j] - mu), one matmul of the
    block's rows [a, 1] against the rows [-2 b_j, |b_j|^2] gives
    s_j = |b_j|^2 - 2 a.b_j, which is E_j - |a|^2 up to rounding (|a|^2 is
    the same for every j, so it is left out). The screen's argmin is the
    pick when the second smallest s is above lo + delta, lo the smallest,
    with X = |a|^2 + 2 max_j |b_j|^2 and

        delta = 4 (k + 4) eps X + k tiny,

    k = len(attrs), tiny the smallest normal float64. Otherwise the query
    is ambiguous: every row whose s is not above lo + delta gets its E,
    and the smallest E, ties to the smallest j, is the pick.

    Why delta suffices, to first order in u = eps / 2 (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, sections 3.1 and 3.5).
    Let D_j be the real squared distance; it is translation invariant, so
    the rounding of mu costs nothing. Each centered coordinate is one
    correctly rounded subtraction, which moves |a - b_j|^2 from D_j by at
    most 4u (|a|^2 + |b_j|^2) <= 4u X. s_j is a sum of k + 1 products in
    whatever order the BLAS takes, so it lies within
    (k + 1) u (|a|^2 + 2 |b_j|^2) + k u |b_j|^2 <= (1.5k + 1) u X of
    |a - b_j|^2 - |a|^2 (the k u from rounding |b_j|^2 itself). E_j lies
    within (k + 2) u D_j <= (2k + 4) u X of D_j. So s_j + |a|^2 and E_j
    differ by at most (3.5k + 9) u X, and the gap between two rows moves
    by at most (3.5k + 9) eps X. delta leaves (0.5k + 7) eps X over for
    rounding lo + delta (|lo| <= X) and the higher-order terms, and k tiny
    covers gradual underflow, at most u tiny per operation. Hence an
    unambiguous pick has the strictly smallest E, and on an ambiguous
    query every row whose E is not above the screen pick's E is a
    candidate, ties included: the picks are those of a full scan of E,
    whatever the block size or the BLAS.

    Overflow falls through to the exact check. 4X is computed on its own
    and overflows to inf before any E can; an inf or NaN delta (a column
    whose mean or square overflows) leaves every row "not above" lo +
    delta, so the query compares every E, an overflowing E being inf.
    """
    t, k = len(T), attrs.size
    block = max(1, min(len(Q), _BLOCK_BUDGET // (8 * t)))
    picks = np.empty(len(Q), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        B = np.empty((t, k + 1))
        np.subtract(T[:, attrs], mu[attrs], out=B[:, :k])
        B[:, k] = np.einsum("ij,ij->i", B[:, :k], B[:, :k])
        B[:, :k] *= -2.0
        A = np.ones((len(Q), k + 1))
        np.subtract(Q[:, attrs], mu[attrs], out=A[:, :k])
        scale = 4.0 * (np.einsum("ij,ij->i", A[:, :k], A[:, :k])
                       + 2.0 * B[:, k].max())
        fp = np.finfo(np.float64)
        delta = (k + 4) * fp.eps * scale + k * fp.tiny
        buf = np.empty((block, t))
        for start in range(0, len(Q), block):
            stop = min(start + block, len(Q))
            s = buf[:stop - start]
            np.matmul(A[start:stop], B.T, out=s)
            rows = np.arange(stop - start)
            first = s.argmin(axis=1)
            lo = s[rows, first]
            s[rows, first] = np.inf
            second = s.min(axis=1)
            s[rows, first] = lo
            bound = lo + delta[start:stop]
            picks[start:stop] = first
            # "not above" keeps NaN: an overflowed screen is ambiguous
            ambiguous = np.flatnonzero(~(second > bound))
            if ambiguous.size:
                picks[start + ambiguous] = _exact_picks(
                    T, Q[start + ambiguous], attrs, s[ambiguous],
                    bound[ambiguous])
    return picks


def _exact_picks(T: np.ndarray, Q: np.ndarray, attrs: np.ndarray,
                 screen: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """For each query row of Q, the smallest direct-difference distance E
    over the training rows whose screen value is not above the query's
    bound, ties to the smallest row. ``screen`` (a copy, one row per
    query) is overwritten: inf off the candidates, E on them. The
    (query, candidate) pairs go through _sq_dists in runs that keep each
    k-column temporary within _BLOCK_BUDGET."""
    qi, j = np.nonzero(~(screen > bound[:, None]))
    screen.fill(np.inf)
    step = max(1, _BLOCK_BUDGET // (8 * attrs.size))
    for p in range(0, qi.size, step):
        q_, j_ = qi[p:p + step], j[p:p + step]
        screen[q_, j_] = _sq_dists(T[np.ix_(j_, attrs)], Q[np.ix_(q_, attrs)])
    return screen.argmin(axis=1)


def _check_selection(d: Dataset, selected_attrs) -> np.ndarray:
    attrs = np.unique(np.asarray(selected_attrs, dtype=np.intp))
    if attrs.size == 0:
        raise ValueError("attribute selection must be non-empty")
    if len(attrs) != len(np.asarray(selected_attrs).ravel()):
        raise ValueError("attribute selection contains duplicates")
    if attrs.min() < 0 or attrs.max() >= d.n:
        raise ValueError("attribute indices out of range")
    return attrs


def knn_predict(d: Dataset, train_rows, test_row, selected_attrs) -> float:
    """Predict one example's target from its nearest training row over the
    selected attributes: unweighted squared Euclidean by direct
    differences, distance ties to the smallest row index (the screen and
    exact check of ``_nearest``, with the training rows' mean as
    origin)."""
    if d.target is None:
        raise ValueError("knn_predict needs a dataset with a target")
    train_rows = np.sort(_check_rows(train_rows, d.m))
    attrs = _check_selection(d, selected_attrs)
    x = np.asarray(test_row, dtype=np.float64)
    if x.shape != (d.n,):
        raise ValueError(f"test row must have arity {d.n}")
    if not np.isfinite(x).all():
        raise ValueError("test row must be finite")
    # only the columns from the first selected one to the last, a copy of
    # contiguous row pieces; an np.ix_ gather of the selected columns alone
    # measured slower than the whole rows once most columns are selected
    span = slice(attrs[0], attrs[-1] + 1)
    T = d.X[train_rows, span]
    j = _nearest(T, x[None, span], _column_mean(T), attrs - attrs[0])[0]
    return float(d.target[train_rows[j]])


def _fold_rankings(d: Dataset, ranker, plan: FoldPlan) -> list:
    """One ranking per fold, each computed on a target-free view of the
    training rows only."""
    return [ranker(d.restrict_rows(plan.train_rows(i)).without_target())
            for i in range(plan.n_folds)]


def _fold_errors(d: Dataset, rankings: list, plan: FoldPlan,
                 ks) -> np.ndarray:
    """folds x len(ks) test-fold MSE of a 1NN regressor on each fold's top-k
    attributes, taken in ascending column order. Each fold's rows and
    their mean are taken once for the whole grid."""
    out = np.empty((plan.n_folds, len(ks)))
    for i, ranking in enumerate(rankings):
        train, test = plan.train_rows(i), plan.test_rows(i)
        T, Q, y = d.X[train], d.X[test], d.target[train]
        mu = _column_mean(T)
        for j, k in enumerate(ks):
            attrs = np.sort(ranking.top(k))
            pred = y[_nearest(T, Q, mu, attrs)]
            # a target whose errors or their squares overflow gives inf
            with np.errstate(over="ignore"):
                diff = pred - d.target[test]
                out[i, j] = (diff * diff).mean()
    if not np.isfinite(out).all():
        raise ComputationError("test-fold MSE is not finite: the target's "
                               "squared errors overflow")
    return out


def cv_mse(d: Dataset, ranker, k_features: int, plan: FoldPlan) -> float:
    """Mean over folds of the test-fold MSE of a 1NN regressor on the fold's
    top ``k_features`` attributes. The ranker sees only training-fold
    features; the target and the test fold stay hidden from it."""
    if d.target is None:
        raise IngestionError("cv_mse needs a dataset with a target")
    if not 1 <= k_features <= d.n:
        raise IngestionError(f"k_features must be in [1, {d.n}], got {k_features}")
    rankings = _fold_rankings(d, ranker, plan)
    return float(np.mean(_fold_errors(d, rankings, plan, (k_features,))))


def k_grid(n: int) -> tuple[int, ...]:
    """1, 2, 4, ... up to the largest power of two not above n, then n."""
    ks = []
    k = 1
    while k <= n:
        ks.append(k)
        k *= 2
    if ks[-1] != n:
        ks.append(n)
    return tuple(ks)


@dataclass
class CurveReport:
    method: str
    dataset: str
    k_values: tuple[int, ...]
    fold_mse: np.ndarray  # folds x k grid
    mean_mse: tuple[float, ...]
    folds: int
    plan_seed: int


def error_curve(d: Dataset, ranker, plan: FoldPlan) -> CurveReport:
    """cv_mse swept over the geometric k grid; each fold is ranked once and
    the ranking reused for every k."""
    if d.target is None:
        raise IngestionError("error_curve needs a dataset with a target")
    ks = k_grid(d.n)
    rankings = _fold_rankings(d, ranker, plan)
    fold_mse = _fold_errors(d, rankings, plan, ks)
    means = tuple(float(np.mean(fold_mse[:, j])) for j in range(len(ks)))
    return CurveReport(rankings[0].method, d.name, ks, fold_mse, means,
                       plan.n_folds, plan.seed)


def curve_points_csv(report: CurveReport, path) -> None:
    """Two-column plot-ready mirror: k, mean MSE."""
    write_rows(path, [["k", "mean_mse"],
                      *zip(report.k_values, map(repr, report.mean_mse))])


def _sq_dists(X: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of X to one center, or
    row by row to a matching array of centers; a difference or square that
    overflows gives inf."""
    with np.errstate(over="ignore"):
        return ((X - center) ** 2).sum(axis=1)


_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6


def kmeans(X: np.ndarray, k: int, rng: np.random.Generator):
    """Lloyd iterations from a k-means++ start.

    Each point goes to the center that ``_nearest``, the 1NN kernel,
    picks exactly: the smallest squared distance by direct differences,
    ties to the lowest center id. So a table with a large offset and a
    small spread is assigned exactly (the |a|^2 + |b|^2 - 2ab expansion
    cancels there). An emptied cluster is re-seeded on the point farthest
    from its current center. Stops when assignments repeat, when the
    inertia improvement falls below _KMEANS_TOL relative, or after
    _KMEANS_MAX_ITER iterations. Seeding raises ComputationError when the
    squared distances overflow, as k-means++ then has no draw
    probabilities; k = 1 draws nothing, and its inertia is then inf.
    """
    m = len(X)
    if not 1 <= k <= m:
        raise IngestionError(f"k must be in [1, {m}], got {k}")
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(m))]
    closest = _sq_dists(X, centers[0])
    for j in range(1, k):
        total = closest.sum()
        if not np.isfinite(total):
            raise ComputationError("k-means++ seeding: squared distances "
                                   "overflow")
        if total > 0:
            idx = int(rng.choice(m, p=closest / total))
        else:
            idx = int(rng.integers(m))
        centers[j] = X[idx]
        closest = np.minimum(closest, _sq_dists(X, centers[j]))

    every = np.arange(X.shape[1])
    labels = np.full(m, -1, dtype=np.intp)
    inertia = np.inf
    for _ in range(_KMEANS_MAX_ITER):
        new_labels = _nearest(centers, X, _column_mean(centers), every)
        point_d2 = _sq_dists(X, centers[new_labels])
        new_inertia = float(point_d2.sum())
        for c in range(k):
            members = new_labels == c
            if members.any():
                centers[c] = X[members].mean(axis=0)
            else:
                far = int(np.argmax(point_d2))
                centers[c] = X[far]
                point_d2[far] = -1.0
        done = ((new_labels == labels).all()
                or np.isfinite(inertia) and abs(inertia - new_inertia)
                <= _KMEANS_TOL * max(inertia, 1e-300))
        labels, inertia = new_labels, new_inertia
        if done:
            break
    return labels, centers, inertia


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected pair-counting agreement of two labelings: 1 for
    identical partitions, about 0 for independent ones. When both labelings
    are trivial in the same way (the 0/0 case, which includes a single
    element) the partitions are identical and the index is 1 by
    convention."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape or a.size == 0:
        raise ValueError("labelings must be equal-length and non-empty")
    if a.size == 1:  # no pairs at all
        return 1.0
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)

    def comb2(x):
        return x * (x - 1.0) / 2.0

    index = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(float(a.size))
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def clustering_hypothesis_ari(d: Dataset, class_count: int | None = None,
                              runs: int = 10, seed: int = 0) -> float:
    """Median over ``runs`` seeded k-means runs of the ARI between cluster
    assignments (k = the number of target classes unless overridden) and the
    class labels."""
    if d.target is None:
        raise IngestionError("the clustering check needs a dataset with a target")
    classes = np.unique(d.target)
    if classes.size < 2:
        raise IngestionError("the clustering check needs at least two classes")
    if runs < 1:
        raise ValueError("runs must be at least 1")
    k = class_count if class_count is not None else int(classes.size)
    aris = []
    for r in range(runs):
        labels, _, _ = kmeans(d.X, k, streams.stream(seed, streams.KMEANS, r))
        aris.append(adjusted_rand_index(labels, d.target))
    return float(np.median(aris))


# Two-sided studentized-range quantiles q_0.05(k) / sqrt(2) for the Nemenyi
# critical distance, methods k = 2..10.
_NEMENYI_Q_05 = {2: 1.959964, 3: 2.343701, 4: 2.569032, 5: 2.727774,
                 6: 2.849705, 7: 2.948320, 8: 3.030879, 9: 3.101730,
                 10: 3.163684}


def nemenyi_cd(n_methods: int, n_datasets: int, alpha: float = 0.05) -> float:
    """Minimum average-rank gap that separates two methods."""
    if alpha != 0.05:
        raise ValueError("critical distances are tabulated for alpha=0.05 only")
    if n_methods not in _NEMENYI_Q_05:
        raise IngestionError(f"critical value table covers 2..10 methods, "
                             f"got {n_methods}")
    q = _NEMENYI_Q_05[n_methods]
    return q * np.sqrt(n_methods * (n_methods + 1) / (6.0 * n_datasets))


@dataclass
class ComparisonReport:
    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    mse: np.ndarray            # datasets x methods
    ranks: np.ndarray          # datasets x methods, average-rank ties
    average_ranks: tuple[float, ...]
    friedman_chi2: float
    p_value: float
    iman_davenport_f: float | None  # None where F is unbounded
    iman_davenport_p: float
    critical_difference: float
    alpha: float
    indistinguishable_pairs: tuple[tuple[int, int], ...]


def compare_methods(results, method_names=None, dataset_names=None,
                    alpha: float = 0.05) -> ComparisonReport:
    """Rank methods per dataset (rank 1 = lowest error, ties share the
    average rank), then test whether the average ranks could be uniform.

    Reports the Friedman chi-square statistic with its p-value, plus the
    F-distributed refinement of that statistic (less conservative for few
    datasets) as supplementary fields, and the Nemenyi critical distance
    with the method pairs it fails to separate.
    """
    R = np.asarray(results, dtype=np.float64)
    if R.ndim != 2 or R.shape[0] < 2 or R.shape[1] < 2:
        raise IngestionError("results must be a (datasets x methods) matrix, "
                             "at least 2x2")
    if not np.isfinite(R).all():
        raise IngestionError("results contain non-finite values")
    n_data, n_methods = R.shape
    if method_names is None:
        method_names = tuple(f"method_{j}" for j in range(n_methods))
    if dataset_names is None:
        dataset_names = tuple(f"dataset_{i}" for i in range(n_data))
    if len(method_names) != n_methods or len(dataset_names) != n_data:
        raise ValueError("name lists do not match the matrix shape")

    # imported here so that `import ufrank` loads numpy only
    from scipy import stats as sstats

    ranks = np.vstack([sstats.rankdata(row) for row in R])
    avg = ranks.mean(axis=0)
    chi2 = (12.0 * n_data / (n_methods * (n_methods + 1))
            * (float(avg @ avg) - n_methods * (n_methods + 1) ** 2 / 4.0))
    p = float(sstats.chi2.sf(chi2, n_methods - 1))

    id_denom = n_data * (n_methods - 1) - chi2
    if id_denom <= 0:  # every dataset ranks the methods alike: F is unbounded
        id_f, id_p = None, 0.0
    else:
        id_f = (n_data - 1) * chi2 / id_denom
        id_p = float(sstats.f.sf(id_f, n_methods - 1,
                                 (n_methods - 1) * (n_data - 1)))

    cd = float(nemenyi_cd(n_methods, n_data, alpha))
    pairs = tuple((i, j) for i in range(n_methods) for j in range(i + 1, n_methods)
                  if abs(avg[i] - avg[j]) < cd)
    return ComparisonReport(tuple(method_names), tuple(dataset_names), R, ranks,
                            tuple(float(v) for v in avg), float(chi2), p,
                            id_f, id_p, cd, alpha, pairs)


def comparison_to_csv(report: ComparisonReport, path) -> None:
    """Table mirror: one row per dataset, one column per method, with the
    average ranks appended."""
    write_rows(path, [["dataset", *report.methods],
                      *([name, *map(repr, row)] for name, row
                        in zip(report.datasets, report.mse.tolist())),
                      ["average_rank", *map(repr, report.average_ranks)]])
