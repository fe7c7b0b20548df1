"""Predictive clustering trees over the full attribute set.

Every attribute plays both roles at once: tests are drawn from the
attributes, and node quality is measured over all of them. The impurity of
a row multiset is the mean across attributes of its per-attribute impurity
(population variance for numeric, Gini for nominal), each normalized by the
same quantity on the training rows. A split's heuristic is

    h = |E| * impurity(E) - sum over children |E_child| * impurity(E_child)

and a node keeps the first-enumerated test that strictly maximizes h.
Trees are fully grown: a node becomes a leaf only when it has fewer than
two rows or no candidate test achieves h > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AttributeStats, Dataset, Nominal

ALL_THRESHOLDS = "all-thresholds"
ONE_RANDOM_THRESHOLD = "one-random-threshold"


@dataclass(frozen=True)
class SplitSearchPolicy:
    """Per-node candidate enumeration: sample ``n_candidates`` attributes
    without replacement, then enumerate thresholds per ``threshold_mode``."""

    n_candidates: int
    threshold_mode: str = ALL_THRESHOLDS

    def __post_init__(self) -> None:
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be at least 1")
        if self.threshold_mode not in (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD):
            raise ValueError(f"unknown threshold mode {self.threshold_mode!r}")


@dataclass(frozen=True)
class Test:
    """Binary node predicate. Numeric: x[attr] <= threshold (inclusive, so a
    boundary value routes to the yes child). Nominal: x[attr] == category
    where category is a domain code."""

    attr: int
    threshold: float | None = None
    category: float | None = None

    def __post_init__(self) -> None:
        if (self.threshold is None) == (self.category is None):
            raise ValueError("a test carries exactly one of threshold/category")


# Growth scaffolding: grow_tree links these nodes and hands the root to
# FlatTree.from_node, which is the only reader.
@dataclass
class Leaf:
    prototype: np.ndarray
    n_reached: int


@dataclass
class Internal:
    test: Test
    h_star: float
    n_reached: int
    yes: "Leaf | Internal | None" = None
    no: "Leaf | Internal | None" = None


@dataclass(frozen=True)
class SplitResult:
    test: Test
    h_star: float
    yes_rows: np.ndarray
    no_rows: np.ndarray


def impurity(d: Dataset, rows, stats: AttributeStats) -> float:
    """Mean over attributes of the subset impurity divided by its value on
    the reference rows; attributes constant on the reference rows (zero
    denominator) contribute 0."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("impurity of an empty row set is undefined")
    sub = d.X[rows]
    terms = np.zeros(d.n)
    num = d.numeric_mask
    if num.any():
        v = sub[:, num].var(axis=0)
        den = stats.variance[num]
        terms[num] = np.divide(v, den, out=np.zeros_like(v), where=den > 0)
    for j in np.flatnonzero(~num):
        den = stats.gini[j]
        if den > 0:
            counts = np.bincount(sub[:, j].astype(np.intp),
                                 minlength=len(d.kinds[j].domain))
            p = counts / rows.size
            terms[j] = (1.0 - float(p @ p)) / den
    return float(terms.mean())


def sample_candidates(rng: np.random.Generator, n_attrs: int, k: int) -> np.ndarray:
    """Draw k of the n attributes without replacement. The draw order is the
    candidate enumeration order, which settles ties under strict h > h*."""
    return rng.choice(n_attrs, size=k, replace=False)


class SplitWorkspace:
    """Precomputed matrix shared by every node of one tree (or one ensemble):
    Z = [x_c | one-hot blocks] over the columns whose training denominator is
    positive. Each node centers the value block on its own column means and
    squares it, giving a scoring matrix [v | v^2 | one-hots] whose column
    sums over any row multiset yield the weighted-impurity term

        U(S) = |S| * n * impurity(S)   (summed over active columns only)

    for every candidate split. Centering per node keeps the v^2 - v*v/L
    subtraction from cancelling when a column's spread is small next to its
    magnitude; variance is shift invariant, so h is unchanged.
    """

    def __init__(self, d: Dataset, stats: AttributeStats):
        self.d = d
        self.n = d.n
        num = d.numeric_mask
        num_active = np.flatnonzero(num & (stats.denominator > 0))
        self.num_den = stats.denominator[num_active]
        blocks = [d.X[:, num_active]]
        oh_weight: list[np.ndarray] = []
        gini_inv_sum = 0.0
        for j in np.flatnonzero(~num):
            den = stats.denominator[j]
            if den <= 0:
                continue
            size = len(d.kinds[j].domain)
            codes = d.X[:, j].astype(np.intp)
            onehot = np.zeros((d.m, size))
            onehot[np.arange(d.m), codes] = 1.0
            blocks.append(onehot)
            oh_weight.append(np.full(size, 1.0 / den))
            gini_inv_sum += 1.0 / den
        self.P = num_active.size
        self.oh_weight = (np.concatenate(oh_weight) if oh_weight
                          else np.empty(0))
        self.gini_inv_sum = gini_inv_sum
        self.Z = np.ascontiguousarray(np.concatenate(blocks, axis=1))
        # position of each active numeric attribute's value column inside Z
        self.num_col = {int(a): i for i, a in enumerate(num_active)}

    def u_terms(self, S: np.ndarray, L: np.ndarray) -> np.ndarray:
        """U for each candidate row of column sums S with subset sizes L.
        Callers guarantee L >= 1."""
        P = self.P
        S1, S2 = S[:, :P], S[:, P:2 * P]
        U = ((S2 - S1 * S1 / L[:, None]) / self.num_den).sum(axis=1)
        if self.oh_weight.size:
            counts = S[:, 2 * P:]
            U = U + L * self.gini_inv_sum - ((counts * counts) @ self.oh_weight) / L
        return U


def best_test(d: Dataset, rows, policy: SplitSearchPolicy, stats: AttributeStats,
              rng: np.random.Generator, workspace: SplitWorkspace | None = None,
              ) -> SplitResult | None:
    """Search the node's candidate tests and return the strict maximizer of h,
    or None when no candidate achieves h > 0.

    Enumeration order (the tie rule): attributes in sampled order; within a
    numeric attribute, thresholds ascending; within a nominal attribute,
    categories in ascending code order. A later candidate replaces the
    incumbent only when its h is strictly larger.

    Random consumption per node, in order: one without-replacement draw of
    min(n_candidates, n) attributes; then, in one-random-threshold mode only,
    one uniform draw per numeric candidate (vectorized, candidates in sampled
    order) followed by one integer draw per non-constant nominal candidate in
    sampled order.
    """
    rows = np.asarray(rows, dtype=np.intp)
    M = int(rows.size)
    if M < 2:
        return None
    ws = workspace if workspace is not None else SplitWorkspace(d, stats)
    cand = sample_candidates(rng, d.n, min(policy.n_candidates, d.n))
    subZ = ws.Z[rows]
    P = ws.P
    V = subZ[:, :P]
    scored = np.empty((M, P + subZ.shape[1]))
    if P:
        np.subtract(V, V.mean(axis=0), out=scored[:, :P])
        np.square(scored[:, :P], out=scored[:, P:2 * P])
    scored[:, 2 * P:] = subZ[:, P:]
    totals = scored.sum(axis=0)
    u_all = float(ws.u_terms(totals[None, :], np.array([float(M)]))[0])

    if policy.threshold_mode == ONE_RANDOM_THRESHOLD:
        return _one_random_split(d, ws, rows, V, scored, totals, u_all, cand, rng)
    return _all_thresholds_split(d, ws, rows, V, scored, totals, u_all, cand)


def _gains(ws: SplitWorkspace, totals: np.ndarray, u_all: float, M: int,
           S: np.ndarray, L: np.ndarray) -> np.ndarray:
    """h for candidate yes-sides with column sums S and sizes L (all in
    (0, M) by construction)."""
    k = S.shape[0]
    U = ws.u_terms(np.concatenate((S, totals[None, :] - S), axis=0),
                   np.concatenate((L, M - L)))
    return (u_all - U[:k] - U[k:]) / ws.n


def _all_thresholds_split(d, ws, rows, V, scored, totals, u_all, cand):
    M = rows.size
    best_h = 0.0
    best: Test | None = None
    best_mask: np.ndarray | None = None
    for a in cand:
        a = int(a)
        vals = (V[:, ws.num_col[a]] if a in ws.num_col
                else d.X[rows, a])
        if isinstance(d.kinds[a], Nominal):
            present = np.unique(vals)
            if present.size < 2:
                continue
            masks = vals[:, None] == present[None, :]
            maskf = masks.astype(np.float64)
            h = _gains(ws, totals, u_all, M, maskf.T @ scored, maskf.sum(axis=0))
            i = int(np.argmax(h))
            if h[i] > best_h:
                best_h = float(h[i])
                best = Test(a, category=float(present[i]))
                best_mask = masks[:, i]
        else:
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            cut = np.flatnonzero(sv[1:] > sv[:-1])
            if cut.size == 0:
                continue
            thresholds = sv[cut] + (sv[cut + 1] - sv[cut]) / 2
            # if a midpoint rounds onto the upper value, fall back to the
            # lower one so the test keeps the partition it was scored on
            thresholds = np.where(thresholds < sv[cut + 1], thresholds, sv[cut])
            prefix = scored[order].cumsum(axis=0)
            h = _gains(ws, totals, u_all, M, prefix[cut],
                       (cut + 1).astype(np.float64))
            i = int(np.argmax(h))
            if h[i] > best_h:
                best_h = float(h[i])
                best = Test(a, threshold=float(thresholds[i]))
                best_mask = None  # recomputed below; cheaper than storing
    if best is None:
        return None
    if best_mask is None:
        best_mask = d.X[rows, best.attr] <= best.threshold
    return SplitResult(best, best_h, rows[best_mask], rows[~best_mask])


def _one_random_split(d, ws, rows, V, scored, totals, u_all, cand, rng):
    M = rows.size
    numeric = d.numeric_mask[cand]
    all_numeric = bool(numeric.all())

    num_attrs = cand if all_numeric else cand[numeric]
    num_masks = ok = theta = None
    if num_attrs.size:
        zc = [ws.num_col.get(int(a), -1) for a in num_attrs]
        if -1 in zc:
            # some candidate is constant on the whole training set (no Z
            # column); fetch raw values so the draw below still happens
            nv = d.X[np.ix_(rows, num_attrs)]
        else:
            nv = V[:, zc]
        lo = nv.min(axis=0)
        hi = nv.max(axis=0)
        # One vectorized draw; degenerate draws (constant column, or a theta
        # rounding onto an endpoint) are discarded as invalid candidates.
        theta = rng.uniform(lo, hi)
        ok = (lo < hi) & (theta > lo) & (theta < hi)
        num_masks = nv <= theta

    if all_numeric:
        if not ok.all():
            keep = np.flatnonzero(ok)
            if keep.size == 0:
                return None
            masks = num_masks[:, keep]
            attrs, values = cand[keep], theta[keep]
        else:
            masks, attrs, values = num_masks, cand, theta
        categorical = ()
    else:
        nom_cols: dict[int, tuple[np.ndarray, float]] = {}
        for j in np.flatnonzero(~numeric):
            vj = d.X[rows, cand[j]]
            present = np.unique(vj)
            if present.size < 2:
                continue
            v = float(present[rng.integers(present.size)])
            nom_cols[j] = (vj == v, v)
        # Reassemble in sampled order (the enumeration order for ties).
        cols, attrs, values, categorical = [], [], [], []
        pos = 0
        for j in range(cand.size):
            if numeric[j]:
                if ok[pos]:
                    cols.append(num_masks[:, pos])
                    attrs.append(int(cand[j]))
                    values.append(float(theta[pos]))
                    categorical.append(False)
                pos += 1
            elif j in nom_cols:
                cols.append(nom_cols[j][0])
                attrs.append(int(cand[j]))
                values.append(nom_cols[j][1])
                categorical.append(True)
        if not cols:
            return None
        masks = np.column_stack(cols)

    maskf = masks.astype(np.float64)
    h = _gains(ws, totals, u_all, M, maskf.T @ scored, maskf.sum(axis=0))
    i = int(np.argmax(h))
    if h[i] <= 0.0:
        return None
    if categorical and categorical[i]:
        test = Test(int(attrs[i]), category=float(values[i]))
    else:
        test = Test(int(attrs[i]), threshold=float(values[i]))
    ym = masks[:, i]
    return SplitResult(test, float(h[i]), rows[ym], rows[~ym])


def prototype(d: Dataset, rows: np.ndarray) -> np.ndarray:
    """Leaf prediction vector: per-attribute mean (numeric) or modal code
    (nominal, ties to the smallest code), over the row multiset."""
    sub = d.X[rows]
    proto = sub.mean(axis=0)
    for j in np.flatnonzero(~d.numeric_mask):
        counts = np.bincount(sub[:, j].astype(np.intp),
                             minlength=len(d.kinds[j].domain))
        proto[j] = float(np.argmax(counts))
    return proto


def grow_tree(d: Dataset, rows, policy: SplitSearchPolicy, stats: AttributeStats,
              rng: np.random.Generator, workspace: SplitWorkspace | None = None,
              ) -> "FlatTree":
    """Grow a fully expanded tree on the given row multiset (duplicate
    indices count with multiplicity everywhere).

    Nodes are expanded in preorder, yes child first; together with the
    per-node consumption documented on best_test this fixes the random
    stream layout, so one seed always yields one tree.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("cannot grow a tree on an empty row multiset")
    if rows.min() < 0 or rows.max() >= d.m:
        raise ValueError("row indices out of range")
    ws = workspace if workspace is not None else SplitWorkspace(d, stats)

    root_box: list[Leaf | Internal | None] = [None]

    def attach(container, slot, node):
        if isinstance(container, list):
            container[slot] = node
        elif slot == "yes":
            container.yes = node
        else:
            container.no = node

    stack: list[tuple[np.ndarray, object, object]] = [(rows, root_box, 0)]
    while stack:
        node_rows, container, slot = stack.pop()
        res = None
        if node_rows.size >= 2:
            res = best_test(d, node_rows, policy, stats, rng, ws)
        if res is None:
            attach(container, slot, Leaf(prototype(d, node_rows),
                                         int(node_rows.size)))
            continue
        node = Internal(res.test, res.h_star, int(node_rows.size))
        attach(container, slot, node)
        # pushed no-first so the yes child pops (and consumes randomness) first
        stack.append((res.no_rows, node, "no"))
        stack.append((res.yes_rows, node, "yes"))
    return FlatTree.from_node(root_box[0], d.n)


@dataclass
class FlatTree:
    """A grown tree as arrays, for batch routing and vectorized node sweeps.

    Node order is preorder (yes first). ``attr`` is -1 at leaves; ``child``
    rows hold (yes, no) node ids; ``leaf_slot`` maps leaf nodes into the
    compact ``leaf_proto`` matrix.
    """

    attr: np.ndarray
    threshold: np.ndarray
    category: np.ndarray
    is_nominal: np.ndarray
    child: np.ndarray
    n_reached: np.ndarray
    h_star: np.ndarray
    leaf_slot: np.ndarray
    leaf_proto: np.ndarray

    @classmethod
    def from_node(cls, root: Leaf | Internal, n_attrs: int) -> "FlatTree":
        """Flatten the linked nodes grow_tree builds."""
        nodes: list[Leaf | Internal] = []
        stack = [root]
        while stack:  # preorder, yes child first
            node = stack.pop()
            nodes.append(node)
            if isinstance(node, Internal):
                stack.append(node.no)
                stack.append(node.yes)
        index = {id(node): i for i, node in enumerate(nodes)}
        count = len(nodes)
        attr = np.full(count, -1, dtype=np.intp)
        threshold = np.full(count, np.nan)
        category = np.full(count, np.nan)
        is_nominal = np.zeros(count, dtype=bool)
        child = np.full((count, 2), -1, dtype=np.intp)
        n_reached = np.zeros(count, dtype=np.intp)
        h_star = np.zeros(count)
        leaf_slot = np.full(count, -1, dtype=np.intp)
        protos: list[np.ndarray] = []
        for i, node in enumerate(nodes):
            n_reached[i] = node.n_reached
            if isinstance(node, Leaf):
                leaf_slot[i] = len(protos)
                protos.append(node.prototype)
            else:
                attr[i] = node.test.attr
                h_star[i] = node.h_star
                if node.test.threshold is not None:
                    threshold[i] = node.test.threshold
                else:
                    category[i] = node.test.category
                    is_nominal[i] = True
                child[i, 0] = index[id(node.yes)]
                child[i, 1] = index[id(node.no)]
        leaf_proto = (np.vstack(protos) if protos
                      else np.empty((0, n_attrs)))
        return cls(attr, threshold, category, is_nominal, child, n_reached,
                   h_star, leaf_slot, leaf_proto)

    def route(self, X: np.ndarray) -> np.ndarray:
        """Node id of the leaf reached by each row of X."""
        cur = np.zeros(len(X), dtype=np.intp)
        while True:
            live = np.flatnonzero(self.attr[cur] >= 0)
            if live.size == 0:
                return cur
            node = cur[live]
            v = X[live, self.attr[node]]
            yes = np.where(self.is_nominal[node], v == self.category[node],
                           v <= self.threshold[node])
            cur[live] = self.child[node, np.where(yes, 0, 1)]

    def predictions(self, X: np.ndarray) -> np.ndarray:
        """Leaf prototype for each row of X."""
        return self.leaf_proto[self.leaf_slot[self.route(X)]]
