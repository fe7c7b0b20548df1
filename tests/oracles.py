"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles with elementary
numpy, sharing no arithmetic helpers with the package: split quality via
the literal weighted-impurity difference, URelief via an explicit loop
over all (reference, neighbor) pairs, nearest neighbors via a plain scan,
tree routing via a walk from the root along child links that
ref_children parses from the preorder node list alone.
Agreement between these and the package is the point of the tests that
import them.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ufrank import Dataset, FlatTree, Nominal, Numeric, streams


def ref_denominators(d, train_rows):
    """Per-attribute normalizers over the training rows: population variance
    (numeric) or Gini (nominal)."""
    sub = d.X[np.asarray(train_rows, dtype=np.intp)]
    dens = np.empty(d.n)
    for j, kind in enumerate(d.kinds):
        col = sub[:, j]
        if isinstance(kind, Nominal):
            _, counts = np.unique(col, return_counts=True)
            p = counts / col.size
            dens[j] = 1.0 - float(p @ p)
        else:
            mu = float(np.mean(col))
            dens[j] = float(np.mean((col - mu) ** 2))
    return dens


def ref_impurity(d, rows, dens):
    """Mean over attributes of the normalized per-attribute impurity of the
    row multiset; zero-denominator attributes contribute 0."""
    sub = d.X[np.asarray(rows, dtype=np.intp)]
    terms = []
    for j, kind in enumerate(d.kinds):
        if dens[j] == 0.0:
            terms.append(0.0)
            continue
        col = sub[:, j]
        if isinstance(kind, Nominal):
            _, counts = np.unique(col, return_counts=True)
            p = counts / col.size
            terms.append((1.0 - float(p @ p)) / dens[j])
        else:
            mu = float(np.mean(col))
            terms.append(float(np.mean((col - mu) ** 2)) / dens[j])
    return float(np.mean(terms))


def ref_h(d, rows, yes_mask, dens):
    """Weighted impurity reduction of the partition induced by yes_mask."""
    rows = np.asarray(rows, dtype=np.intp)
    yes = rows[yes_mask]
    no = rows[~yes_mask]
    return (rows.size * ref_impurity(d, rows, dens)
            - yes.size * ref_impurity(d, yes, dens)
            - no.size * ref_impurity(d, no, dens))


def _candidate_splits_all(d, rows, attr, dens):
    """All (descriptor, yes_mask) candidates of one attribute under the
    exhaustive policy: every midpoint between consecutive distinct sorted
    values (numeric, ascending) or every present category (nominal,
    ascending code)."""
    col = d.X[np.asarray(rows, dtype=np.intp), attr]
    out = []
    if isinstance(d.kinds[attr], Nominal):
        present = np.unique(col)
        if present.size >= 2:
            for cat in present:
                out.append((("category", float(cat)), col == cat))
    else:
        distinct = np.unique(col)
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            thr = lo + (hi - lo) / 2.0
            if thr >= hi:  # adjacent floats: keep the scored partition
                thr = lo
            out.append((("threshold", float(thr)), col <= thr))
    return out


def ref_candidates_all(d, rows, dens, attr_order):
    """Every valid exhaustive-policy candidate in enumeration order:
    a list of (attr, ("threshold"|"category", value), h, yes_mask)."""
    rows = np.asarray(rows, dtype=np.intp)
    out = []
    for attr in attr_order:
        attr = int(attr)
        if dens[attr] == 0.0:
            continue
        for descriptor, mask in _candidate_splits_all(d, rows, attr, dens):
            if not mask.any() or mask.all():
                continue
            out.append((attr, descriptor, ref_h(d, rows, mask, dens), mask))
    return out


def ref_candidates_one_random(d, rows, dens, policy_size, rng):
    """Replay of the one-random-threshold draws of a lone node: n uniform
    keys, whose ascending order is the sampled attribute order (the first
    k = min(policy_size, n) are the candidates), then k uniforms, one per
    candidate in sampled order. A numeric candidate with range [lo, hi]
    over the rows tests x <= lo + (hi - lo) * u and is valid when that lies
    strictly inside (lo, hi); a nominal one tests x == present[floor(u *
    len(present))] over its present codes in ascending order and is valid
    with two or more present. Valid candidates come back in sampled order
    with quality judged by ref_h."""
    rows = np.asarray(rows, dtype=np.intp)
    k = min(policy_size, d.n)
    keys = rng.random((1, d.n))[0]
    draws = rng.random((1, k))[0]
    cand = sorted(range(d.n), key=lambda a: (keys[a], a))[:k]
    out = []
    for attr, u in zip(cand, draws):
        col = d.X[rows, attr]
        if isinstance(d.kinds[attr], Nominal):
            present = sorted(set(col.tolist()))
            if len(present) < 2:
                continue
            cat = present[int(np.floor(u * len(present)))]
            descriptor, mask = ("category", float(cat)), col == cat
        else:
            lo, hi = float(col.min()), float(col.max())
            theta = lo + (hi - lo) * u
            if not lo < theta < hi:
                continue
            descriptor, mask = ("threshold", float(theta)), col <= theta
        out.append((attr, descriptor, ref_h(d, rows, mask, dens), mask))
    return out


def ref_tie_set(candidates, rel=1e-9):
    """Max h over the candidate list and, in enumeration order, every
    candidate within relative ``rel`` of it. Distinct tests can have exactly
    equal h (they induce the same partition, possibly with sides swapped);
    float noise then separates them by sub-ulp amounts that differ between
    implementations, so agreement is judged on this set, not on one winner."""
    if not candidates:
        return 0.0, []
    hmax = max(c[2] for c in candidates)
    if hmax <= 0.0:
        return hmax, []
    tol = rel * max(1.0, hmax)
    return hmax, [c for c in candidates if c[2] >= hmax - tol]


def ref_urelief_weights(d):
    """URelief with K = m-1 and I = m by literal enumeration: every row is a
    reference once and every other row is one of its neighbors, so the three
    accumulators are plain sums over all ordered pairs."""
    m, n = d.m, d.n
    X = d.X
    nominal = np.array([isinstance(k, Nominal) for k in d.kinds])
    ranges = X.max(axis=0) - X.min(axis=0)

    def d_attr(i, a, b):
        if nominal[i]:
            return 1.0 if X[a, i] != X[b, i] else 0.0
        if ranges[i] == 0.0:
            return 0.0
        return abs(X[a, i] - X[b, i]) / ranges[i]

    sum_dc = 0.0
    sum_da = np.zeros(n)
    sum_joint = np.zeros(n)
    for r in range(m):
        for o in range(m):
            if o == r:
                continue
            di = np.array([d_attr(i, r, o) for i in range(n)])
            dx = float(di.mean())
            sum_dc += dx
            sum_da += di
            sum_joint += di * dx
    scale = 1.0 / (m * (m - 1))
    p_dc = sum_dc * scale
    p_da = sum_da * scale
    p_joint = sum_joint * scale
    if p_dc == 0.0 and not p_da.any() and not p_joint.any():
        return np.zeros(n)
    p_dc = min(max(p_dc, 1e-12), 1.0 - 1e-12)
    return p_joint / p_dc - (p_da - p_joint) / (1.0 - p_dc)


def ref_urelief_contribution(d, r, k):
    """One URelief iteration as first written, for reference row r: the
    distances to every row by masked assignment, the K nearest by a full
    stable argsort (boundary ties to the smaller row index), and the raw
    sums (sum of d_X, per-attribute sum of d_i, per-attribute sum of
    d_i * d_X). Same arithmetic as the package, so results compare with
    ``==``."""
    X = d.X
    num = np.array([not isinstance(kind, Nominal) for kind in d.kinds])
    dm = np.empty((d.m, d.n))
    if num.any():
        rngs = X[:, num].max(axis=0) - X[:, num].min(axis=0)
        diff = np.abs(X[:, num] - X[r, num])
        dm[:, num] = np.divide(diff, rngs, out=np.zeros_like(diff),
                               where=rngs > 0)
    if not num.all():
        dm[:, ~num] = (X[:, ~num] != X[r, ~num]).astype(np.float64)
    dx = dm.mean(axis=1)
    keyed = dx.copy()
    keyed[r] = np.inf
    nearest = np.argsort(keyed, kind="stable")[:k]
    dx_nb = dx[nearest]
    dm_nb = dm[nearest]
    return float(dx_nb.sum()), dm_nb.sum(axis=0), dm_nb.T @ dx_nb


def ref_kmeans_labels(X, centers):
    """Lloyd assignment by plain scan: for each row, the center with the
    smallest squared Euclidean distance summed attribute by attribute, ties
    to the lowest center id."""
    labels = np.empty(len(X), dtype=np.intp)
    for i, x in enumerate(X):
        best, best_d2 = -1, np.inf
        for c, center in enumerate(centers):
            d2 = 0.0
            for a, b in zip(x, center):
                d2 += (float(a) - float(b)) ** 2
            if d2 < best_d2:
                best, best_d2 = c, d2
        labels[i] = best
    return labels


def ref_lloyd(X, centers, tol):
    """Lloyd iterations from ``centers`` by plain scan (ref_kmeans_labels),
    for a start that empties no cluster. Stops when the labels repeat or
    when the inertia changes by at most ``tol`` relative to the previous
    one. Returns the labels, the updated centers, the inertia and the rule
    that stopped: "repeat" or "tolerance"."""
    centers = np.array(centers, dtype=np.float64)
    labels = inertia = None
    while True:
        new_labels = ref_kmeans_labels(X, centers)
        new_inertia = 0.0
        for x, c in zip(X, new_labels):
            for a, b in zip(x, centers[c]):
                new_inertia += (float(a) - float(b)) ** 2
        for c in range(len(centers)):
            members = new_labels == c
            assert members.any(), "the start empties a cluster"
            centers[c] = X[members].mean(axis=0)
        if labels is not None:
            if (new_labels == labels).all():
                return new_labels, centers, new_inertia, "repeat"
            if abs(inertia - new_inertia) <= tol * inertia:
                return new_labels, centers, new_inertia, "tolerance"
        labels, inertia = new_labels, new_inertia


def ref_nearest_target(d, train_rows, query, attrs):
    """1NN by plain scan: squared Euclidean over the selected attributes,
    distance ties to the smallest training row index."""
    best_row = None
    best_d2 = np.inf
    for r in sorted(int(t) for t in train_rows):
        delta = d.X[r, attrs] - query[attrs]
        d2 = float((delta * delta).sum())
        if d2 < best_d2:
            best_d2 = d2
            best_row = r
    return float(d.target[best_row])


def random_mixed_dataset(rng, m, n, force_num=None, min_nominal_arity=3):
    """Small random dataset mixing numeric and nominal columns. Nominal
    columns are redrawn until at least ``min_nominal_arity`` categories are
    present, which keeps reference/package tie behavior aligned (two present
    categories would induce one identical partition twice)."""
    kinds = []
    cols = []
    for j in range(n):
        numeric = force_num if force_num is not None else bool(rng.integers(2))
        if numeric:
            kinds.append(Numeric())
            cols.append(rng.uniform(-5.0, 5.0, size=m))
        else:
            size = int(rng.integers(min_nominal_arity, 5))
            while True:
                codes = rng.integers(0, size, size=m).astype(np.float64)
                if np.unique(codes).size >= min(min_nominal_arity, m):
                    break
            kinds.append(Nominal(tuple(f"v{v}" for v in range(size))))
            cols.append(codes)
    X = np.column_stack(cols)
    names = tuple(f"a{j}" for j in range(n))
    return Dataset(f"random_{m}x{n}", names, tuple(kinds), X)


def flat_leaf(n_reached):
    """Hand-made one-node tree: a lone leaf."""
    return FlatTree(attr=np.array([-1], dtype=np.intp),
                    value=np.array([np.nan]),
                    skip=np.array([0], dtype=np.intp),
                    n_reached=np.array([n_reached], dtype=np.intp),
                    h_star=np.array([0.0]),
                    node_start=np.array([0, 1], dtype=np.intp))


def flat_stump(attr, threshold, h_star, yes_n, no_n):
    """Hand-made three-node tree: the root tests attribute ``attr`` against
    ``threshold`` (x <= threshold on a numeric attribute, x == threshold on
    a nominal one); its yes and no leaves are reached by yes_n and no_n
    rows."""
    return FlatTree(attr=np.array([attr, -1, -1], dtype=np.intp),
                    value=np.array([threshold, np.nan, np.nan]),
                    skip=np.array([2, 0, 0], dtype=np.intp),
                    n_reached=np.array([yes_n + no_n, yes_n, no_n], dtype=np.intp),
                    h_star=np.array([h_star, 0.0, 0.0]),
                    node_start=np.array([0, 3], dtype=np.intp))


def flat_fingerprint(flat):
    """(field, dtype, shape, bytes) of every FlatTree array. Two trees have
    equal fingerprints exactly when all their arrays are equal element by
    element, NaNs included."""
    out = []
    for f in fields(FlatTree):
        a = np.ascontiguousarray(getattr(flat, f.name))
        out.append((f.name, a.dtype.str, a.shape, a.tobytes()))
    return out


def _goes_yes(d, flat, node, value):
    """Whether a value (or an array of them) takes node's yes branch: the
    test's kind is that of its attribute in ``d``."""
    if not d.numeric_mask[flat.attr[node]]:
        return value == flat.value[node]
    return value <= flat.value[node]


def ref_children(attr):
    """(nodes, 2) (yes, no) node ids of a record, -1 at leaves, parsed from
    its preorder node list and leaf flags (``attr`` < 0) alone, without
    reading the record's links. In preorder, yes first, each node after a
    root is a child of the latest internal node still missing one: its yes
    child if that node has none yet, else its no child. A node that finds
    no such parent is the root of the next tree."""
    out = np.full((len(attr), 2), -1, dtype=np.intp)
    waiting = []  # internal nodes missing a child, latest last
    for node, a in enumerate(attr):
        if waiting:
            parent = waiting[-1]
            if out[parent, 0] < 0:
                out[parent, 0] = node
            else:
                out[parent, 1] = node
                waiting.pop()
        if a >= 0:
            waiting.append(node)
    assert not waiting, "an internal node lacks a child"
    return out


def ref_node_rows(d, flat, rows):
    """Row multiset reaching each node, by recursive descent along the child
    links (ref_children) from the root: entry i holds node i's rows. Every
    node must be reached exactly once."""
    out = [None] * len(flat.attr)
    children = ref_children(flat.attr)

    def walk(node, node_rows):
        assert out[node] is None, f"node {node} reached twice"
        out[node] = node_rows
        attr = int(flat.attr[node])
        if attr < 0:
            return
        mask = _goes_yes(d, flat, node, d.X[node_rows, attr])
        walk(int(children[node, 0]), node_rows[mask])
        walk(int(children[node, 1]), node_rows[~mask])

    walk(0, np.asarray(rows, dtype=np.intp))
    assert all(r is not None for r in out), "a node is unreachable from the root"
    return out


def _leaf_numbers(flat):
    """Each node's leaf number, the leaves counted in node order."""
    return {int(node): l for l, node in enumerate(np.flatnonzero(flat.attr < 0))}


def ref_path_attrs(flat, n):
    """(leaves, n) bool by recursive descent along the child links
    (ref_children) of a one-tree record, its leaves numbered in node order:
    entry (l, i) says whether some internal node on the path from the root
    to leaf l tests attribute i."""
    number = _leaf_numbers(flat)
    children = ref_children(flat.attr)
    out = np.zeros((len(number), n), dtype=bool)

    def walk(node, tested):
        attr = int(flat.attr[node])
        if attr < 0:
            for i in tested:
                out[number[node], i] = True
            return
        for child in children[node]:
            walk(int(child), tested | {attr})

    walk(0, frozenset())
    return out


def ref_first_tests(flat, n):
    """(leaves, n) node ids by recursive descent along the child links
    (ref_children) of a one-tree record, its leaves numbered in node order:
    entry (l, i) is the first node on the path from the root to leaf l that
    tests attribute i, or -1 where none does."""
    number = _leaf_numbers(flat)
    children = ref_children(flat.attr)
    out = np.full((len(number), n), -1, dtype=np.intp)

    def walk(node, first):
        attr = int(flat.attr[node])
        if attr < 0:
            for i, at in first.items():
                out[number[node], i] = at
            return
        for child in children[node]:
            walk(int(child), {attr: node, **first})

    walk(0, {})
    return out


def ref_leaf_prototypes(d, flat, bag):
    """(leaves, n) prototypes of a one-tree record grown on the draws
    ``bag``, its leaves in node order. A leaf's rows are the draws that
    reach it (ref_node_rows), in draw order; a numeric column takes their
    mean, summed in draw order, and a nominal one its most frequent code,
    ties to the smallest."""
    node_rows = ref_node_rows(d, flat, bag)
    out = []
    for node in np.flatnonzero(flat.attr < 0):
        sub = d.X[node_rows[node]]
        proto = np.empty(d.n)
        for j, kind in enumerate(d.kinds):
            col = sub[:, j]
            if isinstance(kind, Nominal):
                codes, counts = np.unique(col, return_counts=True)
                proto[j] = codes[np.argmax(counts)]  # codes ascend
            else:
                total = 0.0
                for v in col:  # in draw order, one draw at a time
                    total += v
                proto[j] = total / col.size
        out.append(proto)
    return np.array(out)


def ref_leaf(d, flat, x):
    """Node id of the leaf one example of ``d``'s attributes reaches,
    following the child links (ref_children) of a one-tree record node by
    node."""
    children = ref_children(flat.attr)
    node = 0
    while flat.attr[node] >= 0:
        node = int(children[node, 0 if _goes_yes(d, flat, node,
                                                 x[flat.attr[node]]) else 1])
    return node


def ref_predict(d, flat, protos, x):
    """Prototype of the leaf one example reaches, read from ``protos``
    (ref_leaf_prototypes)."""
    return protos[_leaf_numbers(flat)[ref_leaf(d, flat, x)]]


def permutation_rows(e, t, size):
    """Tree t's out-of-bag shuffles as rf-score documents them: row i of an
    n x ``size`` matrix is attribute i's permutation of 0..size-1, all drawn
    with one call from the (seed, OOB_PERMUTATION, t) stream."""
    return streams.stream(e.config.seed, streams.OOB_PERMUTATION, t).permuted(
        np.tile(np.arange(size), (e.dataset.n, 1)), axis=1)


def oob_terms(e, t, rows, permuted_attr=None, protos=None):
    """Reconstruction error terms of tree t over the given rows, one
    (n,) array per row, computed one example at a time: per attribute,
    (x - prototype)^2 / variance (numeric; 0 when the ensemble's training
    variance is 0) or the 0/1 mismatch (nominal), against the prototype of
    the leaf the example reaches from the root.

    ``permuted_attr`` (an attribute index) first shuffles that column
    among the rows: row r takes the value of row perm[r], where perm is
    row ``permuted_attr`` of the n x |rows| matrix that tree t's stream,
    keyed (ensemble seed, OOB_PERMUTATION, t), draws in one ``permuted``
    call over n copies of 0..|rows|-1.

    The prototypes are ref_leaf_prototypes of the tree's bootstrap draws,
    ``e.in_bags[t]``, or ``protos`` when the caller computed them already.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("error over an empty row set is undefined")
    d, flat = e.dataset, e.flats[t]
    if protos is None:
        protos = ref_leaf_prototypes(d, flat, e.in_bags[t])
    X = d.X[rows].copy()
    if permuted_attr is not None:
        attr = int(permuted_attr)
        perm = permutation_rows(e, t, rows.size)[attr]
        column = X[:, attr].copy()
        for r in range(rows.size):
            X[r, attr] = column[perm[r]]
    variance = d.stats.denominator
    out = []
    for x in X:
        proto = ref_predict(d, flat, protos, x)
        terms = np.zeros(d.n)
        for j, kind in enumerate(d.kinds):
            if isinstance(kind, Nominal):
                terms[j] = 1.0 if x[j] != proto[j] else 0.0
            elif variance[j] > 0:
                delta = x[j] - proto[j]
                # multiply by the inverse, as the package does, so that the
                # rf-score cross-check can demand bit equality
                terms[j] = delta * delta * (1.0 / variance[j])
        out.append(terms)
    return out


def oob_error(e, t, rows, permuted_attr=None, protos=None):
    """Reconstruction error of tree t over the given rows: the mean over
    rows of the mean of each row's oob_terms (same arguments)."""
    return float(np.array([terms.mean() for terms in oob_terms(
        e, t, rows, permuted_attr, protos)]).mean())


def oob_importance(e, t, rows, attr, protos=None):
    """Tree t's rf-score contribution of attribute ``attr`` over the given
    rows, the relative increase (e_t^i - e_t) / e_t of its error when the
    column is shuffled, taken as the sum of the changes: with E and E' the
    rows' oob_terms before and after the shuffle (every row rerouted from
    the root), mean_r sum_j (E'_rj - E_rj) / n / e_t, where e_t is
    oob_error of the unshuffled rows. Each row's changes are summed as one
    (n,) array, the mean over rows as one (|rows|,) array."""
    before = oob_terms(e, t, rows, protos=protos)
    after = oob_terms(e, t, rows, attr, protos)
    growth = np.array([(new - old).sum() for new, old in zip(after, before)])
    e_t = np.array([terms.mean() for terms in before]).mean()
    return float(growth.mean() / e.dataset.n / e_t)
