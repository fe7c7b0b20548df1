"""Exact-arithmetic references for the package's reported numbers.

Each check recomputes a number with ``fractions.Fraction`` over the same
float inputs the package reads, so the reference carries no rounding at
all, and asserts the package's float result within a bound derived in the
check's docstring (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, chapters 3 and 4), or equal to it where the float
arithmetic is exact. The tables are the hostile ones: the planted table,
numeric columns at a large offset with a tiny spread, rows written three
times, and a column that alternates +-1e160, whose variance
overflows.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracles
from ufrank import (Dataset, EnsembleConfig, FoldPlan, Numeric, SynthSpec,
                    UReliefConfig, build, genie3, make_planted, symbolic)
from ufrank.evaluate import _column_mean, _nearest
from ufrank.forest import ENSEMBLES
from ufrank.urelief import _CLAMP, _Kernel, urelief_state

U = Fraction(1, 2 ** 53)  # unit roundoff of float64

TABLES = ["planted", "offset", "overflow"]


def table(name):
    """The planted 200 x 50 table; a 40 x 6 mixed table whose numeric
    columns sit at 1e8 with a 1e-3 spread; its first 12 rows, each written
    three times; or 12 rows whose column a alternates +-1e160 beside two N(0, 1)
    columns."""
    rng = np.random.default_rng(61)
    if name == "duplicates":
        d = table("offset")
        return Dataset(name, d.attr_names, d.kinds, np.tile(d.X[:12], (3, 1)))
    if name == "planted":
        return make_planted(SynthSpec(m=200, n_informative=5, n_noise=45,
                                      clusters=4, separation=6.0,
                                      seed=3)).without_target()
    if name == "offset":
        d = oracles.random_mixed_dataset(rng, 40, 6)
        X = d.X.copy()
        X[:, d.numeric_mask] = 1e8 + 1e-3 * X[:, d.numeric_mask]
        return Dataset(name, d.attr_names, d.kinds, X)
    return Dataset(name, ("a", "b", "c"), (Numeric(),) * 3,
                   np.column_stack([(-1.0) ** np.arange(12) * 1e160,
                                    rng.normal(size=(12, 2))]))


def node_tests(e):
    """Per attribute, the (h*, row count) of every internal node that tests
    it, over all trees, each node met once by descending the tree's bag
    along its child links (oracles.ref_node_rows) and its count recounted
    from the rows that reach it."""
    out = [[] for _ in range(e.dataset.n)]
    for flat, bag in zip(e.flats, e.in_bags):
        for node, rows in enumerate(oracles.ref_node_rows(e.dataset, flat,
                                                          bag)):
            if flat.attr[node] >= 0:
                out[flat.attr[node]].append((flat.h_star[node], rows.size))
    return out


class TestNodeSums:
    """genie3 and symbolic are the forest record's two node-sum readers:
    per attribute, a sum over the tested nodes of all trees, divided by
    the tree count T."""

    @pytest.mark.parametrize("name", TABLES)
    @pytest.mark.parametrize("method", ENSEMBLES)
    def test_symbolic_is_the_exact_mean(self, method, name):
        """Every partial sum of row counts is an integer far below 2^53, so
        each float addition is exact, in any order; the one division by T
        is then correctly rounded, as float() of the exact Fraction is."""
        e = build(table(name), EnsembleConfig(method=method, n_trees=6,
                                              seed=9))
        want = [float(Fraction(sum(count for _, count in nodes), e.n_trees))
                for nodes in node_tests(e)]
        assert symbolic(e).importance.tolist() == want

    @pytest.mark.parametrize("name", TABLES)
    @pytest.mark.parametrize("method", ENSEMBLES)
    def test_genie3_is_within_the_summation_bound(self, method, name):
        """Attribute i's exact value is X = (sum of the N float h* of the
        nodes testing it) / T. Summed in any order, N floats have a float
        sum within gamma_(N-1) times the sum of their magnitudes of the
        exact sum s (Higham, section 4.2, with gamma_k = k u / (1 - k u)),
        so within gamma_(N-1) s, since every h* > 0. The division by T adds
        one factor (1 + d), |d| <= u, and both together stay within gamma_N
        (Higham, Lemma 3.1): the float result lies within gamma_N X of X.
        With N = 0 both are 0."""
        e = build(table(name), EnsembleConfig(method=method, n_trees=6,
                                              seed=9))
        got = genie3(e).importance
        tested = 0
        for g, nodes in zip(got, node_tests(e)):
            h = [Fraction(float(h_star)) for h_star, _ in nodes]
            assert all(x > 0 for x in h)
            exact = sum(h, Fraction(0)) / e.n_trees
            gamma = len(h) * U / (1 - len(h) * U)
            assert abs(Fraction(float(g)) - exact) <= gamma * exact
            tested += bool(h)
        assert tested >= 2


class TestNearestPick:
    """The 1NN pick of ``evaluate._nearest`` against exact squared
    distances, on every fold of a 4-fold plan, over all columns, every
    other column and the numeric columns.

    For training row j and query q over k selected columns, D_j is the
    exact sum of (T[j, a] - q[a])**2, and E_j the float distance by direct
    differences that decides the pick (see _nearest). Each of E_j's k
    terms is one subtraction and one square, each correctly rounded, and
    any summation order adds at most k - 1 roundings to a term; so every
    term carries a factor 1 + theta, |theta| <= g = gamma_(k+2) (Higham,
    Lemma 3.1 and section 4.2), and, the terms being non-negative,
    |E_j - D_j| <= g D_j, provided no term underflows or overflows. The
    pick p has the smallest E, ties to the smallest j, so

        D_p (1 - g) <= E_p <= E_j <= D_j (1 + g)   for every j,

    and E_p < E_j for every j < p. Hence D_p (1 - g) <= D_j (1 + g) for
    every j, strictly for j < p: the pick is within a factor
    (1 + g) / (1 - g) of the exact minimum, and at distance 0 it is the
    first row at distance 0: a query whose two copies are both training
    rows picks the first. No nonzero difference
    here underflows when squared, which the check asserts. On the +-1e160
    column a row of the other sign has D_j >= 4e320, beyond the float
    range, and E_j = inf; each training fold holds rows of both signs, so
    E_p is finite and both inequalities hold for those rows too.
    """

    @pytest.mark.parametrize("name", ["offset", "duplicates", "overflow"])
    def test_pick_is_within_the_direct_difference_bound(self, name):
        d = table(name)
        exact = [[Fraction(float(v)) for v in row] for row in d.X]
        plan = FoldPlan.make(d.m, 4, seed=0)
        selections = [np.arange(d.n), np.arange(0, d.n, 2),
                      np.flatnonzero(d.numeric_mask)]
        zero_picks = 0
        for i in range(plan.n_folds):
            train, test = plan.train_rows(i), plan.test_rows(i)
            T = d.X[train]
            for attrs in selections:
                picks = _nearest(T, d.X[test], _column_mean(T), attrs)
                k = attrs.size
                g = (k + 2) * U / (1 - (k + 2) * U)
                for q, p in zip(test, picks):
                    diff = T[:, attrs] - d.X[q, attrs]
                    assert ((diff == 0) | (np.abs(diff) > 1e-150)).all()
                    dist = [sum((exact[j][a] - exact[q][a]) ** 2
                                for a in attrs) for j in train]
                    low = dist[p] * (1 - g)
                    assert all(dj * (1 + g) > low for dj in dist[:p])
                    assert all(dj * (1 + g) >= low for dj in dist[p:])
                    zero_picks += dist[p] == 0
        if name == "duplicates":
            assert zero_picks > 0


def urelief_table(name):
    """40 x 8: a planted table (3 informative columns, 5 noise), the same
    table shifted by 1e9, or a random mix of numeric and nominal
    columns."""
    if name == "mixed":
        d = oracles.random_mixed_dataset(np.random.default_rng(2), 40, 8)
        assert 0 < d.numeric_mask.sum() < d.n
        return d
    d = make_planted(SynthSpec(m=40, n_informative=3, n_noise=5, clusters=2,
                               separation=6.0, seed=5)).without_target()
    if name == "shifted":
        return Dataset(name, d.attr_names, d.kinds, d.X + 1e9)
    return d


class TestUReliefWeights:
    """URelief's state against exact sums over the same float inputs and
    the neighbours the package picked: each reference's K nearest rows by a
    stable sort of its float d_X over every row, which is the screened pick
    bit for bit (see the urelief module; test_urelief checks it).

    Exactly, D_i = |x_oi - x_ri| / R_i on a numeric column of range
    R_i = max - min > 0, 0 on one of range 0, and [codes differ] on a
    nominal column; D_X is the mean of the n D_i; and, over the I
    references and their K neighbours, P_c, P_a and P_j are the sums of
    D_X, D_i and D_i D_X divided by I K. The weight is W = T1 - T2, with
    T1 = P_j / P_c and T2 = (P_a - P_j) / (1 - P_c), both >= 0.

    With g_k = gamma_k = k u / (1 - k u) (Higham, Lemma 3.1 and section
    4.2): the float d_i has one rounding in the difference, one in the
    range and one in the division, so it is D_i (1 + theta_3); d_X sums n
    of them and divides by n, theta_(n+3); each d_i d_X adds a product,
    theta_(n+7). The sums over K neighbours and then I references add
    theta_(K+I-2), in any order, and the product with the rounded 1/(I K)
    adds theta_2. Every term is non-negative, so with e = g_M,
    M = n + K + I + 7, each of p_c, p_a and p_j is within e of P_c, P_a
    and P_j, relatively.

    The weight subtracts twice, so its bound is absolute. Where
    P_c <= 3/4 and P_j <= 3 P_a / 4 (checked; the clamp then leaves p_c
    as it is), P_a + P_j <= 7 (P_a - P_j) and P_c <= 3 (1 - P_c), so
    fl(p_a - p_j) and fl(1 - p_c) are within 8 e and 4 e of P_a - P_j and
    1 - P_c, relatively (M >= 40 here, and u <= e / 40 covers their own
    rounding). Then
    fl(p_j / p_c) is within 3 e of T1, the second quotient within 13 e
    of T2, and their rounded difference w satisfies

        |w - W| <= 14 e (T1 + T2).
    """

    @pytest.mark.parametrize("name", ["planted", "shifted", "mixed"])
    def test_state_is_within_the_accumulation_bound(self, name):
        d = urelief_table(name)
        cfg = UReliefConfig()
        k, iterations = cfg.resolve(d.m)
        assert iterations == d.m  # so every row is a reference once
        state = urelief_state(d, cfg)

        kernel = _Kernel.make(d)
        X = [[Fraction(float(v)) for v in row] for row in d.X]
        R = [max(col) - min(col) if numeric else None
             for col, numeric in zip(zip(*X), d.numeric_mask)]

        def exact_d(r, o):
            return [Fraction(X[o][i] != X[r][i]) if R[i] is None
                    else abs(X[o][i] - X[r][i]) / R[i] if R[i] else
                    Fraction(0) for i in range(d.n)]

        s_c, s_a, s_j = Fraction(0), [Fraction(0)] * d.n, [Fraction(0)] * d.n
        for r in range(d.m):
            dm, dx = kernel.exact(r, np.arange(d.m))
            # no d_i, hence no d_i d_X, is small enough to underflow
            assert ((dm == 0) | (dm > 1e-150)).all()
            dx[r] = np.inf
            for o in np.argsort(dx, kind="stable")[:k]:
                di = exact_d(r, o)
                dX = sum(di) / d.n
                s_c += dX
                s_a = [a + x for a, x in zip(s_a, di)]
                s_j = [j + x * dX for j, x in zip(s_j, di)]
        scale = Fraction(1, iterations * k)
        p_c = s_c * scale
        p_a = [a * scale for a in s_a]
        p_j = [j * scale for j in s_j]

        terms = d.n + k + iterations + 7  # M
        e = terms * U / (1 - terms * U)
        assert abs(Fraction(state.p_diff_clus) - p_c) <= e * p_c
        for got, want in ((state.p_diff_attr, p_a),
                          (state.p_diff_attr_diff_clus, p_j)):
            for g, x in zip(got.tolist(), want):
                assert abs(Fraction(g) - x) <= e * x

        assert _CLAMP < state.p_diff_clus and p_c <= Fraction(3, 4)
        for a, j, w in zip(p_a, p_j, state.w.tolist()):
            assert 4 * j <= 3 * a
            t1, t2 = j / p_c, (a - j) / (1 - p_c)
            assert abs(Fraction(w) - (t1 - t2)) <= 14 * e * (t1 + t2)
