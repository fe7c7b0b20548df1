"""Exact-arithmetic references for the package's reported numbers.

Each check recomputes a number with ``fractions.Fraction`` over the same
float inputs the package reads, so the reference carries no rounding at
all, and asserts the package's float result within a bound derived in the
check's docstring (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, chapters 3 and 4), or equal to it where the float
arithmetic is exact. The tables are the hostile ones: the planted table,
numeric columns at a large offset with a tiny spread, and a column that
alternates +-1e160, whose variance overflows.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracles
from ufrank import (Dataset, EnsembleConfig, Numeric, SynthSpec, build,
                    genie3, make_planted, symbolic)
from ufrank.forest import ENSEMBLES

U = Fraction(1, 2 ** 53)  # unit roundoff of float64

TABLES = ["planted", "offset", "overflow"]


def table(name):
    """The planted 200 x 50 table; a 40 x 6 mixed table whose numeric
    columns sit at 1e8 with a 1e-3 spread; or 12 rows whose column a
    alternates +-1e160 beside two N(0, 1) columns."""
    rng = np.random.default_rng(61)
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
