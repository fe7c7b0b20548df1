import contextlib
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import flat_leaf, flat_stump, oob_error, oob_importance
from ufrank import (ALL_THRESHOLDS, ComputationError, Dataset, EnsembleConfig,
                    FlatTree, Nominal, Numeric, Ranking, SplitSearchPolicy,
                    build, compute_stats, genie3, grow_tree,
                    random_forest_score, ranking_rows, ranking_to_csv, scores,
                    symbolic)
from ufrank.forest import Ensemble


class TestRanking:
    def test_descending_order_with_index_ties(self):
        r = Ranking("genie3", np.array([1.0, 3.0, 3.0, 0.0]),
                    ("a", "b", "c", "d"))
        np.testing.assert_array_equal(r.order, [1, 2, 0, 3])
        np.testing.assert_array_equal(r.top(2), [1, 2])

    def test_all_tied_orders_by_index(self):
        r = Ranking("genie3", np.zeros(4), ("a", "b", "c", "d"))
        np.testing.assert_array_equal(r.order, [0, 1, 2, 3])

    def test_top_k_bounds(self):
        r = Ranking("genie3", np.array([1.0, 2.0]), ("a", "b"))
        with pytest.raises(ValueError, match="k must be"):
            r.top(0)
        with pytest.raises(ValueError, match="k must be"):
            r.top(3)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="vector"):
            Ranking("genie3", np.zeros((2, 2)), ("a", "b"))
        with pytest.raises(ValueError, match="match"):
            Ranking("genie3", np.zeros(3), ("a", "b"))

    def test_non_finite_importance_raises(self):
        # a NaN or infinite score has no place in the order and would not
        # serialize as JSON
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ComputationError, match="'b' is not finite"):
                Ranking("rf-score", np.array([1.0, bad]), ("a", "b"))


def hand_ensemble(d, trees, in_bags, oobs, seed=3):
    """An ensemble whose forest record joins the given one-tree records."""
    return Ensemble(EnsembleConfig(method="rf", n_trees=len(trees), seed=seed),
                    d, compute_stats(d), FlatTree.concat(trees),
                    [np.asarray(b, dtype=np.intp) for b in in_bags],
                    [np.asarray(o, dtype=np.intp) for o in oobs])


def leaf_numbers(flat):
    """Each node's leaf number in a record, its leaves counted in node
    order; -1 before the first leaf."""
    return np.cumsum(flat.attr < 0) - 1


def node_weight_sums(e, weight_of):
    """Per-attribute totals over the internal nodes of all trees, visited by
    descending each tree's bag along its child links (oracles.ref_children);
    ``weight_of(flat, node, rows)`` sees the node's recomputed rows."""
    total = np.zeros(e.dataset.n)
    for flat, bag in zip(e.flats, e.in_bags):
        for i, rows in enumerate(oracles.ref_node_rows(e.dataset, flat, bag)):
            if flat.attr[i] >= 0:
                total[flat.attr[i]] += weight_of(flat, i, rows)
    return total


class TestGenie3AndSymbolic:
    def test_hand_stump_values(self):
        d = Dataset("s", ["a", "b"], [Numeric(), Numeric()],
                    np.array([[0.0, 1.0], [0.0, 3.0],
                              [10.0, 5.0], [10.0, 7.0]]))
        root = flat_stump(0, 5.0, 2.5, 2, 2)
        e = hand_ensemble(d, [root], [[0, 1, 2, 3]], [[0]])
        np.testing.assert_array_equal(genie3(e).importance, [2.5, 0.0])
        np.testing.assert_array_equal(symbolic(e).importance, [4.0, 0.0])

    def test_averaging_over_trees(self):
        d = Dataset("s", ["a", "b"], [Numeric(), Numeric()],
                    np.array([[0.0, 1.0], [0.0, 3.0],
                              [10.0, 5.0], [10.0, 7.0]]))
        stump = flat_stump(0, 5.0, 2.0, 2, 2)
        lone = flat_leaf(4)
        e = hand_ensemble(d, [stump, lone], [[0, 1, 2, 3]] * 2, [[0], [1]])
        np.testing.assert_array_equal(genie3(e).importance, [1.0, 0.0])
        np.testing.assert_array_equal(symbolic(e).importance, [2.0, 0.0])

    @pytest.mark.parametrize("method", ["et", "rf", "bagging"])
    def test_mass_identity_on_built_ensembles(self, method):
        d = oracles.random_mixed_dataset(np.random.default_rng(31), 40, 8)
        e = build(d, EnsembleConfig(method=method, n_trees=12, seed=13))
        g = genie3(e)
        want = node_weight_sums(e, lambda flat, i, rows: flat.h_star[i])
        np.testing.assert_allclose(g.importance * e.n_trees, want, rtol=1e-9)
        s = symbolic(e)
        # the example count of each node, recounted from the bag
        want = node_weight_sums(e, lambda flat, i, rows: rows.size)
        np.testing.assert_allclose(s.importance * e.n_trees, want, rtol=1e-9)

    def test_constant_attribute_scores_exactly_zero(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(30, 4))
        X[:, 2] = 7.0
        d = Dataset("c", list("abcd"), [Numeric()] * 4, X)
        e = build(d, EnsembleConfig(method="et", n_trees=10, seed=1))
        assert genie3(e).importance[2] == 0.0
        assert symbolic(e).importance[2] == 0.0
        assert random_forest_score(e).importance[2] == 0.0


class TestRandomForestScore:
    # the bootstrap draws that give leaf_fixture's trees their prototypes
    LONE_BAG, PERFECT_BAG = [0, 1], [0, 1, 2, 3]

    def leaf_fixture(self):
        """One informative tree (t=0) plus degenerate companions."""
        d = Dataset("f", ["a", "b"], [Numeric(), Numeric()],
                    np.array([[0.0, 1.0], [0.0, 1.0],
                              [10.0, 2.0], [10.0, 2.0]]))
        # drawn from LONE_BAG, it predicts [0, 1]
        lone = flat_leaf(2)
        # drawn from PERFECT_BAG, its leaves predict [0, 1] and [10, 2]: it
        # reconstructs every example perfectly, so its baseline error is 0
        perfect = flat_stump(0, 5.0, 1.0, 2, 2)
        return d, lone, perfect

    def test_degenerate_trees_skipped_with_reduced_divisor(self):
        d, lone, perfect = self.leaf_fixture()
        lone_bag, perfect_bag = self.LONE_BAG, self.PERFECT_BAG
        alone = random_forest_score(
            hand_ensemble(d, [lone], [lone_bag], [[0, 3]]))
        with_zero_error = random_forest_score(
            hand_ensemble(d, [lone, perfect], [lone_bag, perfect_bag],
                          [[0, 3], [1, 2]]))
        with_empty_oob = random_forest_score(
            hand_ensemble(d, [lone, perfect, lone],
                          [lone_bag, perfect_bag, lone_bag],
                          [[0, 3], [1, 2], []]))
        np.testing.assert_array_equal(alone.importance,
                                      with_zero_error.importance)
        np.testing.assert_array_equal(alone.importance,
                                      with_empty_oob.importance)
        assert alone.provenance["trees_used"] == 1
        assert with_empty_oob.provenance["trees_used"] == 1

    def test_every_tree_degenerate_is_an_error(self):
        d, lone, perfect = self.leaf_fixture()
        e = hand_ensemble(d, [perfect, lone], [self.PERFECT_BAG, self.LONE_BAG],
                          [[0, 3], []])
        with pytest.raises(ComputationError, match="score undefined"):
            random_forest_score(e)

    def test_matches_per_attribute_oob_error_loop(self):
        d = oracles.random_mixed_dataset(np.random.default_rng(17), 25, 5)
        e = build(d, EnsembleConfig(method="rf", n_trees=6, seed=4))
        r = random_forest_score(e)

        contributions = []
        for t in range(e.n_trees):
            oob = e.oobs[t]
            if oob.size == 0:
                continue
            if oob_error(e, t, oob) == 0.0:
                continue
            contributions.append([oob_importance(e, t, oob, i)
                                  for i in range(d.n)])
        want = np.vstack(contributions).sum(axis=0) / len(contributions)
        np.testing.assert_array_equal(r.importance, want)
        assert r.provenance["trees_used"] == len(contributions)


def oracle_rf_score(e):
    """rf-score from the per-row oob_terms walk: per usable tree, the
    relative error increase of every attribute's shuffle, summed from the
    changed terms (oob_importance), averaged."""
    contributions = []
    for t in range(e.n_trees):
        oob = e.oobs[t]
        if oob.size == 0:
            continue
        protos = oracles.ref_leaf_prototypes(e.dataset, e.flats[t],
                                             e.in_bags[t])
        if oob_error(e, t, oob, protos=protos) == 0.0:
            continue
        contributions.append([oob_importance(e, t, oob, i, protos)
                              for i in range(e.dataset.n)])
    return np.vstack(contributions).sum(axis=0) / len(contributions)


def rf_fixture(name):
    """Tables for the rf-score oracle: random mixed ones, one with a
    constant numeric and a constant nominal column, one made of repeated
    rows, one of six distinct rows repeated with a nominal column, one
    whose numeric columns sit at 1e6 with a 1e-3 spread, and wide random
    mixed ones of 13, 29 and 137 columns. Both rf-score and the oracle
    leave a row's sum of terms to numpy, as one contiguous row; the widths
    take each of its layouts: in order below 8 terms, 8 lanes and a tail
    of 5, and halves of 64 and 73 terms."""
    rng = np.random.default_rng({"mixed0": 40, "mixed1": 41, "mixed2": 42,
                                 "constant": 43, "duplicates": 44,
                                 "offset": 45, "dup_nominal": 46,
                                 "wide13": 47, "wide29": 48,
                                 "wide137": 49}[name])
    if name.startswith("mixed"):
        return oracles.random_mixed_dataset(rng, 30, 7)
    if name.startswith("wide"):
        n = int(name[4:])
        return oracles.random_mixed_dataset(rng, 30 if n < 100 else 24, n)
    if name == "constant":
        d = oracles.random_mixed_dataset(rng, 30, 5)
        return Dataset(name, d.attr_names + ("c_num", "c_nom"),
                       d.kinds + (Numeric(), Nominal(("v0", "v1", "v2"))),
                       np.column_stack([d.X, np.full(30, 7.0), np.ones(30)]))
    if name == "duplicates":
        d = oracles.random_mixed_dataset(rng, 15, 6)
        return Dataset(name, d.attr_names, d.kinds,
                       d.X[rng.integers(0, 15, size=40)])
    if name == "dup_nominal":
        # a shuffle mostly trades a value for an equal one, so many rows
        # whose path tests the shuffled attribute keep their leaf
        d = oracles.random_mixed_dataset(rng, 6, 3, force_num=True)
        X = np.column_stack([d.X, np.arange(6) % 3])
        return Dataset(name, d.attr_names + ("k",),
                       d.kinds + (Nominal(("u", "v", "w")),),
                       X[rng.integers(0, 6, size=40)])
    d = oracles.random_mixed_dataset(rng, 30, 6)
    X = d.X.copy()
    X[:, d.numeric_mask] = 1e6 + 1e-3 * X[:, d.numeric_mask]
    return Dataset(name, d.attr_names, d.kinds, X)


class TestPatchedRandomForestScore:
    """rf-score sums the error terms that each shuffle changes; these
    tests hold it, bit for bit, to a recomputation that reroutes every row
    (oracles.oob_importance)."""

    def stump_fixture(self):
        """A stump on attribute 0 whose out-of-bag rows lie on both sides."""
        rng = np.random.default_rng(71)
        X = np.repeat([[0.0, 0.2], [10.0, 0.8]], 6, axis=0)
        X += rng.uniform(size=(12, 2)) * [1.0, 0.1]
        d = Dataset("s", ["a", "b"], [Numeric(), Numeric()], X)
        stump = flat_stump(0, 5.0, 1.0, 6, 6)
        return d, stump, hand_ensemble(d, [stump], [range(12)], [range(12)])

    def shuffled(self, e, attr):
        X = e.dataset.X[e.oobs[0]].copy()
        perm = oracles.permutation_rows(e, 0, len(X))[attr]
        X[:, attr] = X[perm, attr]
        return X

    def test_shuffling_the_tested_attribute_reroutes_rows(self):
        d, stump, e = self.stump_fixture()
        moved = stump.route(self.shuffled(e, 0)) != stump.route(d.X)
        assert moved.any() and not moved.all()
        want = oob_importance(e, 0, e.oobs[0], 0)
        assert random_forest_score(e).importance[0] == want

    def test_shuffling_an_untested_attribute_changes_only_its_term(self):
        d, stump, e = self.stump_fixture()
        X = self.shuffled(e, 1)
        np.testing.assert_array_equal(stump.route(X), stump.route(d.X))
        b = oob_error(e, 0, e.oobs[0])
        shuffled = oob_error(e, 0, e.oobs[0], permuted_attr=1)
        protos = oracles.ref_leaf_prototypes(d, stump, e.in_bags[0])
        proto = np.array([oracles.ref_predict(stump, protos, x)[1] for x in d.X])
        term = lambda col: (col - proto) ** 2 / e.stats.denominator[1]
        np.testing.assert_allclose(
            shuffled - b, (term(X[:, 1]) - term(d.X[:, 1])).mean() / d.n,
            rtol=1e-12)
        assert random_forest_score(e).importance[1] == \
            oob_importance(e, 0, e.oobs[0], 1)

    @pytest.mark.parametrize("fixture", ["mixed0", "mixed1", "mixed2",
                                         "constant", "duplicates", "offset",
                                         "dup_nominal", "wide13", "wide29",
                                         "wide137"])
    @pytest.mark.parametrize("method", ["et", "rf", "bagging"])
    def test_matches_oob_error_oracle(self, method, fixture):
        d = rf_fixture(fixture)
        e = build(d, EnsembleConfig(method=method, n_trees=8, seed=5))
        np.testing.assert_array_equal(random_forest_score(e).importance,
                                      oracle_rf_score(e))

    @pytest.mark.parametrize("method", ["et", "rf", "bagging"])
    def test_duplicates_move_rows_that_keep_their_leaf(self, method):
        """On the duplicate-rows fixture, shuffles move rows down paths that
        test the shuffled attribute, and many of them reach their old leaf
        again: the rows that rf-score reroutes from the first testing node
        and then keeps, which the oracle test above checks."""
        e = build(rf_fixture("dup_nominal"),
                  EnsembleConfig(method=method, n_trees=8, seed=5))
        kept = changed = 0
        for t, flat in enumerate(e.flats):
            X = e.dataset.X[e.oobs[t]]
            before = flat.route(X)
            tested = oracles.ref_path_attrs(flat, e.dataset.n)[
                leaf_numbers(flat)[before]]
            perms = oracles.permutation_rows(e, t, len(X))
            for i in range(e.dataset.n):
                shuffled = X.copy()
                shuffled[:, i] = X[perms[i], i]
                after = flat.route(shuffled)
                # a row whose path does not test i never moves
                assert (after[~tested[:, i]] == before[~tested[:, i]]).all()
                kept += int((after[tested[:, i]] == before[tested[:, i]]).sum())
                changed += int((after != before).sum())
        assert kept > 0 and changed > 0

    def test_batching_of_trees_changes_nothing(self, monkeypatch):
        d = oracles.random_mixed_dataset(np.random.default_rng(61), 40, 7)
        e = build(d, EnsembleConfig(method="et", n_trees=8, seed=6))
        sizes = [o.size for o in e.oobs]
        assert len(set(sizes)) > 2  # so batches join unequal row counts
        whole = random_forest_score(e).importance
        np.testing.assert_array_equal(whole, oracle_rf_score(e))
        real, batches = scores._batch_contributions, []

        def spy(*args):
            batches.append([rows.size for rows in args[-1].oobs])
            return real(*args)

        monkeypatch.setattr(scores, "_batch_contributions", spy)
        # batches of one tree, of three times the smallest tree's cells,
        # and of the first two trees' cells: each cuts at other trees
        k = min(sizes)
        for cells in (1, 3 * k * d.n, (sizes[0] + sizes[1]) * d.n):
            monkeypatch.setattr(scores, "_BATCH_CELLS", cells)
            batches.clear()
            np.testing.assert_array_equal(
                random_forest_score(e).importance, whole)
            assert [s for b in batches for s in b] == sizes
        # the last budget mixes unequal out-of-bag sizes in one batch and
        # batches of unequal tree counts
        assert any(len(set(b)) > 1 for b in batches)
        assert len({len(b) for b in batches}) > 1

    @pytest.mark.parametrize("fixture", ["wide13", "wide137", "dup_nominal"])
    def test_rebuild_step_changes_nothing(self, monkeypatch, fixture):
        """The rows that change leaf get their full rows of terms rebuilt
        _REBUILD_ROWS at a time in reused buffers. One row at a time,
        three at a time (a short last step) and all at once give the
        importances of the default, byte for byte."""
        e = build(rf_fixture(fixture),
                  EnsembleConfig(method="et", n_trees=8, seed=5))
        want = random_forest_score(e).importance.tobytes()
        real, rows = scores._row_errors, []

        def spy(*args, **kwargs):
            rows.append(args[0].shape[1])  # the (n, rows) layout's rows
            return real(*args, **kwargs)

        monkeypatch.setattr(scores, "_row_errors", spy)
        steps = {}
        for step in (1, 3, 10**9):
            monkeypatch.setattr(scores, "_REBUILD_ROWS", step)
            rows.clear()
            assert random_forest_score(e).importance.tobytes() == want
            # one batch: the out-of-bag terms, the shuffled terms, then
            # the rebuild's steps
            steps[step] = rows[2:]
        moved = len(steps[1])
        assert moved > 3 and steps[1] == [1] * moved
        assert steps[3] == [3] * (moved // 3) + [moved % 3] * (moved % 3 > 0)
        assert steps[10**9] == [moved]

    @pytest.mark.parametrize("method", ["et", "rf", "bagging"])
    def test_path_attribute_map_matches_recursive_walk(self, method):
        d = oracles.random_mixed_dataset(np.random.default_rng(81), 40, 8)
        e = build(d, EnsembleConfig(method=method, n_trees=6, seed=2))
        hand = [flat_leaf(1), flat_stump(3, 0.0, 1.0, 1, 1)]
        forest = FlatTree.concat([e.forest] + hand)
        table = forest.first_tests(leaf_numbers(forest), d.n)
        leaf_start = np.append(0, np.cumsum(forest.attr < 0))[forest.node_start]
        assert table.shape == (leaf_start[-1], d.n)
        for t, flat in enumerate(e.flats + hand):
            mine = table[leaf_start[t]:leaf_start[t + 1]]
            np.testing.assert_array_equal(mine >= 0,
                                          oracles.ref_path_attrs(flat, d.n))
            want = oracles.ref_first_tests(flat, d.n)
            np.testing.assert_array_equal(
                mine, np.where(want >= 0, want + forest.node_start[t], -1))


class TestRoundingError:
    """rf-score sums each shuffle's changed terms instead of subtracting
    two nearly equal means. These tests measure its rounding error against
    exact arithmetic and hold it near the literal definition."""

    FIXTURES = ["mixed0", "mixed1", "mixed2", "constant", "duplicates",
                "offset", "dup_nominal", "wide13", "wide29", "wide137"]

    @staticmethod
    def usable_trees(e):
        """(t, out-of-bag rows, prototypes, baseline terms) of each tree
        with out-of-bag rows and a nonzero baseline error."""
        for t, oob in enumerate(e.oobs):
            if oob.size:
                protos = oracles.ref_leaf_prototypes(e.dataset, e.flats[t],
                                                     e.in_bags[t])
                terms = np.array(oracles.oob_terms(e, t, oob, protos=protos))
                if terms.any():
                    yield t, oob, protos, terms

    def exact_rf_score(self, e):
        """rf-score in rational arithmetic over the float terms oob_terms
        gives: tree t's contribution of attribute i is the exact sum of
        (E'_rj - E_rj) over the terms the shuffle changes, divided by the
        exact sum of E (which is |oob| * n * e_t)."""
        contributions = []
        for t, oob, protos, before in self.usable_trees(e):
            total = sum(map(Fraction, before.ravel()))
            row = []
            for i in range(e.dataset.n):
                after = np.array(oracles.oob_terms(e, t, oob, i, protos))
                changed = after != before
                row.append((sum(map(Fraction, after[changed]))
                            - sum(map(Fraction, before[changed]))) / total)
            contributions.append(row)
        return [sum(c) / len(contributions) for c in zip(*contributions)]

    def test_median_error_is_within_64_ulps_of_exact(self):
        """On the 137-attribute fixture, subtracting the two means lost a
        median of 466 ulps per attribute to cancellation."""
        e = build(rf_fixture("wide137"),
                  EnsembleConfig(method="et", n_trees=8, seed=5))
        got = random_forest_score(e).importance
        ulps = [abs(Fraction(float(g)) - x) / Fraction(math.ulp(float(x)))
                for g, x in zip(got, self.exact_rf_score(e))]
        assert np.median([float(u) for u in ulps]) <= 64

    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("method", ["et", "rf", "bagging"])
    def test_near_the_literal_relative_increase(self, method, fixture):
        """(e_t^i - e_t) / e_t from oob_error, the definition as written.
        Summed in any order, a mean of N >= 0 float terms is within
        (N + 1)u of exact, relatively, where u = 2^-53; e_t and e_t^i, row
        means (n terms) averaged over |oob| rows, are within g = (n + |oob|
        + 2)u. A ratio c = (e_t^i - e_t) / e_t formed from them is then
        within about g (e_t^i + e_t) / e_t + g|c| + 2u|c| <= 2(g + u)(1 +
        |c|) of exact, and the mean over T trees adds at most (T + 1)u
        max|c|. Both rf-score and the literal formula lie within that bound
        of the exact value, so they lie within twice of each other; it
        scales with 1 + max|c|, the largest relative increase of any tree,
        since the literal formula's error follows e_t^i + e_t, not c."""
        e = build(rf_fixture(fixture),
                  EnsembleConfig(method=method, n_trees=8, seed=5))
        literal = []
        for t, oob, protos, _ in self.usable_trees(e):
            base = oob_error(e, t, oob, protos=protos)
            literal.append([(oob_error(e, t, oob, i, protos) - base) / base
                            for i in range(e.dataset.n)])
        literal = np.array(literal)
        u = 2.0 ** -53
        g = (e.dataset.n + max(oob.size for oob in e.oobs) + 2) * u
        bound = (2 * (2 * (g + u) + (len(literal) + 1) * u)
                 * (1 + np.abs(literal).max()))
        np.testing.assert_allclose(random_forest_score(e).importance,
                                   literal.sum(axis=0) / len(literal),
                                   rtol=0, atol=bound)


def rebuilt_prototypes(e, monkeypatch):
    """The leaf prototypes that rf-score rebuilds for each tree of ``e``,
    caught from its calls of scores._leaf_prototypes at one worker (one
    call per batch of trees, in tree order, each copied out of the buffer
    that the next batch reuses) and cut per tree."""
    real, calls = scores._leaf_prototypes, []

    def spy(*args):
        proto = real(*args)
        calls.append(proto.copy())
        return proto

    with monkeypatch.context() as patch:
        patch.setattr(scores, "_leaf_prototypes", spy)
        with contextlib.suppress(ComputationError):  # every tree skipped
            random_forest_score(dataclasses.replace(e, workers=1))
    got = np.vstack(calls)
    leaf_start = np.append(0, np.cumsum(e.forest.attr < 0))[e.forest.node_start]
    assert len(got) == leaf_start[-1]
    return [got[a:b] for a, b in zip(leaf_start[:-1], leaf_start[1:])]


def grown_stump_table(values):
    """A one-column numeric table and the tree grown on all its rows."""
    d = Dataset("numeric", ("x0",), (Numeric(),),
                np.array(values, dtype=np.float64)[:, None])
    tree = grow_tree(d, np.arange(d.m), SplitSearchPolicy(1, ALL_THRESHOLDS),
                     compute_stats(d), np.random.default_rng(0))
    return d, tree


class TestLeafPrototypes:
    """rf-score, the one reader of leaf prototypes, rebuilds them from each
    tree's bootstrap draws; they must equal, byte for byte, the oracle's
    prototypes of the draws that reach each leaf."""

    @staticmethod
    def assert_match_oracle(e, monkeypatch):
        got = rebuilt_prototypes(e, monkeypatch)
        for t, flat in enumerate(e.flats):
            want = oracles.ref_leaf_prototypes(e.dataset, flat, e.in_bags[t])
            assert got[t].shape == want.shape
            assert got[t].tobytes() == want.tobytes()

    @pytest.mark.parametrize("table", ["mixed0", "duplicates", "dup_nominal",
                                       "m2"])
    @pytest.mark.parametrize("method", ["et", "rf", "bagging"])
    def test_rebuilt_prototypes_match_the_oracle(self, monkeypatch, method,
                                                 table):
        if table == "m2":
            d = Dataset("two", ("a", "k"), (Numeric(), Nominal(("u", "v"))),
                        np.array([[0.5, 1.0], [2.0, 0.0]]))
        else:
            d = rf_fixture(table)
        e = build(d, EnsembleConfig(method=method, n_trees=8, seed=5))
        if table == "dup_nominal":
            # leaves of nine draws or more: numpy sums all but the first
            # pairwise, which the oracle's order must match
            assert e.forest.n_reached[e.forest.attr < 0].max() >= 9
        self.assert_match_oracle(e, monkeypatch)

    @pytest.mark.parametrize("values, want", [
        ([2.0, 2.0, 2.0], [[2.0]]),  # identical rows make one leaf
        ([0.0, 0.0, 10.0, 10.0], [[0.0], [10.0]]),  # two pairs, a stump
    ])
    def test_grown_hand_tables(self, monkeypatch, values, want):
        d, tree = grown_stump_table(values)
        e = hand_ensemble(d, [tree], [np.arange(d.m)], [[0]])
        got, = rebuilt_prototypes(e, monkeypatch)
        np.testing.assert_array_equal(got, want)
        self.assert_match_oracle(e, monkeypatch)

    def test_each_leaf_sums_its_draws_in_draw_order(self, monkeypatch):
        # 1 + (1e16 - 1e16) is 1, but -1e16 + (1e16 + 1) is 0: the yes
        # leaf's mean tells the order its draws were summed in, while the
        # no leaf's draws come between them
        d = Dataset("order", ("a", "s"), (Numeric(), Numeric()),
                    np.array([[1.0, 0.0], [1e16, 0.0], [-1e16, 0.0],
                              [7.0, 1.0]]))
        stump = flat_stump(1, 0.5, 1.0, 3, 1)
        e = hand_ensemble(d, [stump, stump],
                          [[3, 0, 1, 3, 2], [2, 3, 1, 0]], [[3], [3]])
        got = rebuilt_prototypes(e, monkeypatch)
        np.testing.assert_array_equal(got[0], [[1.0 / 3.0, 0.0], [7.0, 1.0]])
        np.testing.assert_array_equal(got[1], [[0.0, 0.0], [7.0, 1.0]])
        self.assert_match_oracle(e, monkeypatch)

    def test_prediction_matches_leaf_prototype(self, monkeypatch):
        d, tree = grown_stump_table([0.0, 0.0, 10.0, 10.0])
        e = hand_ensemble(d, [tree], [np.arange(4)], [[0]])
        got, = rebuilt_prototypes(e, monkeypatch)
        protos = oracles.ref_leaf_prototypes(d, tree, np.arange(4))
        X = np.array([[1.0], [9.0]])
        predicted = got[leaf_numbers(tree)[tree.route(X)]]
        np.testing.assert_array_equal(predicted, [[0.0], [10.0]])
        for x, row in zip(X, predicted):
            assert row.tobytes() == oracles.ref_predict(tree, protos, x).tobytes()

    def test_nominal_prototype_mode_ties_to_smallest_code(self, monkeypatch):
        d = Dataset("nom", ("c",), (Nominal(("a", "b", "c")),),
                    np.array([[0.0], [1.0], [1.0], [0.0], [2.0]]))
        # codes 0, 1, 1, 0 tie 2-2, and codes 2, 1, 1, 2, 0 tie 1 with 2
        e = hand_ensemble(d, [flat_leaf(4), flat_leaf(5)],
                          [[0, 1, 2, 3], [4, 1, 2, 4, 0]], [[4], [3]])
        got = rebuilt_prototypes(e, monkeypatch)
        assert [p.tolist() for p in got] == [[[0.0]], [[1.0]]]
        self.assert_match_oracle(e, monkeypatch)

    def test_reloaded_record_rebuilds_the_same_prototypes(self, monkeypatch,
                                                          tmp_path):
        # what a saved ensemble needs for rf-score: its record and its
        # bootstrap draws
        d = oracles.random_mixed_dataset(np.random.default_rng(21), 30, 3)
        e = build(d, EnsembleConfig(method="rf", n_trees=3, seed=5))
        path = tmp_path / "forest.npz"
        names = [f.name for f in dataclasses.fields(FlatTree)]
        np.savez(path, *e.in_bags,
                 **{name: getattr(e.forest, name) for name in names})
        with np.load(path, allow_pickle=False) as z:
            back = dataclasses.replace(
                e, forest=FlatTree(**{name: z[name] for name in names}),
                in_bags=[z[f"arr_{t}"] for t in range(e.n_trees)])
        assert [p.tobytes() for p in rebuilt_prototypes(back, monkeypatch)] \
            == [p.tobytes() for p in rebuilt_prototypes(e, monkeypatch)]
        self.assert_match_oracle(back, monkeypatch)
        assert random_forest_score(back).importance.tobytes() == \
            random_forest_score(e).importance.tobytes()


class TestWorkerInvariance:
    """rf-score splits its trees across the pool the ensemble was grown
    with; the worker count must never change a bit of the result."""

    @staticmethod
    def scored(e):
        r = random_forest_score(e)
        return r.importance.tobytes(), r.provenance["trees_used"]

    @pytest.mark.parametrize("method", ["et", "rf", "bagging"])
    def test_bytes_equal_at_one_two_and_three_workers(self, method):
        d = oracles.random_mixed_dataset(np.random.default_rng(91), 30, 6)
        cfg = EnsembleConfig(method=method, n_trees=7, seed=8)
        inline = build(d, cfg)
        assert inline.workers == 1
        want = self.scored(inline)
        np.testing.assert_array_equal(random_forest_score(inline).importance,
                                      oracle_rf_score(inline))
        for workers in (2, 3):
            pooled = build(d, cfg, workers)
            assert pooled.workers == workers
            assert self.scored(pooled) == want
            assert self.scored(dataclasses.replace(pooled, workers=1)) == want

    def test_skipped_trees_in_different_chunks_keep_the_divisor(self):
        d, stump, _ = TestPatchedRandomForestScore().stump_fixture()
        # drawn from row 0 alone, it reconstructs its one out-of-bag row,
        # row 0, exactly: zero baseline error
        exact = flat_leaf(1)
        everything = range(d.m)
        # tree 1 has zero baseline error and tree 2 an empty out-of-bag set;
        # at 2 workers the chunks are trees 0-1 and 2-3, at 3 workers 0-1,
        # 2 and 3
        e = hand_ensemble(d, [stump, exact, stump, stump],
                          [everything, [0], everything, everything],
                          [everything, [0], [], everything])
        inline = self.scored(e)
        assert inline[1] == 2
        want = oracle_rf_score(e)
        # trees 0 and 3 shuffle from their own streams, and the shuffles
        # move the score, so a wrong divisor would show
        assert (want != 0).all()
        assert inline[0] == want.tobytes()
        for workers in (2, 3):
            assert self.scored(dataclasses.replace(e, workers=workers)) == inline

    def test_every_tree_skipped_across_chunks_is_an_error(self):
        fixture = TestRandomForestScore()
        d, lone, perfect = fixture.leaf_fixture()
        e = hand_ensemble(d, [perfect, lone, perfect],
                          [fixture.PERFECT_BAG, fixture.LONE_BAG,
                           fixture.PERFECT_BAG], [[0, 3], [], [1, 2]])
        with pytest.raises(ComputationError, match="score undefined"):
            random_forest_score(dataclasses.replace(e, workers=2))


class TestSerializationOfRankings:
    def built_ranking(self):
        d = oracles.random_mixed_dataset(np.random.default_rng(23), 20, 4)
        e = build(d, EnsembleConfig(method="et", n_trees=5, seed=9))
        return genie3(e)

    def test_provenance_fields(self):
        r = self.built_ranking()
        assert r.provenance["method"] == "genie3"
        assert r.provenance["ensemble"] == "et"
        assert r.provenance["trees"] == 5
        assert r.provenance["seed"] == 9
        assert "subset_rule" in r.provenance and "dataset" in r.provenance

    def test_rows_follow_the_order(self):
        r = self.built_ranking()
        rows = ranking_rows(r)
        assert [row["rank"] for row in rows] == list(range(1, r.n + 1))
        assert [row["index"] for row in rows] == r.order.tolist()
        imps = [row["importance"] for row in rows]
        assert imps == sorted(imps, reverse=True)

    def test_json_round_trip(self):
        # the rank artifact embeds these rows; JSON must carry them exactly
        r = self.built_ranking()
        rows = ranking_rows(r)
        assert json.loads(json.dumps(rows)) == rows

    def test_csv_preserves_floats_exactly(self, tmp_path):
        r = self.built_ranking()
        path = tmp_path / "rank.csv"
        ranking_to_csv(r, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "rank,attribute,importance"
        assert len(lines) == r.n + 1
        for line, row in zip(lines[1:], ranking_rows(r)):
            rank, attribute, importance = line.split(",")
            assert int(rank) == row["rank"]
            assert attribute == row["attribute"]
            assert float(importance) == row["importance"]
