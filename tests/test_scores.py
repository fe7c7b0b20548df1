import json

import numpy as np
import pytest

import oracles
from oracles import flat_leaf, flat_stump, oob_error
from ufrank import (ComputationError, Dataset, EnsembleConfig, Nominal,
                    Numeric, Ranking, build, compute_stats, genie3,
                    random_forest_score, ranking_rows, ranking_to_csv, scores,
                    streams, symbolic)
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
    return Ensemble(EnsembleConfig(method="rf", n_trees=len(trees), seed=seed),
                    d, compute_stats(d), list(trees),
                    [np.asarray(b, dtype=np.intp) for b in in_bags],
                    [np.asarray(o, dtype=np.intp) for o in oobs])


def node_weight_sums(e, weight_of):
    """Per-attribute totals over the internal nodes of all trees, visited by
    descending each tree's bag along its child pointers;
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
        root = flat_stump(0, 5.0, 2.5, ([0.0, 2.0], 2), ([10.0, 6.0], 2))
        e = hand_ensemble(d, [root], [[0, 1, 2, 3]], [[0]])
        np.testing.assert_array_equal(genie3(e).importance, [2.5, 0.0])
        np.testing.assert_array_equal(symbolic(e).importance, [4.0, 0.0])

    def test_averaging_over_trees(self):
        d = Dataset("s", ["a", "b"], [Numeric(), Numeric()],
                    np.array([[0.0, 1.0], [0.0, 3.0],
                              [10.0, 5.0], [10.0, 7.0]]))
        stump = flat_stump(0, 5.0, 2.0, ([0.0, 2.0], 2), ([10.0, 6.0], 2))
        lone = flat_leaf([5.0, 4.0], 4)
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
    def leaf_fixture(self):
        """One informative tree (t=0) plus degenerate companions."""
        d = Dataset("f", ["a", "b"], [Numeric(), Numeric()],
                    np.array([[0.0, 1.0], [0.0, 1.0],
                              [10.0, 2.0], [10.0, 2.0]]))
        lone = flat_leaf([0.0, 1.0], 4)
        # reconstructs every example perfectly, so its baseline error is 0
        perfect = flat_stump(0, 5.0, 1.0, ([0.0, 1.0], 2), ([10.0, 2.0], 2))
        return d, lone, perfect

    def test_degenerate_trees_skipped_with_reduced_divisor(self):
        d, lone, perfect = self.leaf_fixture()
        alone = random_forest_score(
            hand_ensemble(d, [lone], [[0, 1, 2, 3]], [[0, 3]]))
        with_zero_error = random_forest_score(
            hand_ensemble(d, [lone, perfect],
                          [[0, 1, 2, 3]] * 2, [[0, 3], [1, 2]]))
        with_empty_oob = random_forest_score(
            hand_ensemble(d, [lone, perfect, lone],
                          [[0, 1, 2, 3]] * 3, [[0, 3], [1, 2], []]))
        np.testing.assert_array_equal(alone.importance,
                                      with_zero_error.importance)
        np.testing.assert_array_equal(alone.importance,
                                      with_empty_oob.importance)
        assert alone.provenance["trees_used"] == 1
        assert with_empty_oob.provenance["trees_used"] == 1

    def test_every_tree_degenerate_is_an_error(self):
        d, lone, perfect = self.leaf_fixture()
        e = hand_ensemble(d, [perfect, lone], [[0, 1, 2, 3]] * 2, [[0, 3], []])
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
            base = oob_error(e, t, oob)
            if base == 0.0:
                continue
            shuffled = np.array([oob_error(e, t, oob, permuted_attr=i)
                                 for i in range(d.n)])
            contributions.append((shuffled - base) / base)
        want = np.vstack(contributions).sum(axis=0) / len(contributions)
        np.testing.assert_array_equal(r.importance, want)
        assert r.provenance["trees_used"] == len(contributions)


def oracle_rf_score(e):
    """rf-score from the per-row oob_error walk: per usable tree, the
    relative error increase of every attribute's shuffle, averaged."""
    contributions = []
    for t in range(e.n_trees):
        oob = e.oobs[t]
        if oob.size == 0:
            continue
        base = oob_error(e, t, oob)
        if base == 0.0:
            continue
        shuffled = np.array([oob_error(e, t, oob, permuted_attr=i)
                             for i in range(e.dataset.n)])
        contributions.append((shuffled - base) / base)
    return np.vstack(contributions).sum(axis=0) / len(contributions)


def rf_fixture(name):
    """Tables for the rf-score oracle: random mixed ones, one with a
    constant numeric and a constant nominal column, one made of repeated
    rows, and one whose numeric columns sit at 1e6 with a 1e-3 spread."""
    rng = np.random.default_rng({"mixed0": 40, "mixed1": 41, "mixed2": 42,
                                 "constant": 43, "duplicates": 44,
                                 "offset": 45}[name])
    if name.startswith("mixed"):
        return oracles.random_mixed_dataset(rng, 30, 7)
    if name == "constant":
        d = oracles.random_mixed_dataset(rng, 30, 5)
        return Dataset(name, d.attr_names + ("c_num", "c_nom"),
                       d.kinds + (Numeric(), Nominal(("v0", "v1", "v2"))),
                       np.column_stack([d.X, np.full(30, 7.0), np.ones(30)]))
    if name == "duplicates":
        d = oracles.random_mixed_dataset(rng, 15, 6)
        return Dataset(name, d.attr_names, d.kinds,
                       d.X[rng.integers(0, 15, size=40)])
    d = oracles.random_mixed_dataset(rng, 30, 6)
    X = d.X.copy()
    X[:, d.numeric_mask] = 1e6 + 1e-3 * X[:, d.numeric_mask]
    return Dataset(name, d.attr_names, d.kinds, X)


class TestPatchedRandomForestScore:
    """rf-score patches each tree's out-of-bag error matrix per shuffled
    attribute; these tests hold it to the literal recomputation."""

    def stump_fixture(self):
        """A stump on attribute 0 whose out-of-bag rows lie on both sides."""
        rng = np.random.default_rng(71)
        X = np.repeat([[0.0, 0.2], [10.0, 0.8]], 6, axis=0)
        X += rng.uniform(size=(12, 2)) * [1.0, 0.1]
        d = Dataset("s", ["a", "b"], [Numeric(), Numeric()], X)
        stump = flat_stump(0, 5.0, 1.0, ([0.5, 0.25], 6), ([10.5, 0.85], 6))
        return d, stump, hand_ensemble(d, [stump], [range(12)], [range(12)])

    def shuffled(self, e, attr):
        X = e.dataset.X[e.oobs[0]].copy()
        perm = streams.stream(e.config.seed, streams.OOB_PERMUTATION, 0,
                              attr).permutation(len(X))
        X[:, attr] = X[perm, attr]
        return X

    def test_shuffling_the_tested_attribute_reroutes_rows(self):
        d, stump, e = self.stump_fixture()
        moved = stump.route(self.shuffled(e, 0)) != stump.route(d.X)
        assert moved.any() and not moved.all()
        b = oob_error(e, 0, e.oobs[0])
        want = (oob_error(e, 0, e.oobs[0], permuted_attr=0) - b) / b
        assert random_forest_score(e).importance[0] == want

    def test_shuffling_an_untested_attribute_changes_only_its_term(self):
        d, stump, e = self.stump_fixture()
        X = self.shuffled(e, 1)
        np.testing.assert_array_equal(stump.route(X), stump.route(d.X))
        b = oob_error(e, 0, e.oobs[0])
        shuffled = oob_error(e, 0, e.oobs[0], permuted_attr=1)
        proto = stump.predictions(d.X)[:, 1]
        term = lambda col: (col - proto) ** 2 / e.stats.denominator[1]
        np.testing.assert_allclose(
            shuffled - b, (term(X[:, 1]) - term(d.X[:, 1])).mean() / d.n,
            rtol=1e-12)
        assert random_forest_score(e).importance[1] == (shuffled - b) / b

    @pytest.mark.parametrize("fixture", ["mixed0", "mixed1", "mixed2",
                                         "constant", "duplicates", "offset"])
    @pytest.mark.parametrize("method", ["et", "rf", "bagging"])
    def test_matches_oob_error_oracle(self, method, fixture):
        d = rf_fixture(fixture)
        e = build(d, EnsembleConfig(method=method, n_trees=8, seed=5))
        np.testing.assert_array_equal(random_forest_score(e).importance,
                                      oracle_rf_score(e))

    def test_grouping_of_attributes_changes_nothing(self, monkeypatch):
        d = oracles.random_mixed_dataset(np.random.default_rng(61), 40, 7)
        built = build(d, EnsembleConfig(method="et", n_trees=8, seed=6))
        # equal out-of-bag sizes make a budget mean the same group size in
        # every tree
        k = min(o.size for o in built.oobs)
        e = Ensemble(built.config, built.dataset, built.stats, built.flats,
                     built.in_bags, [o[:k] for o in built.oobs])
        assert scores._BLOCK_BUDGET >= k * d.n * d.n  # one group by default
        whole = random_forest_score(e).importance
        np.testing.assert_array_equal(whole, oracle_rf_score(e))
        for per_group in (1, 3):
            monkeypatch.setattr(scores, "_BLOCK_BUDGET", per_group * k * d.n)
            np.testing.assert_array_equal(
                random_forest_score(e).importance, whole)

    @pytest.mark.parametrize("method", ["et", "rf", "bagging"])
    def test_path_attribute_map_matches_recursive_walk(self, method):
        d = oracles.random_mixed_dataset(np.random.default_rng(81), 40, 8)
        e = build(d, EnsembleConfig(method=method, n_trees=6, seed=2))
        hand = [flat_leaf([0.0] * d.n, 1),
                flat_stump(3, 0.0, 1.0, ([0.0] * d.n, 1), ([1.0] * d.n, 1))]
        for flat in e.flats + hand:
            np.testing.assert_array_equal(scores._path_attrs(flat, d.n),
                                          oracles.ref_path_attrs(flat, d.n))


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
