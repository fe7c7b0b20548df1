import numpy as np
import pytest

import oracles
from oracles import oob_error
from ufrank import (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD, Dataset,
                    EnsembleConfig, Nominal, Numeric, build, compute_stats,
                    genie3, random_forest_score, subset_size, streams)
from ufrank.forest import SUBSET_RULES, Ensemble


class TestSubsetSize:
    def test_reference_values_at_fifty(self):
        assert subset_size("log2", 50) == 6
        assert subset_size("sqrt", 50) == 7
        assert subset_size("all", 50) == 50

    def test_small_n(self):
        for rule in SUBSET_RULES:
            assert subset_size(rule, 1) == 1
        assert subset_size("log2", 2) == 1
        assert subset_size("sqrt", 2) == 1
        assert subset_size("log2", 3) == 2

    def test_never_exceeds_n(self):
        for rule in SUBSET_RULES:
            for n in range(1, 80):
                assert 1 <= subset_size(rule, n) <= n

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="subset rule"):
            subset_size("third", 10)


class TestEnsembleConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="method"):
            EnsembleConfig(method="boosting")
        with pytest.raises(ValueError, match="tree"):
            EnsembleConfig(n_trees=0)
        with pytest.raises(ValueError, match="subset rule"):
            EnsembleConfig(subset_rule="cube")
        with pytest.raises(ValueError, match="seed"):
            EnsembleConfig(seed=-1)

    def test_policy_mapping(self):
        bag = EnsembleConfig(method="bagging").policy(50)
        assert (bag.n_candidates, bag.threshold_mode) == (50, ALL_THRESHOLDS)
        rf = EnsembleConfig(method="rf", subset_rule="sqrt").policy(50)
        assert (rf.n_candidates, rf.threshold_mode) == (7, ALL_THRESHOLDS)
        et = EnsembleConfig(method="et").policy(50)
        assert (et.n_candidates, et.threshold_mode) == (6, ONE_RANDOM_THRESHOLD)

    def test_bagging_ignores_subset_rule(self):
        for rule in SUBSET_RULES:
            assert EnsembleConfig(method="bagging",
                                  subset_rule=rule).policy(9).n_candidates == 9


def small_dataset(seed=0, m=30, n=5):
    return oracles.random_mixed_dataset(np.random.default_rng(seed), m, n)


def ensemble_fingerprint(e):
    return ([oracles.flat_fingerprint(flat) for flat in e.flats],
            [bag.tolist() for bag in e.in_bags],
            [oob.tolist() for oob in e.oobs])


class TestBuild:
    def test_same_seed_same_forest(self):
        d = small_dataset(1)
        cfg = EnsembleConfig(method="et", n_trees=6, seed=11)
        assert ensemble_fingerprint(build(d, cfg)) == \
            ensemble_fingerprint(build(d, cfg))

    def test_different_seeds_differ(self):
        d = small_dataset(2)
        a = build(d, EnsembleConfig(method="rf", n_trees=4, seed=0))
        b = build(d, EnsembleConfig(method="rf", n_trees=4, seed=1))
        assert ensemble_fingerprint(a) != ensemble_fingerprint(b)

    def test_worker_count_never_changes_the_forest(self):
        d = small_dataset(3)
        for method in ("et", "rf", "bagging"):
            cfg = EnsembleConfig(method=method, n_trees=8, seed=5)
            one = build(d, cfg, workers=1)
            two = build(d, cfg, workers=2)
            assert ensemble_fingerprint(one) == ensemble_fingerprint(two)

    def test_bagging_equals_rf_with_all_attributes(self):
        for seed in range(5):
            d = small_dataset(40 + seed, m=24, n=4)
            bag = build(d, EnsembleConfig(method="bagging", n_trees=5, seed=seed))
            rf = build(d, EnsembleConfig(method="rf", subset_rule="all",
                                         n_trees=5, seed=seed))
            assert ensemble_fingerprint(bag) == ensemble_fingerprint(rf)

    def test_bootstrap_shape_and_oob_complement(self):
        d = small_dataset(4, m=25)
        e = build(d, EnsembleConfig(method="rf", n_trees=10, seed=2))
        for bag, oob in zip(e.in_bags, e.oobs):
            assert bag.size == d.m
            assert bag.min() >= 0 and bag.max() < d.m
            np.testing.assert_array_equal(
                oob, np.setdiff1d(np.arange(d.m), bag))

    def test_oob_nonempty_for_usual_sizes(self):
        # with m >= 10 a bootstrap that covers every row is vanishingly rare
        d = small_dataset(5, m=10, n=2)
        for seed in range(20):
            e = build(d, EnsembleConfig(method="et", n_trees=1, seed=seed))
            assert e.oobs[0].size > 0

    def test_tiny_dataset_rejected(self):
        d = Dataset("one", ["a"], [Numeric()], np.array([[1.0]]))
        with pytest.raises(ValueError, match="two examples"):
            build(d, EnsembleConfig())

    def test_target_stripped_before_growth(self):
        d = small_dataset(6)
        with_target = Dataset(d.name, d.attr_names, d.kinds, d.X,
                              target=np.arange(d.m, dtype=np.float64))
        e = build(with_target, EnsembleConfig(method="et", n_trees=2, seed=0))
        assert e.dataset.target is None
        plain = build(d.without_target(),
                      EnsembleConfig(method="et", n_trees=2, seed=0))
        assert ensemble_fingerprint(e) == ensemble_fingerprint(plain)

    def test_trees_are_fully_grown(self):
        # every leaf's rows agree on every attribute with a positive
        # training denominator, otherwise a further split would have h > 0
        d = small_dataset(7, m=20, n=3)
        e = build(d, EnsembleConfig(method="bagging", n_trees=3, seed=9))
        active = e.stats.denominator > 0
        for flat, bag in zip(e.flats, e.in_bags):
            node_rows = oracles.ref_node_rows(d, flat, bag)
            for i in np.flatnonzero(flat.attr < 0):
                sub = d.X[node_rows[i]][:, active]
                assert (sub == sub[0]).all()


def hand_ensemble(d, tree, in_bag, oob, cfg=None):
    """Ensemble wrapper around an explicitly constructed single tree."""
    return Ensemble(cfg or EnsembleConfig(method="rf", n_trees=1, seed=3),
                    d, compute_stats(d), [tree],
                    [np.asarray(in_bag, dtype=np.intp)],
                    [np.asarray(oob, dtype=np.intp)])


class TestOOBError:
    """The oracle that rf-score is cross-checked against, on hand cases."""

    def stump_fixture(self):
        d = Dataset("stump", ["a", "b"], [Numeric(), Numeric()],
                    np.array([[0.0, 1.0], [0.0, 3.0],
                              [10.0, 5.0], [10.0, 7.0]]))
        root = oracles.flat_stump(0, 5.0, 1.0, ([0.0, 2.0], 2), ([10.0, 6.0], 2))
        return d, hand_ensemble(d, root, [1, 1, 2, 2], [0, 3])

    def test_hand_stump_arithmetic(self):
        # var(a) = 25, var(b) = 5; both oob rows miss only on b by 1:
        # per-row error = (0/25 + 1/5) / 2 = 0.1
        d, e = self.stump_fixture()
        assert oob_error(e, 0, e.oobs[0]) == pytest.approx(0.1)
        assert oob_error(e, 0, [0]) == pytest.approx(0.1)
        assert oob_error(e, 0, [0, 0, 3]) == pytest.approx(0.1)

    def test_permutation_uses_the_documented_stream(self):
        d, e = self.stump_fixture()
        rows = e.oobs[0]
        for attr in (0, 1):
            perm = streams.stream(e.config.seed, streams.OOB_PERMUTATION,
                                  0, attr).permutation(rows.size)
            X = d.X[rows].copy()
            X[:, attr] = X[perm, attr]
            pred = e.flats[0].predictions(X)
            scale = np.array([1 / 25.0, 1 / 5.0])
            want = (((X - pred) ** 2) * scale).mean(axis=1).mean()
            assert oob_error(e, 0, rows, permuted_attr=attr) == \
                pytest.approx(want)

    def test_nominal_mismatch_and_constant_numeric(self):
        d = Dataset("mix", ["c", "k"], [Numeric(), Nominal(("u", "v"))],
                    np.array([[5.0, 0.0], [5.0, 1.0],
                              [5.0, 0.0], [5.0, 1.0]]))
        # constant numeric: scale 0; leaf predicts code 0, so rows with
        # code 1 score (0 + 1) / 2 and rows with code 0 score 0
        root = oracles.flat_leaf([5.0, 0.0], 4)
        e = hand_ensemble(d, root, [0, 1, 2, 3], [0, 1])
        assert oob_error(e, 0, [0]) == 0.0
        assert oob_error(e, 0, [1]) == pytest.approx(0.5)
        assert oob_error(e, 0, [0, 1]) == pytest.approx(0.25)

    def test_empty_rows_rejected(self):
        _, e = self.stump_fixture()
        with pytest.raises(ValueError, match="empty"):
            oob_error(e, 0, np.array([], dtype=np.intp))
