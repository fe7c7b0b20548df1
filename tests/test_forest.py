import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import oob_error
from ufrank import (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD, Dataset,
                    EnsembleConfig, FlatTree, Nominal, Numeric, SynthSpec, build,
                    compute_stats, genie3, grow_tree, make_planted,
                    random_forest_score, subset_size, streams, symbolic)
from ufrank import forest
from ufrank.forest import ENSEMBLES, SUBSET_RULES, Ensemble


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
        """Out-of-bag rows come from a mask over the bag; they equal
        setdiff1d's sorted intp complement, array and dtype, on random
        tables and at m = 2, where a bag may hold both rows (an empty
        out-of-bag set) or one row twice."""
        sizes = set()
        for m, seed in [(25, 2), (200, 3)] + [(2, s) for s in range(8)]:
            d = small_dataset(4, m=m)
            e = build(d, EnsembleConfig(method="rf", n_trees=10, seed=seed))
            for bag, oob in zip(e.in_bags, e.oobs):
                assert bag.size == d.m
                assert bag.min() >= 0 and bag.max() < d.m
                want = np.setdiff1d(np.arange(d.m), bag)
                assert oob.dtype == want.dtype
                np.testing.assert_array_equal(oob, want)
                sizes.add((m, oob.size))
        assert {(2, 0), (2, 1)} <= sizes

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


def stack_tables():
    """(table, tree count) pairs for the stacked-growth checks."""
    rng = np.random.default_rng(71)
    planted = make_planted(SynthSpec(m=200, n_informative=5, n_noise=45,
                                     clusters=4, separation=6.0, seed=3))
    yield planted.without_target(), 4
    # five nominal columns and one numeric
    nom = oracles.random_mixed_dataset(rng, 40, 5, force_num=False)
    yield Dataset("nominal_heavy", nom.attr_names + ("x",),
                  nom.kinds + (Numeric(),),
                  np.column_stack([nom.X, rng.uniform(-1.0, 1.0, 40)])), 5
    dup = oracles.random_mixed_dataset(rng, 15, 4)
    yield Dataset(dup.name, dup.attr_names, dup.kinds,
                  np.vstack([dup.X, dup.X])), 5
    yield Dataset("equal", ("a", "b"), (Numeric(), Nominal(("u", "v"))),
                  np.tile([3.5, 1.0], (10, 1))), 5
    for m in (2, 3):
        yield oracles.random_mixed_dataset(rng, m, 3), 5
    # column a alternates +-1e160: finite values whose squares overflow
    yield Dataset("overflow", ("a", "b", "c"), (Numeric(),) * 3,
                  np.column_stack([(-1.0) ** np.arange(12) * 1e160,
                                   rng.normal(size=(12, 2))])), 5


def grown_alone(d, cfg):
    """ensemble_fingerprint of cfg's ensemble with every tree grown by
    grow_tree on its own: stream (seed, TREE, t) draws the bootstrap, then
    drives that tree's growth."""
    stats, policy = compute_stats(d), cfg.policy(d.n)
    flats, bags = [], []
    for t in range(cfg.n_trees):
        rng = streams.stream(cfg.seed, streams.TREE, t)
        bags.append(rng.integers(0, d.m, size=d.m))
        flats.append(oracles.flat_fingerprint(
            grow_tree(d, bags[-1], policy, stats, rng)))
    return (flats, [bag.tolist() for bag in bags],
            [np.setdiff1d(np.arange(d.m), bag).tolist() for bag in bags])


class TestStackedGrowth:
    """build grows the trees of a chunk together, one search per depth
    level for the whole stack; each tree must be byte for byte the tree
    grown alone from the same stream."""

    @pytest.mark.parametrize("method", ENSEMBLES)
    def test_stacked_trees_equal_trees_grown_alone(self, monkeypatch, method):
        stacks = []
        grow_stack = forest._grow_stack

        def spy(d, ws, policy, bags, rngs):
            stacks.append(len(bags))
            return grow_stack(d, ws, policy, bags, rngs)

        for d, n_trees in stack_tables():
            cfg = EnsembleConfig(method=method, n_trees=n_trees, seed=13)
            want = grown_alone(d, cfg)
            for size in (1, 3, n_trees):
                # exactly ``size`` bootstraps of m rows fit one stack
                monkeypatch.setattr(forest, "_STACK_ROWS", size * d.m)
                monkeypatch.setattr(forest, "_grow_stack", spy)
                stacks.clear()
                assert ensemble_fingerprint(build(d, cfg)) == want
                assert stacks == [min(size, n_trees - s)
                                  for s in range(0, n_trees, size)]
                monkeypatch.undo()
            for workers in (2, 3):
                assert ensemble_fingerprint(build(d, cfg, workers)) == want


def nominal_table():
    """24 rows: two numeric columns and a nominal one with four codes."""
    rng = np.random.default_rng(33)
    d = oracles.random_mixed_dataset(rng, 24, 2, force_num=True)
    return Dataset("nominal", d.attr_names + ("k",),
                   d.kinds + (Nominal(("u", "v", "w", "z")),),
                   np.column_stack([d.X, rng.integers(0, 4, size=24)]))


RECORD_CASES = [*ENSEMBLES, "hand", *(f"m2-{m}" for m in ENSEMBLES)]


def record_ensemble(name):
    """An ensemble whose forest-wide route is checked: et, rf or bagging on
    a table with a nominal column; "hand", a hand-built ensemble of a
    root-only tree, a stump and a stump with an empty out-of-bag set; or
    "m2-" and a method, on an m=2 table."""
    d = nominal_table()
    if name in ENSEMBLES:
        return build(d, EnsembleConfig(method=name, n_trees=5, seed=21))
    if name == "hand":
        stump = oracles.flat_stump(2, 1.0, 1.0, 12, 12)
        by_code = oracles.flat_stump(2, 3.0, 2.0, 12, 12)
        by_code.is_nominal[0] = True  # tests k == code 3
        return Ensemble(EnsembleConfig(method="rf", n_trees=3, seed=4), d,
                        compute_stats(d),
                        FlatTree.concat([oracles.flat_leaf(24), stump, by_code]),
                        [np.arange(24)] * 3,
                        [np.arange(0, 24, 2), np.arange(1, 24, 3),
                         np.array([], dtype=np.intp)])
    two = Dataset("two", ("a", "b"), (Numeric(), Numeric()),
                  np.array([[0.0, 1.0], [2.0, 5.0]]))
    return build(two, EnsembleConfig(method=name[3:], n_trees=4, seed=6))


class TestForestRecord:
    """The ensemble keeps one forest record; one walk routes rows through
    all of its trees, each row from its own tree's root."""

    @pytest.mark.parametrize("name", RECORD_CASES)
    def test_forest_wide_route_matches_oracle_row_by_row(self, name):
        e = record_ensemble(name)
        f, d = e.forest, e.dataset
        views = e.flats
        assert f.n_trees == e.n_trees == len(views)
        assert oracles.flat_fingerprint(FlatTree.concat(views)) == \
            oracles.flat_fingerprint(f)
        # every tree's out-of-bag rows, as rf-score routes them, then every
        # row through every tree
        for tree_of, rows in (
                (np.repeat(np.arange(e.n_trees), [o.size for o in e.oobs]),
                 np.concatenate(e.oobs)),
                (np.repeat(np.arange(e.n_trees), d.m),
                 np.tile(np.arange(d.m), e.n_trees))):
            leaf = f.route(d.X[rows], f.node_start[tree_of])
            np.testing.assert_array_equal(
                leaf, f.route(d.X, f.node_start[tree_of], rows))
            assert (f.node_start[tree_of] <= leaf).all()
            assert (leaf < f.node_start[tree_of + 1]).all()
            assert (f.attr[leaf] < 0).all()
            for t, row, at in zip(tree_of, rows, leaf):
                assert at == f.node_start[t] + oracles.ref_leaf(views[t],
                                                                d.X[row])

    @pytest.mark.parametrize("name", RECORD_CASES)
    def test_swapped_values_route_as_the_changed_row(self, name):
        e = record_ensemble(name)
        f, d, views = e.forest, e.dataset, e.flats
        rng = np.random.default_rng(5)
        tree_of = np.repeat(np.arange(e.n_trees), d.m)
        rows = np.tile(np.arange(d.m), e.n_trees)
        attrs = rng.integers(0, d.n, size=rows.size)
        values = d.X[rng.integers(0, d.m, size=rows.size), attrs]
        leaf = f.route(d.X, f.node_start[tree_of], rows, (attrs, values))
        for t, row, a, v, at in zip(tree_of, rows, attrs, values, leaf):
            x = d.X[row].copy()
            x[a] = v
            assert at == f.node_start[t] + oracles.ref_leaf(views[t], x)


    @pytest.mark.parametrize("name", RECORD_CASES)
    def test_slices_are_views_and_their_joins_are_the_record(self, name):
        # the links are relative, so cutting trees out shifts no id: every
        # node array of a slice is a view of the record's
        e = record_ensemble(name)
        f, T = e.forest, e.n_trees
        want = oracles.flat_fingerprint(f)
        for part in e.flats + [f.trees(0, T), f.trees(1, T)]:
            for a in fields(FlatTree):
                if a.name != "node_start":
                    assert np.shares_memory(getattr(part, a.name),
                                            getattr(f, a.name)), a.name
        # every set of cut points between the trees
        for mask in range(2 ** (T - 1)):
            cuts = [0, *(c for c in range(1, T) if mask >> (c - 1) & 1), T]
            parts = [f.trees(a, b) for a, b in zip(cuts, cuts[1:])]
            assert oracles.flat_fingerprint(FlatTree.concat(parts)) == want


LINK_TABLES = ["planted", "nominal_heavy", "ids", "m2"]


def link_table(name):
    """A table for the link checks: the planted 200 x 50 table; five
    nominal columns and one numeric; one ID-like nominal column, a code
    per row, on which every split cuts off one row, so each tree is a
    chain hundreds of nodes deep; or an m = 2 table."""
    rng = np.random.default_rng(91)
    if name == "planted":
        return make_planted(SynthSpec(m=200, n_informative=5, n_noise=45,
                                      clusters=4, separation=6.0,
                                      seed=3)).without_target()
    if name == "nominal_heavy":
        nom = oracles.random_mixed_dataset(rng, 60, 5, force_num=False)
        return Dataset("nominal_heavy", nom.attr_names + ("x",),
                       nom.kinds + (Numeric(),),
                       np.column_stack([nom.X, rng.uniform(-1.0, 1.0, 60)]))
    if name == "ids":
        return Dataset("ids", ("id",),
                       (Nominal(tuple(f"r{i}" for i in range(400))),),
                       np.arange(400.0)[:, None])
    return Dataset("two", ("a", "b"), (Numeric(), Nominal(("u", "v"))),
                   np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestRelativeLinks:
    """The record stores one link per node, relative to the node: node v's
    yes child is v + 1 and its no child v + skip[v]. oracles.ref_children
    parses the links from the preorder node list alone."""

    @pytest.mark.parametrize("name", LINK_TABLES)
    @pytest.mark.parametrize("method", ENSEMBLES)
    def test_links_match_the_preorder_parse(self, method, name):
        d = link_table(name)
        e = build(d, EnsembleConfig(method=method, n_trees=3, seed=7))
        f = e.forest
        want = oracles.ref_children(f.attr)
        np.testing.assert_array_equal(f.child, want)
        inner = np.flatnonzero(f.attr >= 0)
        np.testing.assert_array_equal(f.skip[inner], want[inner, 1] - inner)
        np.testing.assert_array_equal(np.delete(f.skip, inner), 0)
        depth = np.zeros(f.attr.size, dtype=np.intp)
        for v in inner:
            depth[want[v]] = depth[v] + 1
        if name == "ids":
            assert depth.max() >= 200
        # each tree's rows reach the leaves the oracle walk sends them to
        rows = np.arange(d.m)
        for t, flat in enumerate(e.flats):
            np.testing.assert_array_equal(flat.child,
                                          oracles.ref_children(flat.attr))
            node_rows = oracles.ref_node_rows(d, flat, rows)
            leaf = np.empty(d.m, dtype=np.intp)
            for node in np.flatnonzero(flat.attr < 0):
                leaf[node_rows[node]] = node
            np.testing.assert_array_equal(
                f.route(d.X, np.full(d.m, f.node_start[t])),
                f.node_start[t] + leaf)


class TestRecordSize:
    def test_bytes_per_node_do_not_grow_with_the_attribute_count(self):
        # a record of node tests and counts; leaf predictions, n values
        # per leaf, are rebuilt by rf-score instead of kept
        per_node = []
        for n_noise in (45, 495):
            d = make_planted(SynthSpec(m=60, n_informative=5, n_noise=n_noise,
                                       clusters=4, separation=6.0, seed=3))
            f = build(d, EnsembleConfig(method="et", n_trees=5, seed=1)).forest
            per_node.append(sum(getattr(f, a.name).nbytes
                                for a in fields(FlatTree)) / f.attr.size)
        assert per_node[1] <= 1.01 * per_node[0]


class TestTreePrefixes:
    """Tree t draws only from its own streams, so the first T trees of a
    larger ensemble are the T-tree ensemble, and every score of that
    prefix is the T-tree ensemble's."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ENSEMBLES)
    def test_first_trees_are_the_smaller_ensemble(self, method, workers):
        d = nominal_table()
        big = build(d, EnsembleConfig(method=method, n_trees=40, seed=17),
                    workers)
        for T in (1, 7, 25):
            cfg = EnsembleConfig(method=method, n_trees=T, seed=17)
            fresh = build(d, cfg, workers)
            cut = Ensemble(cfg, big.dataset, big.stats, big.forest.trees(0, T),
                           big.in_bags[:T], big.oobs[:T], workers)
            assert oracles.flat_fingerprint(cut.forest) == \
                oracles.flat_fingerprint(fresh.forest)
            assert ensemble_fingerprint(cut) == ensemble_fingerprint(fresh)
            for score in (genie3, symbolic, random_forest_score):
                assert score(cut).importance.tobytes() == \
                    score(fresh).importance.tobytes()


def hand_ensemble(d, tree, in_bag, oob, cfg=None):
    """Ensemble wrapper around an explicitly constructed one-tree record."""
    return Ensemble(cfg or EnsembleConfig(method="rf", n_trees=1, seed=3),
                    d, compute_stats(d), tree,
                    [np.asarray(in_bag, dtype=np.intp)],
                    [np.asarray(oob, dtype=np.intp)])


class TestOOBError:
    """The oracle that rf-score is cross-checked against, on hand cases."""

    def stump_fixture(self):
        d = Dataset("stump", ["a", "b"], [Numeric(), Numeric()],
                    np.array([[0.0, 1.0], [0.0, 3.0],
                              [10.0, 5.0], [10.0, 7.0]]))
        # drawn from rows 0-3, the leaves predict [0, 2] and [10, 6]
        root = oracles.flat_stump(0, 5.0, 1.0, 2, 2)
        return d, hand_ensemble(d, root, [0, 1, 2, 3], [0, 3])

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
        # one stream for the tree; row attr of its n x |oob| draw
        perms = streams.stream(e.config.seed, streams.OOB_PERMUTATION,
                               0).permuted(np.tile(np.arange(rows.size),
                                                   (d.n, 1)), axis=1)
        for attr in (0, 1):
            perm = perms[attr]
            X = d.X[rows].copy()
            X[:, attr] = X[perm, attr]
            pred = np.where(X[:, :1] <= 5.0, [0.0, 2.0], [10.0, 6.0])
            scale = np.array([1 / 25.0, 1 / 5.0])
            want = (((X - pred) ** 2) * scale).mean(axis=1).mean()
            assert oob_error(e, 0, rows, permuted_attr=attr) == \
                pytest.approx(want)

    def test_nominal_mismatch_and_constant_numeric(self):
        d = Dataset("mix", ["c", "k"], [Numeric(), Nominal(("u", "v"))],
                    np.array([[5.0, 0.0], [5.0, 1.0],
                              [5.0, 0.0], [5.0, 1.0]]))
        # drawn from all four rows, the leaf predicts 5 and, of two codes
        # drawn twice each, the smaller, 0. Constant numeric: scale 0; so
        # rows with code 1 score (0 + 1) / 2 and rows with code 0 score 0
        root = oracles.flat_leaf(4)
        e = hand_ensemble(d, root, [0, 1, 2, 3], [0, 1])
        assert oob_error(e, 0, [0]) == 0.0
        assert oob_error(e, 0, [1]) == pytest.approx(0.5)
        assert oob_error(e, 0, [0, 1]) == pytest.approx(0.25)

    def test_empty_rows_rejected(self):
        _, e = self.stump_fixture()
        with pytest.raises(ValueError, match="empty"):
            oob_error(e, 0, np.array([], dtype=np.intp))


FAULT_PROBE = """
import resource
from ufrank import (EnsembleConfig, SynthSpec, build, make_planted,
                    random_forest_score)
d = make_planted(SynthSpec(m=200, n_informative=5, n_noise=45, seed=0))


def run():
    random_forest_score(build(d, EnsembleConfig(n_trees=300, seed=1)))


run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_growth_and_rf_score_fault_their_arrays_in_once_per_call():
    """Growth keeps its per-level arrays, and rf-score its per-batch ones,
    in buffers that live for the whole call, so a second ET-300 build and
    rf-score at one worker on a planted 200 x 50 table fault in 2.7k-4.1k
    pages (15 runs), whatever the allocator did with the first call's
    memory. Fresh temporaries at every level and batch, which the
    allocator hands back to the OS and takes again, measured 14k-58k (15
    runs; glibc, numpy 2.4, x86-64). 300 trees, since the buffers' own
    first touch, once per call, is about as large as what 20 trees fault
    in afresh. Run in a fresh interpreter, so that no other test's heap
    shapes the count."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 10_000
