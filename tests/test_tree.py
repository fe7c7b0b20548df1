from dataclasses import fields

import numpy as np
import pytest

import oracles
from ufrank import (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD, Dataset,
                    EnsembleConfig, FlatTree, Nominal, Numeric,
                    SplitSearchPolicy, SynthSpec, best_test, build,
                    grow_tree, make_planted, tree)
from ufrank.tree import (SplitWorkspace, _first_k_stable, draw_frontier,
                         search_frontier)


def mixed_4x2():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
    return Dataset("mixed", ("num", "cat"),
                   (Numeric(), Nominal(("a", "b", "c"))), X)


def numeric_dataset(values):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    names = tuple(f"x{j}" for j in range(values.shape[1]))
    return Dataset("numeric", names,
                   tuple(Numeric() for _ in names), values)


def with_constant_columns(d):
    """d plus a constant numeric and a constant nominal column, both with
    a zero training denominator."""
    X = np.column_stack([d.X, np.full(d.m, 2.5), np.zeros(d.m)])
    return Dataset(d.name, d.attr_names + ("flat_num", "flat_nom"),
                   d.kinds + (Numeric(), Nominal(("only",))), X)


def nominal_heavy_dataset(rng, m):
    """Four nominal columns (arities 3 to 6) and one numeric column."""
    cols, kinds = [], []
    for size in (3, 4, 5, 6):
        cols.append(rng.integers(0, size, size=m).astype(np.float64))
        kinds.append(Nominal(tuple(f"v{v}" for v in range(size))))
    cols.append(rng.uniform(-1.0, 1.0, size=m))
    kinds.append(Numeric())
    names = tuple(f"c{j}" for j in range(len(cols)))
    return Dataset("nominal_heavy", names, tuple(kinds), np.column_stack(cols))


class TestSplitSearchPolicy:
    def test_needs_a_candidate(self):
        with pytest.raises(ValueError, match="at least 1"):
            SplitSearchPolicy(0, ALL_THRESHOLDS)

    def test_rejects_an_unknown_threshold_mode(self):
        with pytest.raises(ValueError, match="unknown threshold mode"):
            SplitSearchPolicy(1, "median")


class TestImpurity:
    """The reference impurity that the split-search oracles score h with,
    on hand-computed values. The package has no impurity of a row set of
    its own: SplitWorkspace scores h directly, and the oracle tests below
    compare that h against this reference."""

    def ref(self, d, rows):
        return oracles.ref_impurity(d, rows,
                                    oracles.ref_denominators(d, np.arange(d.m)))

    def test_full_training_rows_self_normalize_to_one(self):
        d = mixed_4x2()
        assert self.ref(d, np.arange(4)) == 1.0

    def test_hand_computed_subset(self):
        # rows [0,1]: numeric [0,1] var 0.25 over train var 1.25 -> 0.2;
        # nominal [0,0] constant -> 0; mean -> 0.1
        d = mixed_4x2()
        assert self.ref(d, np.array([0, 1])) == pytest.approx(0.1, rel=1e-15)

    def test_zero_denominator_contributes_zero(self):
        X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]])
        d = numeric_dataset(X)
        # first attribute constant on train: only the second one counts
        v = np.var([1.0, 2.0])
        expected = (0.0 + v / np.var([1.0, 2.0, 4.0])) / 2.0
        assert self.ref(d, np.array([0, 1])) == pytest.approx(expected,
                                                              rel=1e-12)

    def test_multiset_rows_count_with_multiplicity(self):
        # rows [0,0,1]: numeric [0,0,1] var 2/9 over 1.25 -> 8/45; nominal
        # [0,0,0] constant -> 0; mean -> 4/45
        d = mixed_4x2()
        assert self.ref(d, np.array([0, 0, 1])) == pytest.approx(4 / 45,
                                                                 rel=1e-12)


def assert_no_split(res, n_rows):
    """best_test's one-node record of a node without a test."""
    assert res.attr.tolist() == [-1]
    assert np.isnan(res.value[0]) and res.h.tolist() == [0.0]
    np.testing.assert_array_equal(res.yes, np.zeros(n_rows, dtype=bool))


class TestBestTestHandCases:
    def test_two_value_blocks_split_at_midpoint(self):
        # [0,0,10,10]: the only candidate threshold is 5; both children are
        # pure, so h = 4*impu(all) - 0 - 0 = 4
        d = numeric_dataset([0.0, 0.0, 10.0, 10.0])
        rows = np.arange(4)
        res = best_test(d, rows, SplitSearchPolicy(1, ALL_THRESHOLDS),
                        np.random.default_rng(0))
        assert res.attr.tolist() == [0] and d.numeric_mask[res.attr].all()
        assert res.value[0] == 5.0
        assert res.h[0] == pytest.approx(4.0, rel=1e-12)
        np.testing.assert_array_equal(np.sort(rows[res.yes]), [0, 1])
        np.testing.assert_array_equal(np.sort(rows[~res.yes]), [2, 3])

    def test_constant_rows_give_no_split(self):
        d = numeric_dataset([3.0, 3.0, 3.0])
        res = best_test(d, np.arange(3), SplitSearchPolicy(1, ALL_THRESHOLDS),
                        np.random.default_rng(0))
        assert_no_split(res, 3)

    def test_single_row_gives_no_split(self):
        d = numeric_dataset([1.0, 2.0])
        res = best_test(d, np.array([0]), SplitSearchPolicy(1, ALL_THRESHOLDS),
                        np.random.default_rng(0))
        assert_no_split(res, 1)

    @pytest.mark.parametrize("search", [best_test, grow_tree])
    @pytest.mark.parametrize("rows", [[-1, 0], [0, 2]])
    def test_row_indices_outside_the_table_rejected(self, search, rows):
        # a negative index must not wrap round to the last row
        d = numeric_dataset([1.0, 2.0])
        with pytest.raises(ValueError, match="out of range"):
            search(d, rows, SplitSearchPolicy(1, ALL_THRESHOLDS),
                   np.random.default_rng(0))

    def test_separating_attribute_beats_noise(self):
        rng = np.random.default_rng(5)
        block = np.concatenate([np.zeros(5), np.ones(5) * 10.0])
        noise = rng.uniform(size=10)
        d = numeric_dataset(np.column_stack([block, noise]))
        res = best_test(d, np.arange(10), SplitSearchPolicy(2, ALL_THRESHOLDS),
                        np.random.default_rng(1))
        assert res.attr.tolist() == [0]

    def test_midpoint_that_rounds_up_falls_back_to_lower_value(self):
        # adjacent floats with an odd mantissa below: the midpoint rounds
        # onto the upper value, so the test must fall back to the lower one
        # to keep the partition it was scored on
        a = np.nextafter(1.0, np.inf)
        b = np.nextafter(a, np.inf)
        assert a + (b - a) / 2 == b  # the rounding this test is about
        d = numeric_dataset([a, b])
        res = best_test(d, np.arange(2), SplitSearchPolicy(1, ALL_THRESHOLDS),
                        np.random.default_rng(0))
        assert d.numeric_mask[res.attr].all() and res.value[0] == a
        np.testing.assert_array_equal(res.yes, [True, False])


class TestBestTestOracle:
    """best_test against an exhaustive first-principles maximizer."""

    def check_all_thresholds(self, d, rows, seed):
        dens = oracles.ref_denominators(d, np.arange(d.m))
        policy = SplitSearchPolicy(d.n, ALL_THRESHOLDS)
        got = best_test(d, rows, policy, np.random.default_rng(seed))
        order = np.random.default_rng(seed).choice(d.n, size=d.n, replace=False)
        cands = oracles.ref_candidates_all(d, rows, dens, order)
        self.compare(d, rows, got, cands)

    def compare(self, d, rows, got, candidates):
        """The chosen test must be a maximizer: the unique one when the max
        is unique, any member of the tie set when distinct tests achieve
        equal h (same induced partition, split by float noise)."""
        hmax, ties = oracles.ref_tie_set(candidates)
        rows = np.asarray(rows)
        if not ties:
            assert_no_split(got, rows.size)
            return
        assert got.attr[0] >= 0, f"missed a split with h={hmax}"
        assert got.h[0] == pytest.approx(hmax, rel=1e-9)
        kind = "threshold" if d.numeric_mask[got.attr[0]] else "category"
        got_desc = (int(got.attr[0]), (kind, float(got.value[0])))
        for attr, descriptor, h, mask in ties:
            if (attr, descriptor) == got_desc:
                np.testing.assert_array_equal(rows[got.yes], rows[mask])
                np.testing.assert_array_equal(rows[~got.yes], rows[~mask])
                return
        pytest.fail(f"{got_desc} is not among the tied maximizers "
                    f"{[(t[0], t[1]) for t in ties]}")

    def test_exhaustive_agreement_on_random_fixtures(self):
        rng = np.random.default_rng(20240817)
        for case in range(60):
            m = int(rng.integers(4, 13))
            n = int(rng.integers(1, 4))
            d = oracles.random_mixed_dataset(rng, m, n)
            self.check_all_thresholds(d, np.arange(m), seed=1000 + case)
        # columns constant on the training rows add nothing to h
        rng = np.random.default_rng(20240818)
        for case in range(10):
            m = int(rng.integers(4, 13))
            d = with_constant_columns(oracles.random_mixed_dataset(
                rng, m, int(rng.integers(1, 4))))
            self.check_all_thresholds(d, np.arange(m), seed=1100 + case)

    def test_exhaustive_agreement_on_bootstrap_multisets(self):
        rng = np.random.default_rng(7)
        for case in range(25):
            m = int(rng.integers(5, 13))
            d = oracles.random_mixed_dataset(rng, m, int(rng.integers(1, 4)))
            rows = rng.integers(0, m, size=m)  # multiset with duplicates
            self.check_all_thresholds(d, rows, seed=2000 + case)

    def test_one_random_threshold_replay(self):
        rng = np.random.default_rng(99)
        for case in range(60):
            m = int(rng.integers(4, 13))
            n = int(rng.integers(2, 5))
            n_cand = int(rng.integers(1, n + 1))
            d = oracles.random_mixed_dataset(rng, m, n)
            dens = oracles.ref_denominators(d, np.arange(d.m))
            seed = 3000 + case
            got = best_test(d, np.arange(m),
                            SplitSearchPolicy(n_cand, ONE_RANDOM_THRESHOLD),
                            np.random.default_rng(seed))
            cands = oracles.ref_candidates_one_random(
                d, np.arange(m), dens, n_cand, np.random.default_rng(seed))
            self.compare(d, np.arange(m), got, cands)


class TestFrontierIndependence:
    """A node searched in a frontier with other nodes gets byte for byte
    the result it gets searched alone with the same draws."""

    def frontiers(self):
        rng = np.random.default_rng(61)
        for case in range(16):
            m = int(rng.integers(4, 30))
            n = int(rng.integers(1, 6))
            if case % 4 == 3:
                d = nominal_heavy_dataset(rng, m)
            else:
                d = oracles.random_mixed_dataset(rng, m, n)
            if case % 4 == 2:  # every example twice: duplicate rows
                d = Dataset(d.name, d.attr_names, d.kinds, np.vstack([d.X, d.X]))
            nodes = [rng.integers(0, d.m, size=int(rng.integers(2, d.m + 1)))
                     for _ in range(int(rng.integers(2, 7)))]
            yield case, d, nodes
        # large offset, tiny spread: the per-node centering must hold up
        X = 1e4 + 1e-3 * rng.uniform(size=(20, 3))
        d = numeric_dataset(X)
        yield 16, d, [rng.integers(0, 20, size=12) for _ in range(4)]

    def test_each_node_matches_its_lone_search(self):
        splits = 0
        for case, d, nodes in self.frontiers():
            ws = SplitWorkspace(d)
            for mode in (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD):
                policy = SplitSearchPolicy(1 + case % d.n, mode)
                keys, u = draw_frontier(np.random.default_rng(case), len(nodes),
                                        d.n, policy)
                starts = np.cumsum([0] + [r.size for r in nodes])
                joint = search_frontier(d, ws, policy, np.concatenate(nodes),
                                        starts, keys, u)
                for f, rows in enumerate(nodes):
                    alone = search_frontier(
                        d, ws, policy, rows, np.array([0, rows.size]),
                        keys[f:f + 1], None if u is None else u[f:f + 1])
                    assert joint.attr[f] == alone.attr[0]
                    assert joint.value[f].tobytes() == alone.value[0].tobytes()
                    assert joint.h[f].tobytes() == alone.h[0].tobytes()
                    np.testing.assert_array_equal(
                        joint.yes[starts[f]:starts[f + 1]], alone.yes)
                    splits += int(alone.attr[0] >= 0)
        assert splits >= 100

    def test_reused_workspace_matches_a_fresh_one(self):
        """One workspace searches a small frontier, then a larger one whose
        rows its buffers must grow to hold, then a one-node frontier that
        leaves the larger one's values in its buffers beyond the part it
        uses; each result equals, array for array, that of a fresh
        workspace."""
        grown = reused = 0
        for case, d, nodes in self.frontiers():
            ws = SplitWorkspace(d)
            real, cells = ws.gains, []

            def spy(*args):
                cells.append(args[4].size)  # S, the yes sides' sums
                return real(*args)

            ws.gains = spy
            for mode in (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD):
                policy = SplitSearchPolicy(1 + case % d.n, mode)
                for part in ([nodes[0][:2]], nodes, nodes[-1:]):
                    keys, u = draw_frontier(np.random.default_rng(case),
                                            len(part), d.n, policy)
                    args = (policy, np.concatenate(part),
                            np.cumsum([0] + [r.size for r in part]), keys, u)
                    before = dict(ws.buffers.flat)
                    cells.clear()
                    got = search_frontier(d, ws, *args)
                    grown += (part is nodes and ws.buffers.flat["rows"].size
                              > before.get("rows", np.empty(0)).size)
                    after = ws.buffers.flat
                    reused += (len(part) == 1 and part is not nodes
                               and len(cells) > 0
                               and after["yes"] is before.get("yes")
                               and after["no"] is before.get("no")
                               and max(cells) < after["yes"].size)
                    want = search_frontier(d, SplitWorkspace(d), *args)
                    for f in fields(got):
                        assert (getattr(got, f.name).tobytes()
                                == getattr(want, f.name).tobytes())
        assert grown == 17  # each table's larger frontier, in the first mode
        # each table's one-node frontier after the larger one, in both
        # modes, and in the second mode its first small frontier too
        assert reused == 17 * 3


class TestCandidatePick:
    """A node's candidates are its first k attributes by a stable sort of
    its keys, however few keys are sorted to find them."""

    @pytest.mark.parametrize("levels", [None, 2, 4])
    def test_matches_the_full_stable_argsort(self, levels):
        rng = np.random.default_rng(17)
        tied_rows = 0
        for _ in range(60):
            keys = rng.random((int(rng.integers(1, 40)),
                               int(rng.integers(1, 30))))
            if levels is not None:  # few distinct keys: ties at the k-th
                keys = np.round(keys * (levels - 1))
            n = keys.shape[1]
            for k in sorted({1, int(rng.integers(1, n + 1)), n, n + 1}):
                full = np.argsort(keys, axis=1, kind="stable")[:, :k]
                got = _first_k_stable(keys, k)
                assert got.dtype == full.dtype
                np.testing.assert_array_equal(got, full)
                if k < n:
                    kth = np.sort(keys, axis=1)[:, k - 1:k]
                    tied_rows += int(((keys <= kth).sum(axis=1) > k).sum())
        assert (tied_rows > 0) == (levels is not None)


class TestSlotGroups:
    """search_frontier searches a level's candidate slots in groups under
    tree._BLOCK_BUDGET, sized by the candidates a slot may hold."""

    def test_extra_trees_search_each_level_in_one_group(self, monkeypatch):
        """With one random threshold a slot holds one candidate per node,
        so an ET build on the planted 200 x 50 table searches every level
        with one _one_random_candidates call, where a slot sized by its
        rows, as with all thresholds, would split some levels in two."""
        d = make_planted(SynthSpec(m=200, n_informative=5, n_noise=45,
                                   seed=3)).without_target()
        real_search, real_pick = tree.search_frontier, tree._one_random_candidates
        levels, picks = [], []

        def search(d, ws, policy, rows, starts, keys, u=None):
            if np.diff(starts).max() >= 2:  # a level that is searched
                levels.append(min(policy.n_candidates, d.n))
            return real_search(d, ws, policy, rows, starts, keys, u)

        def pick(seg, heads, scored, vals, nominal, u):
            picks.append((len(levels), seg.size, scored.shape[1],
                          vals.shape[1]))
            return real_pick(seg, heads, scored, vals, nominal, u)

        monkeypatch.setattr(tree, "search_frontier", search)
        monkeypatch.setattr(tree, "_one_random_candidates", pick)
        build(d, EnsembleConfig(method="et", n_trees=50, seed=1))
        assert [level for level, *_ in picks] == list(range(1, len(levels) + 1))
        assert all(slots == k for (_, _, _, slots), k in zip(picks, levels))
        by_rows = [tree._BLOCK_BUDGET // (24 * rows * z)
                   for _, rows, z, _ in picks]
        assert any(group < k for group, k in zip(by_rows, levels))


class ReduceatNodeSums:
    """Stands in for segments.group_indicator inside tree, where it sums
    each node's contiguous rows: its product is np.add.reduceat, which
    copies a node's first row and adds the rest with numpy's pairwise
    loop, an order other than group_sums' index order."""

    def __init__(self, src, heads, n_rows):
        assert np.array_equal(src, np.arange(n_rows))
        self.heads = heads

    def __matmul__(self, A):
        return np.add.reduceat(A, self.heads, axis=0)


class TestSumOrder:
    """With one random threshold, equal partitions tie exactly, so extra
    trees pick the same tests whatever order node sums are added in."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_extra_trees_keep_their_tests_under_another_sum_order(
            self, monkeypatch, seed):
        d = make_planted(SynthSpec(m=200, n_informative=5, n_noise=45,
                                   seed=seed)).without_target()
        cfg = EnsembleConfig(method="et", n_trees=100, seed=seed)
        want = build(d, cfg).forest
        levels = []

        def node_sums(src, heads, n_rows):
            levels.append(heads.size)
            return ReduceatNodeSums(src, heads, n_rows)

        monkeypatch.setattr(tree, "group_indicator", node_sums)
        got = build(d, cfg).forest
        assert levels
        # the other order does give other sums
        assert got.h_star.tobytes() != want.h_star.tobytes()
        for name in ("attr", "value", "skip", "n_reached"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("a, c", [
        # sides of 3 and 4 rows
        ([0, 1, 1, 1, 0, 0, 0], [0.95, -0.7, -1.27, -0.62, 0.04, -2.33, -0.22]),
        # sides of 4 and 4 rows
        ([0, 1, 0, 1, 0, 1, 0, 1],
         [-0.53, 0.57, -0.06, 0.75, -1.85, 1.57, -0.1, 0.68]),
    ], ids=["3-4", "4-4"])
    def test_mirrored_partitions_go_to_the_first_enumerated(self, a, c):
        # b is 1 - a: the two attributes cut the rows into the same two
        # sets, yes and no swapped. On these tables, a side's direct sum
        # and its sum as totals less the other side differ in the last bit
        a = np.array(a, dtype=np.float64)
        d = numeric_dataset(np.column_stack([a, 1.0 - a, c]))
        ws = SplitWorkspace(d)
        policy = SplitSearchPolicy(2, ONE_RANDOM_THRESHOLD)
        found = [search_frontier(d, ws, policy, np.arange(d.m),
                                 np.array([0, d.m]), np.array([keys]),
                                 np.array([[0.5, 0.5]]))
                 for keys in ([0.1, 0.2, 0.9], [0.2, 0.1, 0.9])]
        assert [int(f.attr[0]) for f in found] == [0, 1]
        assert found[0].h.tobytes() == found[1].h.tobytes()
        np.testing.assert_array_equal(found[0].yes, a <= 0.5)
        np.testing.assert_array_equal(found[1].yes, a > 0.5)


class TestGrowTree:
    def test_identical_rows_make_a_single_leaf(self):
        d = numeric_dataset([2.0, 2.0, 2.0])
        tree = grow_tree(d, np.arange(3), SplitSearchPolicy(1, ALL_THRESHOLDS),
                         np.random.default_rng(0))
        assert isinstance(tree, FlatTree)
        np.testing.assert_array_equal(tree.attr, [-1])
        assert tree.n_reached[0] == 3

    def test_two_point_pairs_make_a_stump(self):
        # growth is to purity, so only identical pairs stop at depth one
        d = numeric_dataset([0.0, 0.0, 10.0, 10.0])
        tree = grow_tree(d, np.arange(4), SplitSearchPolicy(1, ALL_THRESHOLDS),
                         np.random.default_rng(0))
        np.testing.assert_array_equal(tree.attr, [0, -1, -1])
        assert tree.value[0] == 5.0 and d.numeric_mask[tree.attr[0]]
        np.testing.assert_array_equal(tree.skip, [2, 0, 0])
        np.testing.assert_array_equal(tree.n_reached, [4, 2, 2])

    def test_partition_property_and_h_star_recompute(self):
        rng = np.random.default_rng(11)
        d = oracles.random_mixed_dataset(rng, 40, 3)
        rows = rng.integers(0, 40, size=40)
        nominal_heavy = nominal_heavy_dataset(np.random.default_rng(12), 40)
        nominal_rows = np.random.default_rng(13).integers(0, 40, size=40)
        for data, bag, policy, seed in (
                (d, rows, SplitSearchPolicy(3, ALL_THRESHOLDS), 4),
                (d, rows, SplitSearchPolicy(2, ONE_RANDOM_THRESHOLD), 4),
                (nominal_heavy, nominal_rows,
                 SplitSearchPolicy(5, ALL_THRESHOLDS), 5),
                (nominal_heavy, nominal_rows,
                 SplitSearchPolicy(3, ONE_RANDOM_THRESHOLD), 5)):
            self.check_partition_and_h_star(data, bag, policy, seed)

    def check_partition_and_h_star(self, d, rows, policy, seed):
        tree = grow_tree(d, rows, policy, np.random.default_rng(seed))
        node_rows = oracles.ref_node_rows(d, tree, rows)
        leaf = tree.attr < 0
        assert (~leaf).sum() >= 3

        leaf_rows = np.concatenate([r for i, r in enumerate(node_rows) if leaf[i]])
        assert sorted(leaf_rows.tolist()) == sorted(rows.tolist())

        dens = oracles.ref_denominators(d, np.arange(d.m))
        for i, rows_i in enumerate(node_rows):
            assert tree.n_reached[i] == rows_i.size
            if not leaf[i]:
                col = d.X[rows_i, tree.attr[i]]
                if not d.numeric_mask[tree.attr[i]]:
                    mask = col == tree.value[i]
                else:
                    mask = col <= tree.value[i]
                h = oracles.ref_h(d, rows_i, mask, dens)
                assert tree.h_star[i] > 0.0
                assert tree.h_star[i] == pytest.approx(h, rel=1e-9)

    def test_root_is_best_test_on_the_same_rows(self):
        # grow_tree's first level is best_test's one-node frontier: same
        # draws from the same generator state, same test, same h and rows
        rng = np.random.default_rng(41)
        roots = 0
        for case in range(30):
            m = int(rng.integers(3, 25))
            d = oracles.random_mixed_dataset(rng, m, int(rng.integers(1, 5)))
            rows = rng.integers(0, m, size=m)
            mode = (ALL_THRESHOLDS, ONE_RANDOM_THRESHOLD)[case % 2]
            policy = SplitSearchPolicy(int(rng.integers(1, d.n + 1)), mode)
            tree = grow_tree(d, rows, policy,
                             np.random.default_rng(500 + case))
            res = best_test(d, rows, policy,
                            np.random.default_rng(500 + case))
            if res.attr[0] < 0:
                np.testing.assert_array_equal(tree.attr, [-1])
                continue
            roots += 1
            assert tree.attr[0] == res.attr[0]
            assert tree.value[0] == res.value[0]
            assert tree.h_star[0].tobytes() == res.h[0].tobytes()
            node_rows = oracles.ref_node_rows(d, tree, rows)
            yes, no = 1, tree.skip[0]
            np.testing.assert_array_equal(node_rows[yes], rows[res.yes])
            np.testing.assert_array_equal(node_rows[no], rows[~res.yes])
        assert roots >= 20

    def test_same_seed_same_tree(self):
        rng = np.random.default_rng(2)
        d = oracles.random_mixed_dataset(rng, 25, 3)
        policy = SplitSearchPolicy(2, ONE_RANDOM_THRESHOLD)
        t1 = grow_tree(d, np.arange(25), policy, np.random.default_rng(8))
        t2 = grow_tree(d, np.arange(25), policy, np.random.default_rng(8))
        assert oracles.flat_fingerprint(t1) == oracles.flat_fingerprint(t2)

    def test_empty_rows_rejected(self):
        d = numeric_dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            grow_tree(d, np.array([], dtype=np.intp),
                      SplitSearchPolicy(1, ALL_THRESHOLDS),
                      np.random.default_rng(0))


class TestLevelLayout:
    def test_from_node_lays_out_a_stack_from_its_depth_levels(self):
        # three trees: a lone leaf, a stump, and a tree whose yes child
        # splits again, so the third level holds that one tree's nodes
        nan = np.nan
        levels = [
            (np.array([3, 4, 6]), np.array([-1, 0, 1]),
             np.array([nan, 0.5, 1.5]), np.array([0.0, 0.4, 0.6])),
            (np.array([1, 3, 4, 2]), np.array([-1, -1, 2, -1]),
             np.array([nan, nan, 2.5, nan]), np.array([0.0, 0.0, 0.3, 0.0])),
            (np.array([1, 3]), np.array([-1, -1]),
             np.array([nan, nan]), np.array([0.0, 0.0])),
        ]
        flat = FlatTree.from_node(levels)
        np.testing.assert_array_equal(flat.node_start, [0, 1, 4, 9])
        np.testing.assert_array_equal(flat.attr,
                                      [-1, 0, -1, -1, 1, 2, -1, -1, -1])
        np.testing.assert_array_equal(flat.skip, [0, 2, 0, 0, 4, 2, 0, 0, 0])
        np.testing.assert_array_equal(flat.n_reached,
                                      [3, 4, 1, 3, 6, 4, 1, 3, 2])
        np.testing.assert_array_equal(
            flat.value, [nan, 0.5, nan, nan, 1.5, 2.5, nan, nan, nan])
        np.testing.assert_array_equal(
            flat.h_star, [0.0, 0.4, 0.0, 0.0, 0.6, 0.3, 0.0, 0.0, 0.0])


class TestPredictAndRouting:
    def test_boundary_value_takes_yes_branch(self):
        stump = oracles.flat_stump(0, 5.0, 1.0, 2, 2)
        X = np.array([[5.0], [5.0 + 1e-9]])
        np.testing.assert_array_equal(stump.route(X, np.array([False])),
                                      [1, 2])

    @pytest.mark.parametrize("kind", [Numeric(), Nominal(("a", "b", "c"))])
    def test_test_kind_comes_from_the_dataset(self, kind):
        # one record, value 1.0 on column k: x <= 1 on a numeric k, x == 1
        # on a nominal one
        X = np.column_stack([np.zeros(3), [0.0, 1.0, 2.0]])
        d = Dataset("k", ("a", "k"), (Numeric(), kind), X)
        stump = oracles.flat_stump(1, 1.0, 1.0, 2, 1)
        yes = X[:, 1] <= 1.0 if isinstance(kind, Numeric) else X[:, 1] == 1.0
        leaf = stump.route(d.X, ~d.numeric_mask)
        np.testing.assert_array_equal(leaf, np.where(yes, 1, 2))
        np.testing.assert_array_equal(
            leaf, [oracles.ref_leaf(d, stump, x) for x in d.X])


class TestSerialization:
    """The array form every grown tree is kept and saved in."""

    def grown(self):
        rng = np.random.default_rng(21)
        d = oracles.random_mixed_dataset(rng, 30, 3)
        tree = grow_tree(d, np.arange(30), SplitSearchPolicy(3, ALL_THRESHOLDS),
                         np.random.default_rng(5))
        return d, tree

    def test_flat_tree_round_trip_and_batch_routing(self, tmp_path):
        d, tree = self.grown()
        path = tmp_path / "tree.npz"
        np.savez(path, **{f.name: getattr(tree, f.name)
                          for f in fields(FlatTree)})
        with np.load(path, allow_pickle=False) as z:
            back = FlatTree(**{f.name: z[f.name] for f in fields(FlatTree)})
        assert oracles.flat_fingerprint(back) == oracles.flat_fingerprint(tree)
        np.testing.assert_array_equal(
            back.route(d.X, ~d.numeric_mask),
            [oracles.ref_leaf(d, tree, x) for x in d.X])

    def test_preorder_traversal_counts(self):
        d, tree = self.grown()
        internal = np.flatnonzero(tree.attr >= 0)
        leaves = np.flatnonzero(tree.attr < 0)
        assert leaves.size == internal.size + 1
        # preorder, yes first: an internal node's yes child v + 1 follows
        # it, its no child v + skip[v] follows that, and every node but the
        # root has exactly one parent, listed before it
        no = internal + tree.skip[internal]
        assert (tree.skip[internal] > 1).all()
        np.testing.assert_array_equal(
            no, oracles.ref_children(tree.attr)[internal, 1])
        children = np.sort(np.concatenate([internal + 1, no]))
        np.testing.assert_array_equal(children, np.arange(1, tree.attr.size))
        np.testing.assert_array_equal(tree.skip[leaves], 0)
