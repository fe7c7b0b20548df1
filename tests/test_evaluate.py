import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sstats

import oracles
from ufrank import evaluate
from ufrank import (ComputationError, CurveReport, Dataset, FoldPlan,
                    IngestionError, Nominal, Numeric, Ranking,
                    adjusted_rand_index, clustering_hypothesis_ari,
                    compare_methods, comparison_to_csv, curve_points_csv,
                    cv_mse, error_curve, k_grid, kmeans, knn_predict,
                    make_planted, nemenyi_cd, SynthSpec)
from ufrank.data import json_text


def numeric_dataset(X, target=None, name="t"):
    X = np.asarray(X, dtype=np.float64)
    kinds = [Numeric()] * X.shape[1]
    return Dataset(name, [f"x{j}" for j in range(X.shape[1])], kinds, X,
                   target=None if target is None else np.asarray(target,
                                                                 np.float64))


def fixed_ranker(weights):
    """Ranker ignoring the data: a fixed importance vector."""
    w = np.asarray(weights, dtype=np.float64)

    def rank(d):
        assert d.n == w.size
        return Ranking("stub", w, d.attr_names)

    return rank


class TestFoldPlan:
    def test_folds_partition_the_rows(self):
        plan = FoldPlan.make(23, n_folds=10, seed=4)
        sizes = [f.size for f in plan.folds]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1
        assert plan.n_folds == 10
        all_rows = np.concatenate(plan.folds)
        np.testing.assert_array_equal(np.sort(all_rows), np.arange(23))

    def test_folds_are_sorted_and_complementary(self):
        """Training rows come from a mask over the fold; they equal
        setdiff1d's sorted intp complement, array and dtype, also with
        folds of one row (m = n_folds) and at m = 2."""
        for m, n_folds in ((17, 5), (2, 2), (7, 7)):
            plan = FoldPlan.make(m, n_folds=n_folds, seed=1)
            for i in range(plan.n_folds):
                test = plan.test_rows(i)
                train = plan.train_rows(i)
                assert (np.diff(test) > 0).all()
                assert (np.diff(train) > 0).all()
                np.testing.assert_array_equal(
                    np.sort(np.concatenate([test, train])), np.arange(m))
                want = np.setdiff1d(np.arange(m), test)
                assert train.dtype == want.dtype
                np.testing.assert_array_equal(train, want)

    def test_seeded_and_reproducible(self):
        a = FoldPlan.make(30, 10, seed=2)
        b = FoldPlan.make(30, 10, seed=2)
        c = FoldPlan.make(30, 10, seed=3)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)
        assert any(not np.array_equal(fa, fc)
                   for fa, fc in zip(a.folds, c.folds))

    def test_fold_count_bounds(self):
        with pytest.raises(ValueError, match="fold count"):
            FoldPlan.make(10, n_folds=1)
        with pytest.raises(ValueError, match="fold count"):
            FoldPlan.make(10, n_folds=11)
        assert FoldPlan.make(10, n_folds=10).n_folds == 10


class TestKnnPredict:
    def test_distance_tie_goes_to_the_smaller_row_index(self):
        # rows 0 and 5 are both one unit from the query; their targets are
        # 1 and 3, so the tie rule is visible in the prediction
        X = np.array([[0.0], [9.0], [9.0], [9.0], [9.0], [2.0]])
        d = numeric_dataset(X, target=[1, 7, 7, 7, 7, 3])
        assert knn_predict(d, [0, 5], np.array([1.0]), [0]) == 1.0
        assert knn_predict(d, [5, 0], np.array([1.0]), [0]) == 1.0

    def test_matches_plain_scan_on_random_fixtures(self):
        rng = np.random.default_rng(60)
        for case in range(10):
            m = int(rng.integers(8, 21))
            n = int(rng.integers(2, 5))
            X = rng.uniform(size=(m, n))
            d = numeric_dataset(X, target=rng.normal(size=m))
            train = rng.permutation(m)[:int(rng.integers(3, m))]
            attrs = np.sort(rng.permutation(n)[:int(rng.integers(1, n + 1))])
            for q in range(m):
                got = knn_predict(d, train, X[q], attrs)
                want = oracles.ref_nearest_target(d, train, X[q], attrs)
                assert got == want

    def test_exact_duplicate_wins_on_a_large_offset(self):
        # 200 training rows at offset 1e5 with spread 1e-4; each query is an
        # exact duplicate of one of them, at distance 0
        rng = np.random.default_rng(0)
        base = 1e5 + 1e-4 * rng.standard_normal((200, 20))
        X = np.vstack([base, base])
        d = numeric_dataset(X, target=rng.standard_normal(400))
        train, attrs = np.arange(200), np.arange(20)
        got = [knn_predict(d, train, X[200 + q], attrs) for q in range(200)]
        want = [oracles.ref_nearest_target(d, train, X[200 + q], attrs)
                for q in range(200)]
        assert got == want

    def test_validation(self):
        d = numeric_dataset([[0.0], [1.0]], target=[0.0, 1.0])
        bare = d.without_target()
        with pytest.raises(ValueError, match="target"):
            knn_predict(bare, [0, 1], np.array([0.5]), [0])
        with pytest.raises(ValueError, match="empty"):
            knn_predict(d, [], np.array([0.5]), [0])
        with pytest.raises(ValueError, match="non-empty"):
            knn_predict(d, [0, 1], np.array([0.5]), [])
        with pytest.raises(ValueError, match="duplicates"):
            knn_predict(d, [0, 1], np.array([0.5]), [0, 0])
        with pytest.raises(ValueError, match="out of range"):
            knn_predict(d, [0, 1], np.array([0.5]), [1])
        with pytest.raises(ValueError, match="arity"):
            knn_predict(d, [0, 1], np.array([0.5, 0.5]), [0])
        # a negative training row must not wrap round to the last row
        with pytest.raises(ValueError, match="out of range"):
            knn_predict(d, [-1], np.array([1.0]), [0])
        with pytest.raises(ValueError, match="out of range"):
            knn_predict(d, [0, 2], np.array([0.5]), [0])
        # float rows must not truncate, nor a boolean mask read as 0 and 1
        with pytest.raises(ValueError, match="integer"):
            knn_predict(d, [0.5, 1.7], np.array([0.5]), [0])
        with pytest.raises(ValueError, match="integer"):
            knn_predict(d, np.array([True, True]), np.array([0.5]), [0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("attrs", [[0, 1], [1]])
    def test_non_finite_query_is_rejected(self, bad, attrs):
        # the screen would send such a query to row 0's target, 10.0
        d = numeric_dataset([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]],
                            target=[10.0, 20.0, 30.0])
        with pytest.raises(ValueError, match="finite"):
            knn_predict(d, [0, 1, 2], np.array([bad, 5.0]), attrs)


def fold_picks(d, train, test, attrs):
    """Row picked for each test row by the batched 1NN path."""
    T = d.X[train]
    return train[evaluate._nearest(T, d.X[test], evaluate._column_mean(T),
                                   np.asarray(attrs))]


def oracle_picks(d, train, test, attrs):
    by_index = Dataset(d.name, d.attr_names, d.kinds, d.X,
                       np.arange(d.m, dtype=np.float64))
    # an overflowing difference is an inf distance, as in the package
    with np.errstate(over="ignore"):
        return np.array([oracles.ref_nearest_target(by_index, train, d.X[q],
                                                    np.asarray(attrs))
                         for q in test])


def overflow_table(magnitude=1e160):
    """12 rows: column 0 alternates +-magnitude, columns 1 and 2 N(0, 1)."""
    rng = np.random.default_rng(0)
    X = np.column_stack([(-1.0) ** np.arange(12) * magnitude,
                         rng.normal(size=(12, 2))])
    return numeric_dataset(X, target=rng.normal(size=12))


class TestNearestNeighbourOracle:
    """The batched 1NN path (screen plus exact check) against the plain
    scan of tests/oracles.py, which takes direct differences and gives
    ties to the smallest row."""

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_integer_grid_with_exact_ties(self, k):
        # values in {0, 1, 2}: most queries have several training rows at
        # exactly the same distance
        rng = np.random.default_rng(5)
        d = numeric_dataset(rng.integers(0, 3, size=(90, 6)).astype(float),
                            target=rng.normal(size=90))
        train, test = np.arange(0, 90, 3), np.setdiff1d(np.arange(90),
                                                         np.arange(0, 90, 3))
        attrs = np.sort(rng.permutation(6)[:k])
        np.testing.assert_array_equal(fold_picks(d, train, test, attrs),
                                      oracle_picks(d, train, test, attrs))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("magnitude", [1e160, 1e308])
    @pytest.mark.parametrize("attrs", [[0], [0, 1], [0, 1, 2]])
    def test_overflow_table_split_8_4(self, magnitude, attrs):
        # the expansion's squares overflow to inf and inf - inf is NaN; the
        # pick must still be the oracle's, with no warning
        d = overflow_table(magnitude)
        train, test = np.arange(8), np.arange(8, 12)
        np.testing.assert_array_equal(fold_picks(d, train, test, attrs),
                                      oracle_picks(d, train, test, attrs))

    def test_offset_table_with_duplicate_rows(self):
        # offset 1e5, spread 1e-4, every training row present twice and
        # every query a duplicate of a training row
        rng = np.random.default_rng(7)
        base = 1e5 + 1e-4 * rng.standard_normal((60, 8))
        d = numeric_dataset(np.vstack([base, base, base[:30]]),
                            target=rng.normal(size=150))
        train, test = np.arange(120), np.arange(120, 150)
        for k in (1, 3, 8):
            attrs = np.arange(k)
            np.testing.assert_array_equal(fold_picks(d, train, test, attrs),
                                          oracle_picks(d, train, test, attrs))

    def test_picks_and_mse_do_not_depend_on_the_block(self, monkeypatch):
        # a budget of one byte makes every block one query and every run of
        # exact distances one pair
        rng = np.random.default_rng(9)
        X = np.vstack([rng.integers(0, 3, size=(40, 5)).astype(float),
                       1e5 + 1e-4 * rng.standard_normal((40, 5))])
        d = numeric_dataset(X, target=rng.normal(size=80))
        plan = FoldPlan.make(80, n_folds=4, seed=1)
        ranker = fixed_ranker([5.0, 4.0, 3.0, 2.0, 1.0])
        train, test = plan.train_rows(0), plan.test_rows(0)
        wide = [fold_picks(d, train, test, np.arange(k)) for k in (1, 2, 5)]
        curve = error_curve(d, ranker, plan)
        monkeypatch.setattr(evaluate, "_BLOCK_BUDGET", 1)
        narrow = [fold_picks(d, train, test, np.arange(k)) for k in (1, 2, 5)]
        for a, b in zip(wide, narrow):
            np.testing.assert_array_equal(a, b)
        assert error_curve(d, ranker, plan).fold_mse.tobytes() \
            == curve.fold_mse.tobytes()

    def test_one_fold_at_scale_stays_within_the_block_budget(self):
        # m = 20 000, n = 50: a dense 2 000 x 18 000 distance matrix would
        # take 288 MB; the fold's own copies take about 20 MB
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20_000, 50))
        d = numeric_dataset(X, target=rng.normal(size=20_000))
        train, test = np.arange(2_000, 20_000), np.arange(2_000)
        tracemalloc.start()
        try:
            fold_picks(d, train, test, np.arange(50))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestCvMse:
    def brute_cv(self, d, plan, attrs):
        per_fold = []
        for i in range(plan.n_folds):
            train = plan.train_rows(i)
            errs = [(oracles.ref_nearest_target(d, train, d.X[t], attrs)
                     - d.target[t]) ** 2
                    for t in plan.test_rows(i)]
            per_fold.append(float(np.mean(errs)))
        return float(np.mean(per_fold))

    def test_matches_a_plain_loop(self):
        rng = np.random.default_rng(61)
        X = rng.uniform(size=(12, 3))
        d = numeric_dataset(X, target=rng.normal(size=12))
        plan = FoldPlan.make(12, n_folds=3, seed=0)
        ranker = fixed_ranker([3.0, 1.0, 2.0])
        got = cv_mse(d, ranker, k_features=2, plan=plan)
        want = self.brute_cv(d, plan, np.array([0, 2]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_ranker_sees_only_target_free_training_rows(self):
        rng = np.random.default_rng(62)
        X = rng.uniform(size=(15, 3))
        d = numeric_dataset(X, target=rng.normal(size=15))
        plan = FoldPlan.make(15, n_folds=5, seed=1)
        seen = []

        def spy(view):
            seen.append(view)
            return Ranking("spy", np.array([2.0, 1.0, 0.0]), view.attr_names)

        cv_mse(d, spy, k_features=1, plan=plan)
        assert len(seen) == plan.n_folds
        for i, view in enumerate(seen):
            assert view.target is None
            np.testing.assert_array_equal(view.X, d.X[plan.train_rows(i)])

    def test_validation(self):
        d = numeric_dataset([[0.0], [1.0], [2.0]], target=[0, 1, 2])
        plan = FoldPlan.make(3, n_folds=3, seed=0)
        with pytest.raises(ValueError, match="target"):
            cv_mse(d.without_target(), fixed_ranker([1.0]), 1, plan)
        with pytest.raises(ValueError, match="k_features"):
            cv_mse(d, fixed_ranker([1.0]), 0, plan)
        with pytest.raises(ValueError, match="k_features"):
            cv_mse(d, fixed_ranker([1.0]), 2, plan)


class TestKGrid:
    def test_reference_values(self):
        assert k_grid(5) == (1, 2, 4, 5)
        assert k_grid(8) == (1, 2, 4, 8)
        assert k_grid(1) == (1,)
        assert k_grid(2) == (1, 2)
        assert k_grid(3) == (1, 2, 3)
        assert k_grid(50) == (1, 2, 4, 8, 16, 32, 50)

    def test_grid_is_increasing_and_capped(self):
        for n in range(1, 200):
            ks = k_grid(n)
            assert ks[0] == 1 and ks[-1] == n
            assert all(a < b for a, b in zip(ks, ks[1:]))


class TestErrorCurve:
    def small_fixture(self):
        rng = np.random.default_rng(63)
        X = rng.uniform(size=(20, 5))
        target = X[:, 0] * 3 + rng.normal(scale=0.1, size=20)
        return numeric_dataset(X, target=target, name="curveland")

    def test_report_shape_and_means(self):
        d = self.small_fixture()
        plan = FoldPlan.make(d.m, n_folds=4, seed=5)
        report = error_curve(d, fixed_ranker([5, 4, 3, 2, 1]), plan)
        assert report.k_values == k_grid(5)
        assert report.method == "stub"
        assert report.dataset == "curveland"
        assert report.fold_mse.shape == (4, len(report.k_values))
        assert report.folds == 4 and report.plan_seed == 5
        np.testing.assert_allclose(report.mean_mse,
                                   report.fold_mse.mean(axis=0), rtol=1e-15)

    def test_each_point_is_the_matching_cv_mse(self):
        d = self.small_fixture()
        plan = FoldPlan.make(d.m, n_folds=4, seed=5)
        ranker = fixed_ranker([5, 4, 3, 2, 1])
        report = error_curve(d, ranker, plan)
        for j, k in enumerate(report.k_values):
            assert report.mean_mse[j] == cv_mse(d, ranker, k, plan)

    def test_curves_of_different_methods_meet_at_k_equals_n(self):
        d = self.small_fixture()
        plan = FoldPlan.make(d.m, n_folds=4, seed=2)
        a = error_curve(d, fixed_ranker([5, 4, 3, 2, 1]), plan)
        b = error_curve(d, fixed_ranker([1, 2, 3, 4, 5]), plan)
        assert a.mean_mse[-1] == b.mean_mse[-1]
        assert a.mean_mse[:-1] != b.mean_mse[:-1]

    def test_ranker_called_once_per_fold(self):
        d = self.small_fixture()
        plan = FoldPlan.make(d.m, n_folds=5, seed=0)
        calls = []

        def counting(view):
            calls.append(view.m)
            return Ranking("stub", np.arange(5.0), view.attr_names)

        error_curve(d, counting, plan)
        assert len(calls) == plan.n_folds

    def test_needs_a_target(self):
        d = self.small_fixture().without_target()
        plan = FoldPlan.make(d.m, n_folds=4, seed=5)
        with pytest.raises(IngestionError, match="needs a dataset with a target"):
            error_curve(d, fixed_ranker([5, 4, 3, 2, 1]), plan)

    def test_text_target_is_a_data_error(self):
        # an MSE over category codes would depend on how they are numbered,
        # so both evaluations refuse a nominal target before ranking a fold
        d = self.small_fixture()
        text = Dataset(d.name, d.attr_names, d.kinds, d.X,
                       np.arange(d.m) % 3, target_kind=Nominal(("x", "y", "z")))
        plan = FoldPlan.make(d.m, n_folds=4, seed=5)

        def never(view):
            raise AssertionError("ranked a fold")

        with pytest.raises(IngestionError, match="cv_mse needs a numeric "
                                                 "target"):
            cv_mse(text, never, 1, plan)
        with pytest.raises(IngestionError, match="error_curve needs a "
                                                 "numeric target"):
            error_curve(text, never, plan)
        # the same codes as a numeric target are scored
        assert cv_mse(dataclasses.replace(text, target_kind=Numeric()),
                      fixed_ranker([5, 4, 3, 2, 1]), 1, plan) >= 0.0

    @pytest.mark.parametrize("magnitude", [1e160, 1e308])
    def test_overflowing_errors_are_a_computation_error(self, magnitude):
        # the target alternates +-magnitude: every value is finite, but the
        # squared errors (at 1e308 the errors too) overflow
        rng = np.random.default_rng(64)
        d = numeric_dataset(rng.uniform(size=(12, 2)),
                            target=(-1.0) ** np.arange(12) * magnitude)
        plan = FoldPlan.make(d.m, n_folds=3, seed=0)
        with pytest.raises(ComputationError, match="MSE is not finite"):
            error_curve(d, fixed_ranker([2, 1]), plan)
        with pytest.raises(ComputationError, match="MSE is not finite"):
            cv_mse(d, fixed_ranker([2, 1]), 1, plan)

    def test_csv_mirror(self, tmp_path):
        d = self.small_fixture()
        plan = FoldPlan.make(d.m, n_folds=4, seed=1)
        report = error_curve(d, fixed_ranker([5, 4, 3, 2, 1]), plan)
        path = tmp_path / "curve.csv"
        curve_points_csv(report, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "k,mean_mse"
        assert len(lines) == len(report.k_values) + 1
        for line, k, mse in zip(lines[1:], report.k_values, report.mean_mse):
            ks, vs = line.split(",")
            assert int(ks) == k and float(vs) == mse


class TestKMeans:
    def blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [12.0, 12.0], [-12.0, 12.0]])
        truth = np.repeat(np.arange(3), 25)
        X = centers[truth] + rng.normal(scale=0.4, size=(75, 2))
        return X, truth

    def test_recovers_separated_blobs(self):
        X, truth = self.blobs()
        labels, centers, inertia = kmeans(X, 3, np.random.default_rng(1))
        assert adjusted_rand_index(labels, truth) == 1.0
        assert centers.shape == (3, 2)
        assert inertia == pytest.approx(
            sum(((X[labels == c] - centers[c]) ** 2).sum() for c in range(3)),
            rel=1e-9)

    def test_deterministic_for_a_fixed_generator_state(self):
        X, _ = self.blobs()
        a = kmeans(X, 3, np.random.default_rng(7))
        b = kmeans(X, 3, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_single_cluster_and_one_point_per_cluster(self):
        X = np.array([[0.0], [1.0], [5.0], [6.0]])
        labels, centers, inertia = kmeans(X, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(labels, [0, 0, 0, 0])
        assert inertia == pytest.approx(((X - X.mean()) ** 2).sum())
        labels, _, inertia = kmeans(X, 4, np.random.default_rng(0))
        assert sorted(labels.tolist()) == [0, 1, 2, 3]
        assert inertia == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_heavy_data_stays_valid(self):
        # more clusters than distinct points forces the empty-cluster path
        X = np.array([[0.0]] * 5 + [[10.0]] * 5)
        for seed in range(5):
            labels, centers, inertia = kmeans(X, 3, np.random.default_rng(seed))
            assert labels.min() >= 0 and labels.max() < 3
            assert np.isfinite(inertia)

    def test_large_offset_tiny_spread_is_assigned_exactly(self):
        # the blobs shrunk to a 1e-4 scale on a 1e5 offset: squared
        # distances are about 1e-6, below the cancellation error of the
        # |a|^2 + |b|^2 - 2ab expansion at this offset
        X, truth = self.blobs()
        X = 1e5 + 1e-4 * X
        for seed in range(3):
            labels, centers, _ = kmeans(X, 3, np.random.default_rng(seed))
            np.testing.assert_array_equal(
                labels, oracles.ref_kmeans_labels(X, centers))
            assert adjusted_rand_index(labels, truth) == 1.0

    @pytest.mark.parametrize("X", [
        # the row at 2 lies halfway between the centers 1 and 3
        np.array([[3.0], [4.0], [2.0], [3.0], [0.0], [1.0], [3.0], [4.0],
                  [1.0], [4.0], [1.0], [1.0]]),
        # two distinct rows for three clusters: two centers coincide
        np.repeat([[0.5, -1.0], [3.0, 2.0]], 5, axis=0),
    ], ids=["integer", "duplicates"])
    def test_exact_ties_go_to_the_lowest_center(self, X):
        for seed in range(3):
            labels, centers, _ = kmeans(X, 3, np.random.default_rng(seed))
            d2 = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
            assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1)
                    > 1).any()
            np.testing.assert_array_equal(
                labels, oracles.ref_kmeans_labels(X, centers))

    def test_relative_inertia_change_stops_the_iterations(self, monkeypatch):
        # N(0, 1) points, k = 4: from this start the labels repeat only at
        # iteration 9, but at iteration 6 the inertia moves by under 1%
        X = np.random.default_rng(0).normal(size=(80, 2))
        monkeypatch.setattr(evaluate, "_KMEANS_MAX_ITER", 0)
        _, start, _ = kmeans(X, 4, np.random.default_rng(1))
        monkeypatch.setattr(evaluate, "_KMEANS_MAX_ITER", 300)
        monkeypatch.setattr(evaluate, "_KMEANS_TOL", 1e-2)
        labels, centers, inertia = kmeans(X, 4, np.random.default_rng(1))
        want = oracles.ref_lloyd(X, start, 1e-2)
        assert want[3] == "tolerance"
        np.testing.assert_array_equal(labels, want[0])
        np.testing.assert_allclose(centers, want[1], rtol=1e-12)
        assert inertia == pytest.approx(want[2], rel=1e-12)
        # the run that waits for repeated labels ends elsewhere
        assert (oracles.ref_lloyd(X, start, 0.0)[0] != labels).any()

    def test_k_bounds(self):
        X = np.zeros((4, 1))
        with pytest.raises(ValueError, match="k must be"):
            kmeans(X, 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="k must be"):
            kmeans(X, 5, np.random.default_rng(0))


class TestAdjustedRandIndex:
    def test_crossed_pairs_hand_value(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == \
            pytest.approx(-0.5, rel=1e-12)

    def test_identical_partitions_score_one(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
        assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0
        assert adjusted_rand_index([3, 3, 3], [0, 0, 0]) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_one_element_labelings_score_one(self):
        # a single element has no pairs: both partitions are {{x}}
        assert adjusted_rand_index([0], [0]) == 1.0
        assert adjusted_rand_index([4], [7]) == 1.0

    def test_constant_against_structured_scores_zero(self):
        assert adjusted_rand_index([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0
        assert adjusted_rand_index([0, 1, 0, 1], [2, 2, 2, 2]) == 0.0

    def test_symmetric_and_label_invariant(self):
        rng = np.random.default_rng(64)
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 4, size=40)
        assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)
        relabeled = np.array([10, 7, 99])[a]
        assert adjusted_rand_index(relabeled, b) == adjusted_rand_index(a, b)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            adjusted_rand_index([0, 1], [0, 1, 2])
        with pytest.raises(ValueError, match="non-empty"):
            adjusted_rand_index([], [])


class TestClusteringHypothesis:
    def test_planted_structure_scores_high(self):
        # the planted dataset carries its class labels as the target
        d = make_planted(SynthSpec(m=120, n_informative=4, n_noise=0,
                                   clusters=3, separation=8.0, seed=2))
        assert clustering_hypothesis_ari(d, seed=0) > 0.9

    def test_seeded_and_overridable(self):
        d = make_planted(SynthSpec(m=60, n_informative=3, n_noise=2,
                                   clusters=3, separation=5.0, seed=4))
        a = clustering_hypothesis_ari(d, seed=3, runs=5)
        assert a == clustering_hypothesis_ari(d, seed=3, runs=5)
        assert isinstance(clustering_hypothesis_ari(d, class_count=2,
                                                    seed=3, runs=3), float)

    def test_validation(self):
        X = np.random.default_rng(0).uniform(size=(10, 2))
        bare = numeric_dataset(X)
        with pytest.raises(ValueError, match="target"):
            clustering_hypothesis_ari(bare)
        flat = numeric_dataset(X, target=np.ones(10))
        with pytest.raises(ValueError, match="two classes"):
            clustering_hypothesis_ari(flat)
        ok = numeric_dataset(X, target=np.arange(10) % 2)
        with pytest.raises(ValueError, match="runs"):
            clustering_hypothesis_ari(ok, runs=0)


class TestNemenyi:
    def test_two_methods_twenty_six_datasets(self):
        assert nemenyi_cd(2, 26) == pytest.approx(
            1.959964 * np.sqrt(2 * 3 / (6 * 26.0)))
        assert nemenyi_cd(2, 26) == pytest.approx(0.38438, abs=5e-5)

    def test_table_bounds_and_alpha(self):
        # the table is written for the one level every comparison records
        assert evaluate.ALPHA == 0.05
        assert compare_methods(np.eye(3)).alpha == evaluate.ALPHA
        with pytest.raises(ValueError, match="2..10"):
            nemenyi_cd(1, 10)
        with pytest.raises(ValueError, match="2..10"):
            nemenyi_cd(11, 10)

    def test_grows_with_methods_shrinks_with_datasets(self):
        assert nemenyi_cd(3, 20) > nemenyi_cd(2, 20)
        assert nemenyi_cd(2, 40) < nemenyi_cd(2, 20)


def eighteen_eight_matrix():
    """26 paired results: the first method wins 18 times, loses 8."""
    mse = np.ones((26, 2))
    mse[:18, 0] = 0.5
    mse[18:, 1] = 0.5
    return mse


class TestCompareMethods:
    def test_matches_scipy_on_tie_free_matrices(self):
        # scipy's version needs three methods or more; the two-method case
        # is pinned by the hand-computed values below instead
        rng = np.random.default_rng(65)
        for datasets, methods in ((12, 3), (26, 4), (9, 5)):
            R = rng.uniform(size=(datasets, methods))
            report = compare_methods(R)
            chi2, p = sstats.friedmanchisquare(*(R[:, j]
                                                 for j in range(methods)))
            assert report.friedman_chi2 == pytest.approx(chi2, rel=1e-10)
            assert report.p_value == pytest.approx(p, rel=1e-10)

    def test_exactly_zero_on_fully_tied_results(self):
        report = compare_methods(np.ones((8, 3)))
        assert report.friedman_chi2 == 0.0
        assert report.p_value == 1.0
        assert report.average_ranks == (2.0, 2.0, 2.0)

    def test_eighteen_wins_out_of_twenty_six(self):
        report = compare_methods(eighteen_eight_matrix(),
                                 method_names=("a", "b"))
        assert report.friedman_chi2 == pytest.approx(100 / 26, rel=1e-12)
        assert report.p_value < 0.05
        assert report.average_ranks[0] == pytest.approx(34 / 26)
        assert report.average_ranks[1] == pytest.approx(44 / 26)
        assert report.iman_davenport_f == pytest.approx(2500 / 576, rel=1e-12)
        assert report.iman_davenport_p == pytest.approx(0.0476, abs=5e-4)
        # the rank gap 10/26 barely clears the critical distance 0.38438
        assert report.indistinguishable_pairs == ()

    def test_perfect_concordance_leaves_f_unbounded(self):
        # method 0 wins on both datasets: chi2 = 2 = n (k - 1), so the
        # Iman-Davenport denominator is 0
        report = compare_methods([[0.1, 0.2], [0.3, 0.4]])
        assert report.friedman_chi2 == 2.0
        assert report.iman_davenport_f is None
        assert report.iman_davenport_p == 0.0

    def test_seventeen_wins_is_not_separable(self):
        mse = np.ones((26, 2))
        mse[:17, 0] = 0.5
        mse[17:, 1] = 0.5
        report = compare_methods(mse)
        assert report.indistinguishable_pairs == ((0, 1),)

    def test_rank_ties_share_the_average(self):
        R = np.array([[1.0, 1.0, 2.0],
                      [3.0, 1.0, 2.0]])
        report = compare_methods(R)
        np.testing.assert_array_equal(report.ranks,
                                      [[1.5, 1.5, 3.0], [3.0, 1.0, 2.0]])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2x2"):
            compare_methods(np.ones((1, 3)))
        with pytest.raises(ValueError, match="at least 2x2"):
            compare_methods(np.ones((3, 1)))
        with pytest.raises(ValueError, match="at least 2x2"):
            compare_methods(np.ones(4))
        bad = np.ones((3, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            compare_methods(bad)
        with pytest.raises(ValueError, match="name lists"):
            compare_methods(np.ones((3, 2)), method_names=("a",))

    def test_csv_mirror(self, tmp_path):
        report = compare_methods(eighteen_eight_matrix(),
                                 method_names=("a", "b"))
        path = tmp_path / "cmp.csv"
        comparison_to_csv(report, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "dataset,a,b"
        assert len(lines) == 26 + 2
        assert lines[-1].startswith("average_rank,")
        tail = [float(v) for v in lines[-1].split(",")[1:]]
        assert tail == [report.average_ranks[0], report.average_ranks[1]]


class TestReportJson:
    def test_comparison_report_round_trip(self):
        # the compare artifact embeds the report's fields under their own
        # names; JSON must carry them exactly
        report = compare_methods(eighteen_eight_matrix())
        payload = json.loads(json_text(dataclasses.asdict(report)))
        assert set(payload) == {f.name for f in dataclasses.fields(report)}
        assert payload["friedman_chi2"] == report.friedman_chi2
        assert payload["average_ranks"] == list(report.average_ranks)
        assert payload["mse"][0] == [0.5, 1.0]
