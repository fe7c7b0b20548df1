import importlib
import tracemalloc

import numpy as np
import pytest

import oracles
from ufrank import (Dataset, Nominal, Numeric, UReliefConfig, compute_stats,
                    urelief, urelief_state)
from ufrank.urelief import _Kernel, _contributions

# the package namespace binds the name ``urelief`` to the function
urelief_module = importlib.import_module("ufrank.urelief")


def numeric_dataset(values, name="t"):
    X = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if X.shape[0] == 1:
        X = X.T
    kinds = [Numeric()] * X.shape[1]
    return Dataset(name, [f"x{j}" for j in range(X.shape[1])], kinds, X)


class TestDistances:
    """The per-attribute distances d_i and the example distance d_X that
    URelief computes from one reference row to every row."""

    def distances_to(self, d, r):
        return _Kernel.make(d, compute_stats(d)).exact(r, np.arange(d.m))

    def test_numeric_scaled_by_training_range(self):
        d = numeric_dataset([0.0, 5.0, 10.0])
        dm, _ = self.distances_to(d, 0)
        assert dm[2, 0] == 1.0
        assert dm[1, 0] == 0.5
        assert self.distances_to(d, 1)[0][1, 0] == 0.0

    def test_constant_numeric_attribute_contributes_zero(self):
        d = numeric_dataset([[3.0, 1.0], [3.0, 2.0]])
        dm, _ = self.distances_to(d, 0)
        assert dm[1, 0] == 0.0
        assert dm[1, 1] == 1.0

    def test_nominal_is_the_inequality_indicator(self):
        d = Dataset("n", ["k"], [Nominal(("u", "v", "w"))],
                    np.array([[0.0], [1.0], [0.0]]))
        dm, _ = self.distances_to(d, 0)
        assert dm[1, 0] == 1.0
        assert dm[2, 0] == 0.0

    def test_example_distance_is_the_mean(self):
        d = Dataset("m", ["a", "k"], [Numeric(), Nominal(("u", "v"))],
                    np.array([[0.0, 0.0], [4.0, 1.0], [8.0, 0.0]]))
        _, dx = self.distances_to(d, 0)
        assert dx[1] == pytest.approx((0.5 + 1) / 2)
        assert dx[2] == pytest.approx((1.0 + 0) / 2)
        assert dx[0] == 0.0


def kernel_tables():
    """(dataset, K) pairs that stress the block kernel: mixed kinds, a
    constant numeric column, a large offset with a tiny spread over enough
    columns that the order of d_X's summation shows, distinct rows tied at
    the K-th distance, duplicate rows that put more than K rows at the K-th
    distance, a range that overflows to inf, which makes some d_X NaN
    and, for some references, the K-th distance too, and rows whose d_X from
    a reference differ only in the last bits, where the screen's margin
    decides which rows reach the exact check."""
    rng = np.random.default_rng(51)
    yield oracles.random_mixed_dataset(rng, 40, 6), 7
    X = rng.uniform(size=(30, 4))
    X[:, 2] = 7.0
    yield numeric_dataset(X), 6
    yield numeric_dataset(1e5 + 1e-4 * rng.normal(size=(35, 40))), 8
    # three nominal columns: d_X takes four values, so distinct rows tie
    X = rng.integers(0, 3, size=(40, 3)).astype(np.float64)
    yield Dataset("ties", ["p", "q", "r"], [Nominal(("u", "v", "w"))] * 3, X), 9
    # 6 distinct rows 12 times each, shuffled: every reference has 11 rows
    # at distance 0, more than K = 5
    base = np.column_stack([rng.uniform(size=6), rng.integers(0, 3, size=6),
                            rng.uniform(size=6)])
    X = np.repeat(base, 12, axis=0)[rng.permutation(72)]
    kinds = [Numeric(), Nominal(("u", "v", "w")), Numeric()]
    yield Dataset("dup", ["a", "k", "b"], kinds, X), 5
    # rows 0-4 at +1e308 and rows 5-9 at -1e308 are NaN apart, so each of
    # them has 14 other rows at a number and itself keyed at inf: with
    # K = 17 its K-th distance is NaN
    X = rng.uniform(size=(20, 3))
    X[:5, 0] = 1e308
    X[5:10, 0] = -1e308
    yield numeric_dataset(X), 17
    # row 0 all zeros and row 1 all ones fix every range to [0, 1]; the
    # other 60 rows permute one uniform vector, so from rows 0 and 1 their
    # d_X agree up to the rounding of a sum taken in another order
    v = rng.uniform(size=40)
    X = np.vstack([np.zeros(40), np.ones(40)]
                  + [rng.permutation(v) for _ in range(60)])
    for k in (5, 20, 40):
        yield numeric_dataset(X, name=f"near-tie-{k}"), k


def state_bytes(s):
    return (s.w.tobytes(), s.p_diff_attr.tobytes(),
            s.p_diff_attr_diff_clus.tobytes(),
            np.float64(s.p_diff_clus).tobytes())


def force_block(monkeypatch, d, block):
    """Set the block budget so that exactly ``block`` references fit."""
    monkeypatch.setattr(urelief_module, "_BLOCK_BUDGET", 8 * d.m * block)


class TestBlockKernel:
    """The block kernel against the per-reference form it replaced, and
    its state across block sizes and worker counts."""

    # the overflowing table warns on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("block", [1, 3, None])
    def test_contributions_equal_the_full_sort_form(self, monkeypatch, block):
        rng = np.random.default_rng(52)
        for d, k in kernel_tables():
            force_block(monkeypatch, d, block or d.m)
            # every row once, then draws with replacement
            refs = np.concatenate([np.arange(d.m),
                                   rng.integers(0, d.m, size=d.m)])
            got = _contributions(d, compute_stats(d), k, refs)
            assert len(got) == refs.size
            for r, part in zip(refs, got):
                want = oracles.ref_urelief_contribution(d, int(r), k)
                for a, b in zip(part, want):
                    assert np.float64(a).tobytes() == np.float64(b).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_screen_is_within_half_the_margin_of_the_exact_sum(self):
        # the candidate bound rho * kth + n * tiny holds if the screen and
        # n * d_X each stray from the same real sum by at most half of rho's
        # room; this checks the two against each other directly
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
        for d, _ in kernel_tables():
            kernel = _Kernel.make(d, compute_stats(d))
            refs = np.arange(d.m)
            screen = kernel.screen(refs, np.empty((d.m, d.m)))
            exact = d.n * np.vstack([kernel.exact(r, refs)[1] for r in refs])
            exact[refs, refs] = np.inf
            np.testing.assert_array_equal(np.isnan(screen), np.isnan(exact))
            np.testing.assert_array_equal(np.isinf(screen), np.isinf(exact))
            ok = np.isfinite(exact)
            room = 4 * (d.n + 4) * eps * exact[ok] + d.n * tiny
            assert (np.abs(screen[ok] - exact[ok]) <= room).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_state_is_byte_equal_across_blocks_and_workers(self, monkeypatch):
        for d, k in kernel_tables():
            for iterations in (d.m, 2 * d.m):
                cfg = UReliefConfig(neighbors=k, iterations=iterations, seed=4)
                states = []
                for block in (1, 3, d.m):
                    force_block(monkeypatch, d, block)
                    states.append(urelief_state(d, cfg))
                monkeypatch.undo()
                states.append(urelief_state(d, cfg, workers=2))
                want = state_bytes(states[0])
                for got in states[1:]:
                    assert state_bytes(got) == want

    def test_peak_memory_is_one_block_plus_a_few_tables(self):
        # a later change that grows the block past the budget shows up here
        d = numeric_dataset(np.random.default_rng(53).normal(size=(4000, 50)))
        table = 8 * d.m * d.n
        tracemalloc.start()
        try:
            urelief_state(d, UReliefConfig(neighbors=30, iterations=20, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= urelief_module._BLOCK_BUDGET + 2 * table


class TestConfig:
    def test_default_neighbors_capped_by_dataset(self):
        assert UReliefConfig().resolve(50) == (30, 50)
        assert UReliefConfig().resolve(10) == (9, 10)
        assert UReliefConfig(iterations=3).resolve(10) == (9, 3)

    def test_explicit_neighbors_must_fit(self):
        assert UReliefConfig(neighbors=9).resolve(10) == (9, 10)
        with pytest.raises(ValueError, match="neighbors=10"):
            UReliefConfig(neighbors=10).resolve(10)

    def test_field_validation(self):
        with pytest.raises(ValueError, match="neighbors"):
            UReliefConfig(neighbors=0)
        with pytest.raises(ValueError, match="iterations"):
            UReliefConfig(iterations=0)
        with pytest.raises(ValueError, match="seed"):
            UReliefConfig(seed=-2)

    def test_needs_two_examples(self):
        with pytest.raises(ValueError, match="two examples"):
            UReliefConfig().resolve(1)


class TestExactEnumeration:
    """With K = m-1 and I = m every ordered pair is visited once, so the
    state is a closed-form sum a literal double loop reproduces."""

    def check(self, d):
        cfg = UReliefConfig(neighbors=d.m - 1, iterations=d.m)
        got = urelief(d, cfg).importance
        want = oracles.ref_urelief_weights(d)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_random_fixtures(self):
        rng = np.random.default_rng(40)
        for case in range(12):
            m = int(rng.integers(4, 16))
            n = int(rng.integers(1, 5))
            self.check(oracles.random_mixed_dataset(rng, m, n))

    def test_numeric_only_fixture(self):
        rng = np.random.default_rng(41)
        self.check(numeric_dataset(rng.uniform(size=(15, 3))))
        # a constant numeric column has distance 0 between every pair
        X = rng.uniform(size=(12, 3))
        X[:, 1] = 4.0
        self.check(numeric_dataset(X))

    def test_visit_order_cannot_matter_when_every_row_is_visited(self):
        d = oracles.random_mixed_dataset(np.random.default_rng(42), 12, 3)
        cfg_a = UReliefConfig(iterations=12, seed=0)
        cfg_b = UReliefConfig(iterations=12, seed=505)
        np.testing.assert_array_equal(urelief(d, cfg_a).importance,
                                      urelief(d, cfg_b).importance)


class TestNeighborTies:
    def test_boundary_ties_go_to_the_smaller_row_index(self):
        # rows 1..3 each differ from row 0 on exactly one attribute, so all
        # sit at the same distance from it; with K = 1 the tie must resolve
        # to row 1, which shows up in the per-attribute estimates
        kinds = [Nominal(("p", "q"))] * 3
        X = np.array([[0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]])
        d = Dataset("tie", ["a", "b", "c"], kinds, X)
        state = urelief_state(d, UReliefConfig(neighbors=1))
        # visited pairs: (0,1), (1,0), (2,0), (3,0)
        np.testing.assert_allclose(state.p_diff_attr, [0.5, 0.25, 0.25])
        assert state.p_diff_clus == pytest.approx(1 / 3)


class TestInvariants:
    def test_duplicated_column_gets_the_same_weight(self):
        rng = np.random.default_rng(43)
        base = rng.uniform(size=(20, 4))
        X = np.column_stack([base, base[:, 1]])
        d = numeric_dataset(X)
        w = urelief(d).importance
        assert abs(w[1] - w[4]) <= 1e-12

    def test_doubling_every_column_changes_nothing(self):
        rng = np.random.default_rng(44)
        base = rng.uniform(size=(18, 3))
        d = numeric_dataset(base)
        doubled = numeric_dataset(np.column_stack([base, base]))
        w = urelief(d).importance
        w2 = urelief(doubled).importance
        np.testing.assert_allclose(w2[:3], w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w2[3:], w, rtol=0, atol=1e-12)

    def test_probability_estimates_are_consistent(self):
        rng = np.random.default_rng(45)
        for case in range(8):
            m = int(rng.integers(5, 25))
            n = int(rng.integers(1, 5))
            d = oracles.random_mixed_dataset(rng, m, n)
            state = urelief_state(d, UReliefConfig(seed=case))
            assert 0.0 <= state.p_diff_clus <= 1.0
            assert (state.p_diff_attr >= 0.0).all()
            assert (state.p_diff_attr <= 1.0).all()
            assert (state.p_diff_attr_diff_clus
                    <= state.p_diff_attr + 1e-12).all()
            assert (np.abs(state.w) <= 1.0 + 1e-12).all()

    def test_identical_rows_give_all_zero_weights(self):
        X = np.tile([[2.0, 0.0, 7.0]], (6, 1))
        d = Dataset("flat", ["a", "k", "b"],
                    [Numeric(), Nominal(("u", "v")), Numeric()], X)
        state = urelief_state(d, UReliefConfig())
        np.testing.assert_array_equal(state.w, np.zeros(3))
        assert state.p_diff_clus == 0.0
        np.testing.assert_array_equal(urelief(d).importance, np.zeros(3))


class TestIterationModes:
    def test_subsampled_runs_are_seeded(self):
        d = oracles.random_mixed_dataset(np.random.default_rng(46), 30, 3)
        cfg = UReliefConfig(iterations=8, seed=5)
        np.testing.assert_array_equal(urelief(d, cfg).importance,
                                      urelief(d, cfg).importance)
        other = urelief(d, UReliefConfig(iterations=8, seed=6)).importance
        assert not np.array_equal(urelief(d, cfg).importance, other)

    def test_more_iterations_than_rows_draws_with_replacement(self):
        d = oracles.random_mixed_dataset(np.random.default_rng(47), 10, 3)
        cfg = UReliefConfig(iterations=35, seed=1)
        w = urelief(d, cfg).importance
        np.testing.assert_array_equal(w, urelief(d, cfg).importance)
        assert not np.array_equal(
            w, urelief(d, UReliefConfig(iterations=35, seed=2)).importance)

    def test_worker_count_never_changes_the_state(self):
        d = oracles.random_mixed_dataset(np.random.default_rng(48), 16, 3)
        for iterations in (16, 40):
            cfg = UReliefConfig(iterations=iterations, seed=3)
            one = urelief_state(d, cfg, workers=1)
            two = urelief_state(d, cfg, workers=2)
            np.testing.assert_array_equal(one.w, two.w)
            np.testing.assert_array_equal(one.p_diff_attr, two.p_diff_attr)
            np.testing.assert_array_equal(one.p_diff_attr_diff_clus,
                                          two.p_diff_attr_diff_clus)
            assert one.p_diff_clus == two.p_diff_clus


class TestRankingWrapper:
    def test_provenance_reports_resolved_settings(self):
        d = oracles.random_mixed_dataset(np.random.default_rng(49), 12, 3)
        r = urelief(d, UReliefConfig(seed=7))
        assert r.method == "urelief"
        assert r.provenance == {"method": "urelief", "dataset": d.name,
                                "neighbors": 11, "iterations": 12, "seed": 7}

    def test_order_follows_the_weights(self):
        d = oracles.random_mixed_dataset(np.random.default_rng(50), 14, 4)
        r = urelief(d)
        w = r.importance
        assert all(w[r.order[i]] >= w[r.order[i + 1]]
                   for i in range(r.n - 1))
