"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single PASS line with the
measured evidence when it holds, and `pytest -v` supplies the per-test
verdict. The slow entries (4 and 5) run full-size planted benchmarks, so
this file takes several minutes on one core.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import oracles
from ufrank import (ALL_THRESHOLDS, ComputationError, Dataset, EnsembleConfig,
                    FoldPlan, Numeric, SplitSearchPolicy, SynthSpec,
                    UReliefConfig, best_test, compare_methods, compute_stats,
                    cv_mse, error_curve, genie3, load_csv, make_planted,
                    make_ranker, random_forest_score, urelief)
from ufrank.cli import main as cli_main
from ufrank.forest import build


def note(num, message):
    print(f"[criterion {num:02d}] PASS - {message}")


# --- 1: split search against a brute-force maximizer ----------------------

def assert_is_maximizer(d, rows, got, candidates):
    """Accept the unique maximizer, or any member of the tie set when
    distinct tests achieve equal h (same induced partition, separated only
    by float noise)."""
    hmax, ties = oracles.ref_tie_set(candidates)
    rows = np.asarray(rows)
    if not ties:
        assert got.attr.tolist() == [-1] and np.isnan(got.value[0])
        assert got.h.tolist() == [0.0] and not got.yes.any()
        return
    assert got.attr[0] >= 0, f"missed a split with h={hmax}"
    assert got.h[0] == pytest.approx(hmax, rel=1e-9)
    kind = "category" if got.nominal[0] else "threshold"
    got_desc = (int(got.attr[0]), (kind, float(got.value[0])))
    for attr, descriptor, h, mask in ties:
        if (attr, descriptor) == got_desc:
            np.testing.assert_array_equal(rows[got.yes], rows[mask])
            np.testing.assert_array_equal(rows[~got.yes], rows[~mask])
            return
    pytest.fail(f"{got_desc} is not among the tied maximizers "
                f"{[(t[0], t[1]) for t in ties]}")


def test_criterion_01_split_search_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    for case in range(50):
        m = int(rng.integers(3, 13))
        n = int(rng.integers(1, 4))
        d = oracles.random_mixed_dataset(rng, m, n)
        stats = compute_stats(d)
        dens = oracles.ref_denominators(d, np.arange(d.m))
        rows = np.arange(m)
        seed = 510_000 + case
        got = best_test(d, rows, SplitSearchPolicy(d.n, ALL_THRESHOLDS),
                        stats, np.random.default_rng(seed))
        order = np.random.default_rng(seed).choice(d.n, size=d.n,
                                                   replace=False)
        cands = oracles.ref_candidates_all(d, rows, dens, order)
        assert_is_maximizer(d, rows, got, cands)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    note(1, f"best_test == brute-force maximizer on 50/50 random datasets "
            f"({elapsed:.2f}s)")


# --- 2: genie3 importance mass equals the h accumulated in the trees ------

def total_h_star(e):
    """Sum of h* over the internal nodes met by descending each tree's bag
    along its child links (oracles.ref_children)."""
    total = 0.0
    for flat, bag in zip(e.flats, e.in_bags):
        for i, _ in enumerate(oracles.ref_node_rows(e.dataset, flat, bag)):
            if flat.attr[i] >= 0:
                total += float(flat.h_star[i])
    return total


def test_criterion_02_genie3_mass_identity():
    worst = 0.0
    for seed in range(20):
        spec = SynthSpec(m=100, n_informative=4, n_noise=16, clusters=4,
                         separation=6.0, seed=seed)
        d = make_planted(spec).without_target()
        e = build(d, EnsembleConfig(method="et", n_trees=25, seed=seed))
        mass = float(genie3(e).importance.sum()) * e.n_trees
        ref = total_h_star(e)
        rel = abs(mass - ref) / abs(ref)
        worst = max(worst, rel)
        assert rel <= 1e-9
    note(2, f"sum(importance)*T == traversal sum of h_star on 20 ensembles "
            f"(worst rel err {worst:.2e})")


# --- 3: urelief against literal pair enumeration ---------------------------

def test_criterion_03_urelief_exact_enumeration():
    rng = np.random.default_rng(33)
    worst = 0.0
    for case in range(12):
        m = int(rng.integers(4, 16))
        n = int(rng.integers(1, 5))
        d = oracles.random_mixed_dataset(rng, m, n)
        cfg = UReliefConfig(neighbors=m - 1, iterations=m, seed=case)
        got = urelief(d, cfg).importance
        ref = oracles.ref_urelief_weights(d)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    note(3, f"all-pairs weights match enumeration on 12 fixtures "
            f"(worst abs err {worst:.2e})")


# --- 4: planted-feature recovery -------------------------------------------

def test_criterion_04_planted_recovery():
    t0 = time.perf_counter()
    genie_hits = 0
    urelief_hits = 0
    for seed in range(20):
        spec = SynthSpec(m=200, n_informative=5, n_noise=45, clusters=4,
                         separation=6.0, seed=seed)
        d = make_planted(spec)
        informative = set(d.meta["informative"])
        bare = d.without_target()
        g = genie3(build(bare, EnsembleConfig(seed=seed)))
        genie_hits += informative <= set(g.top(10))
        u = urelief(bare, UReliefConfig(neighbors=30, iterations=bare.m,
                                        seed=seed))
        urelief_hits += informative <= set(u.top(10))
    elapsed = time.perf_counter() - t0
    assert genie_hits >= 19, f"genie3 recovered on only {genie_hits}/20 seeds"
    assert urelief_hits >= 18, f"urelief recovered on only {urelief_hits}/20"
    assert elapsed < 60.0
    note(4, f"top-10 holds all 5 planted features: genie3 {genie_hits}/20, "
            f"urelief {urelief_hits}/20 ({elapsed:.1f}s)")


# --- 5: genie3 at least matches the permutation score downstream -----------

@dataclass
class SharedEnsembleRanker:
    """Ranker that builds one ensemble per training fold and lets several
    scorers share it. Exact, not approximate: both methods specify the
    same ensemble configuration, so the build is common work."""
    scorer: object
    config: EnsembleConfig
    cache: dict = field(default_factory=dict)

    def __call__(self, d):
        key = hashlib.sha1(d.X.tobytes()).hexdigest()
        e = self.cache.get(key)
        if e is None:
            e = self.cache[key] = build(d, self.config)
        return self.scorer(e)


def test_criterion_05_genie3_no_worse_than_rf_score_in_majority():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(20):
        spec = SynthSpec(m=200, n_informative=5, n_noise=45, clusters=4,
                         separation=6.0, seed=700 + seed)
        d = make_planted(spec)
        plan = FoldPlan.make(d.m, 10, seed)
        cfg = EnsembleConfig(method="et", n_trees=100, subset_rule="log2",
                             seed=seed)
        cache = {}
        g = cv_mse(d, SharedEnsembleRanker(genie3, cfg, cache), 16, plan)
        r = cv_mse(d, SharedEnsembleRanker(random_forest_score, cfg, cache),
                   16, plan)
        wins += g <= r
    elapsed = time.perf_counter() - t0
    assert wins >= 11, f"genie3 <= rf-score on only {wins}/20 seeds"
    note(5, f"genie3 cv_mse(k=16) <= rf-score on {wins}/20 seeds "
            f"({elapsed:.0f}s)")


def test_criterion_05_optional_madelon_check():
    path = os.environ.get("UFRANK_MADELON_CSV")
    if not path:
        pytest.skip("set UFRANK_MADELON_CSV to run the madelon comparison")
    target = os.environ.get("UFRANK_MADELON_TARGET", "target")
    d = load_csv(path, target_column=target)
    mse = cv_mse(d, make_ranker("genie3"), 16, FoldPlan.make(d.m, 10, 0))
    assert 31.79 * 0.8 <= mse <= 31.79 * 1.2
    note(5, f"madelon genie3 top-16 1NN 10-fold MSE {mse:.2f} "
            f"within 20% of 31.79")


# --- 6: error curves converge at the full feature count --------------------

def test_criterion_06_curves_meet_at_k_equal_n():
    # weak separation so the shared endpoint is a nonzero error, making
    # the exact-equality assertion informative
    spec = SynthSpec(m=60, n_informative=3, n_noise=7, clusters=3,
                     separation=1.5, seed=5)
    d = make_planted(spec)
    plan = FoldPlan.make(d.m, 5, 2)
    a = error_curve(d, make_ranker("genie3", trees=10, seed=3), plan)
    b = error_curve(d, make_ranker("urelief", neighbors=10, seed=3), plan)
    assert a.k_values[-1] == d.n and b.k_values[-1] == d.n
    assert a.mean_mse[-1] == b.mean_mse[-1]
    np.testing.assert_array_equal(a.fold_mse[:, -1], b.fold_mse[:, -1])
    note(6, f"both curves end at mse {a.mean_mse[-1]:.6f} at k=n={d.n}, "
            f"exactly equal")


# --- 7: random forests with the full attribute set are bagging -------------

def fingerprint(e):
    return ([oracles.flat_fingerprint(flat) for flat in e.flats],
            [bag.tolist() for bag in e.in_bags],
            [oob.tolist() for oob in e.oobs])


def test_criterion_07_full_subset_rf_reproduces_bagging():
    rng = np.random.default_rng(77)
    for seed in range(5):
        d = oracles.random_mixed_dataset(rng, 30, 5)
        rf = build(d, EnsembleConfig(method="rf", subset_rule="all",
                                     n_trees=8, seed=seed))
        bag = build(d, EnsembleConfig(method="bagging", n_trees=8, seed=seed))
        assert fingerprint(rf) == fingerprint(bag)
    note(7, "rf with n'=n is bit-identical to bagging on 5 seeds x 8 trees")


# --- 8: degenerate inputs ---------------------------------------------------

def test_criterion_08_degenerate_inputs():
    const = Dataset("flat", ("a", "b"), (Numeric(), Numeric()),
                    np.full((10, 2), 3.0))
    e = build(const, EnsembleConfig(n_trees=5, seed=0))
    np.testing.assert_array_equal(genie3(e).importance, np.zeros(2))
    np.testing.assert_array_equal(
        urelief(const, UReliefConfig(seed=0)).importance, np.zeros(2))
    with pytest.raises(ComputationError, match="undefined"):
        random_forest_score(e)

    rng = np.random.default_rng(8)
    base = rng.normal(size=(20, 3))
    dup = Dataset("dup", ("a", "b", "c", "a_copy"),
                  tuple(Numeric() for _ in range(4)),
                  np.column_stack([base, base[:, 0]]))
    w = urelief(dup, UReliefConfig(neighbors=5, iterations=20,
                                   seed=1)).importance
    assert abs(w[0] - w[3]) <= 1e-12

    semi = Dataset("semi", ("x", "y", "flat"),
                   (Numeric(), Numeric(), Numeric()),
                   np.column_stack([rng.normal(size=(25, 2)),
                                    np.full(25, 7.0)]))
    r = random_forest_score(build(semi, EnsembleConfig(n_trees=10, seed=2)))
    assert r.importance[2] == 0.0
    note(8, "constant data zeroes genie3/urelief and makes rf-score refuse; "
            "duplicate columns tie urelief; constant attr scores exactly 0")


# --- 9: rank statistics hand values ----------------------------------------

def test_criterion_09_friedman_hand_values():
    tied = np.ones((8, 3))
    rep = compare_methods(tied, ("m1", "m2", "m3"),
                          tuple(f"d{i}" for i in range(8)))
    assert rep.friedman_chi2 == 0.0

    mse = np.ones((26, 2))
    mse[:18, 0] = 0.5   # first method wins 18 of 26
    mse[18:, 1] = 0.5
    rep = compare_methods(mse, ("a", "b"),
                          tuple(f"d{i}" for i in range(26)))
    assert rep.friedman_chi2 == pytest.approx(100 / 26, rel=1e-12)
    assert rep.p_value < 0.05
    assert rep.iman_davenport_p == pytest.approx(0.0476, abs=5e-4)
    note(9, f"all-tied chi2 is 0; 18-of-26 wins give chi2 {rep.friedman_chi2:.4f}, "
            f"p {rep.p_value:.4f} < 0.05 (f-test p {rep.iman_davenport_p:.4f})")


# --- 10: worker counts never change artifacts -------------------------------

def run_ok(argv):
    assert cli_main(argv) == 0


def test_criterion_10_artifacts_identical_across_worker_counts(tmp_path,
                                                               capsys):
    data_dir = tmp_path / "data"
    for name, seed in (("probe", "3"), ("probe2", "4")):
        run_ok(["synth", "--m", "30", "--informative", "2", "--noise", "4",
                "--clusters", "2", "--seed", seed, "--name", name,
                "--out", str(data_dir)])
    csv = str(data_dir / "probe.csv")
    csv2 = str(data_dir / "probe2.csv")
    common = ["--data", csv, "--target-column", "target", "--seed", "1"]
    tree_knobs = ["--trees", "6"]

    produced: dict[str, list[bytes]] = {}
    for workers in ("1", "4", "8"):
        out = tmp_path / f"w{workers}"
        w = ["--workers", workers, "--out", str(out)]
        run_ok(["rank", *common, *tree_knobs, *w])
        for data in (csv, csv2):
            for method in ("genie3", "urelief"):
                run_ok(["eval", "--data", data, "--target-column", "target",
                        "--seed", "1", "--method", method, *tree_knobs,
                        "--folds", "3", "--top-k", "2", *w])
        run_ok(["curve", *common, *tree_knobs, "--folds", "3", *w])
        run_ok(["ari-check", *common, "--runs", "3", *w])
        run_ok(["compare",
                *(str(p) for p in sorted(out.glob("*_eval_1.json"))),
                "--out", str(out)])
        synth_dir = out / "synth"
        run_ok(["synth", "--m", "30", "--informative", "2", "--noise", "4",
                "--clusters", "2", "--seed", "3", "--name", "probe",
                "--out", str(synth_dir)])
        for path in sorted(out.rglob("*")):
            if path.is_file():
                produced.setdefault(str(path.relative_to(out)),
                                    []).append(path.read_bytes())
    capsys.readouterr()

    assert len(produced) >= 9  # json + csv mirrors for every command
    for name, blobs in produced.items():
        assert len(blobs) == 3, f"{name} missing from a worker run"
        assert blobs[0] == blobs[1] == blobs[2], f"{name} varies with workers"
    note(10, f"{len(produced)} artifact files byte-identical across "
             f"workers 1/4/8")
