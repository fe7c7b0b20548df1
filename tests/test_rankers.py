import dataclasses
import pickle

import numpy as np
import pytest

from ufrank import (EnsembleConfig, SynthSpec, UReliefConfig, genie3,
                    make_planted, make_ranker, random_forest_score, symbolic,
                    urelief)
from ufrank.forest import build
from ufrank.rankers import METHODS, EnsembleRanker, UReliefRanker


def small_dataset(seed=0):
    d = make_planted(SynthSpec(m=30, n_informative=2, n_noise=3, clusters=2,
                               separation=6.0, seed=seed))
    return d.without_target()


class TestMakeRanker:
    def test_method_dispatch(self):
        assert isinstance(make_ranker("genie3"), EnsembleRanker)
        assert isinstance(make_ranker("symbolic"), EnsembleRanker)
        assert isinstance(make_ranker("rf-score", ensemble="rf"), EnsembleRanker)
        assert isinstance(make_ranker("urelief", neighbors=5), UReliefRanker)
        with pytest.raises(ValueError, match="unknown method"):
            make_ranker("pca")

    def test_knobs_reach_the_configs(self):
        r = make_ranker("genie3", trees=7, ensemble="rf", subset_rule="sqrt",
                        seed=11, workers=2)
        assert r.config == EnsembleConfig(method="rf", n_trees=7,
                                          subset_rule="sqrt", seed=11)
        assert r.workers == 2
        u = make_ranker("urelief", neighbors=4, iterations=25, seed=11)
        assert u.config == UReliefConfig(neighbors=4, iterations=25, seed=11)

    def test_bad_knobs_propagate(self):
        with pytest.raises(ValueError, match="ensemble method"):
            make_ranker("genie3", ensemble="boosting")
        with pytest.raises(ValueError, match="neighbors"):
            make_ranker("urelief", neighbors=0)

    def test_rankers_are_picklable(self):
        # process pools ship rankers to workers, so they must round trip
        for method in METHODS:
            ranker = make_ranker(method, trees=2, seed=4)
            clone = pickle.loads(pickle.dumps(ranker))
            assert clone == ranker


class TestRankerCalls:
    def test_produced_rankings_carry_the_method_name(self):
        d = small_dataset()
        for method in METHODS:
            ranker = make_ranker(method, trees=3, neighbors=5, seed=1)
            r = ranker(d)
            assert r.method == method
            assert r.n == d.n

    def test_ensemble_ranker_matches_direct_pipeline(self):
        d = small_dataset(seed=2)
        cfg = EnsembleConfig(method="et", n_trees=5, subset_rule="log2", seed=3)
        e = build(d, cfg)
        pairs = [("genie3", genie3), ("symbolic", symbolic),
                 ("rf-score", random_forest_score)]
        for method, scorer in pairs:
            got = make_ranker(method, trees=5, seed=3)(d)
            np.testing.assert_array_equal(got.importance, scorer(e).importance)

    def test_urelief_ranker_matches_direct_call(self):
        d = small_dataset(seed=4)
        cfg = UReliefConfig(neighbors=6, iterations=20, seed=5)
        direct = urelief(d, cfg)
        got = make_ranker("urelief", neighbors=6, iterations=20, seed=5)(d)
        np.testing.assert_array_equal(got.importance, direct.importance)
        assert got.provenance == direct.provenance


class TestSettings:
    def test_each_config_field_has_one_artifact_key(self):
        for cfg in (EnsembleConfig(), UReliefConfig()):
            assert len(cfg.settings()) == len(dataclasses.fields(cfg))
        assert EnsembleConfig("rf", 7, "sqrt", 3).settings() == {
            "ensemble": "rf", "trees": 7, "subset_rule": "sqrt", "seed": 3}
        assert UReliefConfig(4, None, 2).settings() == {
            "neighbors": 4, "iterations": None, "seed": 2}

    def test_rankings_record_the_ranker_settings(self):
        # URelief's K and I are recorded as resolved on the table ranked
        d = small_dataset(seed=6)
        for method in METHODS:
            ranker = make_ranker(method, trees=3, neighbors=5, seed=2)
            provenance = ranker(d).provenance
            assert provenance["dataset"] == d.name
            resolved = {**ranker.settings, "iterations": d.m} if (
                method == "urelief") else ranker.settings
            assert {key: provenance[key] for key in ranker.settings} == resolved
