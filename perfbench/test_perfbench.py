"""Tests of the benchmark's own pieces (not part of the package's suite):

    python3 -m pytest -q perfbench
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from measure import layer_numbers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Result  # noqa: E402

from ufrank import data, forest, scores, streams, synth  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _table(name, seed, tmp_path):
    """The workload's op-1 input table (and its set-up table) for a seed."""
    wl = WORKLOADS[name]()
    wl.prepare(seed, tmp_path)
    if name == "planted-et":
        return wl.table(1), wl.setup_table()
    return wl.inputs(1)[0], wl.setup_table()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic_per_seed(name, tmp_path):
    a, a0 = _table(name, 7, tmp_path)
    b, b0 = _table(name, 7, tmp_path)
    c, c0 = _table(name, 8, tmp_path)
    assert a.X.tobytes() == b.X.tobytes() and a0.X.tobytes() == b0.X.tobytes()
    assert a.kinds == b.kinds and a.meta == b.meta
    assert a0.X.tobytes() != c0.X.tobytes()
    if name != "urelief-curve":  # one table per run; ops vary the seeds
        assert a.X.tobytes() != c.X.tobytes()


def test_urelief_curve_op_seeds_differ_across_ops_and_seeds(tmp_path):
    wl = WORKLOADS["urelief-curve"]()
    wl.prepare(7, tmp_path)
    seeds = {wl.inputs(i)[1] for i in range(5)}
    wl.prepare(8, tmp_path)
    seeds |= {wl.inputs(i)[1] for i in range(5)}
    assert len(seeds) == 10


def test_planted_et_reads_back_exactly_the_generated_table(tmp_path):
    wl = WORKLOADS["planted-et"]()
    wl.prepare(3, tmp_path)
    inp = wl.inputs(0)
    d = data.load_csv(inp[0], target_column="target")
    generated = wl.table(0)
    assert d.X.tobytes() == generated.X.tobytes()
    assert d.target.tobytes() == generated.target.tobytes()
    assert tuple(inp[2]) == generated.meta["informative"]
    wl.cleanup(inp)
    assert not inp[0].exists()


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert not NAME.fullmatch("bad name") and not NAME.fullmatch(".x")


def test_tail_refuses_a_percentile_with_fewer_than_ten_samples_beyond():
    assert stats.tail([]) is None
    assert stats.tail(list(range(19))) is None
    t = stats.tail(list(range(20)))
    assert (t["percentile"], t["beyond"], t["samples"]) == (50.0, 10, 20)
    assert sum(x > t["value"] for x in range(20)) == 10
    t = stats.tail(list(range(100)))
    assert (t["percentile"], t["beyond"]) == (90.0, 10)
    assert sum(x > t["value"] for x in range(100)) == 10
    t = stats.tail(list(range(1000)))
    assert (t["percentile"], t["beyond"]) == (99.0, 10)


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([10.0] * 10) == 0.0
    assert stats.spread([0.0] * 10) is None
    q1, med, q3 = 2.75, 5.5, 8.25  # statistics.quantiles of 1..10
    assert stats.spread(range(1, 11)) == pytest.approx((q3 - q1) / med)


def test_traced_op_spans_cover_the_layers_and_restore_the_package():
    d = synth.make_planted(synth.SynthSpec(m=40, n_informative=2, n_noise=4, seed=2))
    cfg = forest.EnsembleConfig(n_trees=3, seed=2)
    originals = (forest.build, streams.stream, forest.grow_tree)
    tracer = Tracer()
    with tracer.installed(5), tracer.span("op"):
        e = forest.build(d, cfg)
        rankings = [scores.genie3(e), scores.random_forest_score(e)]
    assert (forest.build, streams.stream, forest.grow_tree) == originals
    assert not tracer.active

    spans = tracer.spans
    assert all(s.op == 5 and s.end >= s.start for s in spans)
    assert all(-1 <= s.parent < s.index for s in spans)
    names = {s.name for s in spans}
    assert {"forest.build", "tree.grow_tree", "tree.from_node", "tree.workspace",
            "tree.route", "streams.stream", "scores.rf_score"} <= names
    assert sum(s.name == "tree.grow_tree" for s in spans) == 3

    numbers = layer_numbers(spans, Result(rankings, ensemble=e), {})
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(numbers) <= per_layer
    assert numbers["forest.calls"] == 1 and numbers["urelief.calls"] == 0
    assert numbers["tree.nodes"] == np.mean([f.attr.size for f in e.flats])
    assert numbers["streams.rf_streams"] == rankings[1].provenance["trees_used"] * d.n
    assert all(numbers[f"{layer}.self_s"] >= 0 for layer in
               ("data", "streams", "tree", "forest", "scores"))


def test_run_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    bench = tmp_path / HERE.name
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                          "planted-et", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
