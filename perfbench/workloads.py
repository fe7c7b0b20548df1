"""The benchmark workloads: input generation, one operation, checks.

Each workload is a closed loop: one client in one process, and operation
i + 1 starts only after operation i has finished. All inputs derive from
the workload seed through ``derive``; the package under test only ever sees
the generated inputs.

* ``planted-et``: the unit of ``ufrank rank`` on the paper-shaped table. A
  planted 200x50 table is written to CSV; the op reads it back through
  load_csv, builds ET-100 (log2 subset) at workers=2 and scores it with
  genie3, symbolic and rf-score. Tree growth, rf-score routing and
  permutation streams, and process-pool dispatch; no URelief and no 1NN.
* ``urelief-curve``: the unit of ``ufrank curve``: the error curve of
  URelief (K=30, I=100) on a planted 4000x50 table with a 10-fold plan,
  workers=1. URelief distance work and 1NN scoring; no tree is grown, so
  it is the no-change control for tree work.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from ufrank import data, evaluate, forest, rankers, scores, streams, synth

# trees replayed to time one rf-score permutation stream, and queries per
# k-grid point checked against the public 1NN predictor
STREAM_TREES = 5
NN_QUERIES = 40


def derive(seed: int, *key: int) -> int:
    """A non-negative 32-bit seed determined by (workload seed, key...)."""
    state = np.random.SeedSequence([seed, *key]).generate_state(1, np.uint32)
    return int(state[0])


@dataclass
class Result:
    """What one operation produced, plus the benchmark's own timings of the
    calls it made (always taken, traced or not)."""

    rankings: list
    timings: dict = field(default_factory=dict)
    ensemble: object = None
    curve: object = None


def _timed(timings: dict, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    timings[name] = timings.get(name, 0.0) + time.perf_counter() - start
    return out


def ranking_problems(r, n: int) -> list[str]:
    problems = []
    if r.importance.shape != (n,) or not np.isfinite(r.importance).all():
        problems.append(f"{r.method}: importances not finite over {n} columns")
    if not np.array_equal(np.sort(r.order), np.arange(n)):
        problems.append(f"{r.method}: order is not a permutation of {n} columns")
    return problems


def recovery(r, informative) -> float:
    """Share of the planted columns found in the ranking's top 2 x planted."""
    informative = set(int(j) for j in informative)
    top = set(int(j) for j in r.top(min(2 * len(informative), r.n)))
    return len(top & informative) / len(informative)


class PlantedET:
    name = "planted-et"
    tag = 1
    workers = 2
    # the repeat of op 0 runs at one worker: byte-identical importances then
    # also check that the worker count does not change the result
    repeat_workers = 1

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def table(self, i: int) -> data.Dataset:
        return synth.make_planted(synth.SynthSpec(
            m=200, n_informative=5, n_noise=45, clusters=4, separation=6.0,
            seed=derive(self.seed, self.tag, i)))

    def setup_table(self) -> data.Dataset:
        return self.table(0)

    def inputs(self, i: int):
        d = self.table(i)
        path = self.workdir / f"planted-{i}.csv"
        data.write_csv(d, path)
        cfg = forest.EnsembleConfig(forest.EXTRA_TREES, 100, "log2",
                                    d.meta["spec"]["seed"])
        return path, cfg, d.meta["informative"]

    def run(self, inp, workers: int) -> Result:
        path, cfg, _ = inp
        t: dict = {}
        d = _timed(t, "load_csv", data.load_csv, path, target_column="target")
        e = _timed(t, "build", forest.build, d, cfg, workers)
        rs = [_timed(t, "genie3", scores.genie3, e),
              _timed(t, "symbolic", scores.symbolic, e),
              _timed(t, "rf_score", scores.random_forest_score, e)]
        return Result(rs, t, ensemble=e)

    def informative(self, inp):
        return inp[2]

    def check(self, inp, res: Result) -> list[str]:
        n = res.ensemble.dataset.n
        problems = [p for r in res.rankings for p in ranking_problems(r, n)]
        if res.rankings[2].provenance.get("trees_used", 0) < 1:
            problems.append("rf-score used no tree")
        return problems

    def extras(self, inp, res: Result) -> dict:
        return {"streams.stream_us": stream_us(res.ensemble),
                "data.csv_mb": inp[0].stat().st_size / 1e6}

    def parallel_numbers(self, inp, serial: Result) -> dict:
        """Pickled size of one build chunk's task and the two-worker
        efficiency of ``build``, against the one-worker build of the same
        inputs (the repeat of op 0)."""
        path, cfg, _ = inp
        d = data.load_csv(path, target_column="target").without_target()
        chunk = np.array_split(np.arange(cfg.n_trees), self.workers)[0]
        task = (d, data.compute_stats(d), cfg.policy(d.n), cfg.seed,
                [int(t) for t in chunk])
        start = time.perf_counter()
        forest.build(d, cfg, self.workers)
        parallel = time.perf_counter() - start
        return {"parallel.task_mb": len(pickle.dumps(task)) / 1e6,
                "parallel.efficiency":
                    serial.timings["build"] / (self.workers * parallel)}

    def cleanup(self, inp) -> None:
        inp[0].unlink(missing_ok=True)


class UReliefCurve:
    name = "urelief-curve"
    tag = 2
    workers = 1
    repeat_workers = 1
    folds = 10
    tracer = None

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.table = synth.make_planted(synth.SynthSpec(
            m=4000, n_informative=5, n_noise=45, clusters=4, separation=6.0,
            seed=derive(seed, self.tag, 0)))

    def setup_table(self) -> data.Dataset:
        return self.table

    def inputs(self, i: int):
        s = derive(self.seed, self.tag, 1, i)
        return self.table, s

    def run(self, inp, workers: int) -> Result:
        d, s = inp
        t: dict = {}
        recorder = RankerRecorder(rankers.make_ranker(
            "urelief", neighbors=30, iterations=100, seed=s, workers=workers),
            self.tracer)
        plan = _timed(t, "fold_plan", evaluate.FoldPlan.make, d.m, self.folds, s)
        curve = _timed(t, "error_curve", evaluate.error_curve, d, recorder, plan)
        t["ranker"] = recorder.seconds
        return Result(recorder.rankings, t, curve=(curve, plan))

    def informative(self, inp):
        return inp[0].meta["informative"]

    def check(self, inp, res: Result) -> list[str]:
        d = inp[0]
        curve, plan = res.curve
        problems = [p for r in res.rankings for p in ranking_problems(r, d.n)]
        if len(res.rankings) != plan.n_folds:
            problems.append(f"{len(res.rankings)} fold rankings for {plan.n_folds} folds")
        if curve.k_values[-1] != d.n:
            problems.append("the k grid does not end at n")
        for i in range(plan.n_folds):
            own = direct_nn_mse(d, plan.train_rows(i), plan.test_rows(i))
            if curve.fold_mse[i, -1] != own:
                problems.append(f"fold {i}: k=n MSE {curve.fold_mse[i, -1]!r} "
                                f"!= direct-difference 1NN MSE {own!r}")
        return problems

    def extras(self, inp, res: Result) -> dict:
        """1NN work as a count, and picks of the package's public 1NN
        predictor that differ from the direct-difference argmin, over the
        first NN_QUERIES test rows of fold 0 at every k of the grid."""
        d = inp[0]
        curve, plan = res.curve
        grid = sum(curve.k_values)
        cells = sum(plan.test_rows(i).size * plan.train_rows(i).size * grid
                    for i in range(plan.n_folds))
        by_index = data.Dataset(d.name, d.attr_names, d.kinds, d.X,
                                np.arange(d.m, dtype=np.float64))
        train, test = plan.train_rows(0), plan.test_rows(0)[:NN_QUERIES]
        mismatches = checked = 0
        for k in curve.k_values:
            attrs = np.sort(res.rankings[0].top(k))
            own = train[direct_picks(d.X[np.ix_(test, attrs)],
                                     d.X[np.ix_(train, attrs)])]
            for q, row in enumerate(test):
                got = evaluate.knn_predict(by_index, train, d.X[row], attrs)
                mismatches += int(got != own[q])
                checked += 1
        return {"evaluate.nn_cells": cells, "evaluate.nn_mismatch": mismatches,
                "evaluate.nn_checked": checked}

    def cleanup(self, inp) -> None:
        pass


class RankerRecorder:
    """Wraps the ranker handed to error_curve: keeps each fold's ranking for
    the checks, totals the time spent inside the ranker, and opens a
    ``rankers.ranker`` span around each call while an operation is traced."""

    def __init__(self, ranker, tracer=None):
        self.ranker = ranker
        self.tracer = tracer
        self.rankings: list = []
        self.seconds = 0.0

    def __call__(self, d):
        start = time.perf_counter()
        if self.tracer is not None and self.tracer.active:
            with self.tracer.span("rankers.ranker"):
                r = self.ranker(d)
        else:
            r = self.ranker(d)
        self.seconds += time.perf_counter() - start
        self.rankings.append(r)
        return r


def stream_us(e) -> float:
    """Median time of one rf-score permutation draw, replayed with the
    package's public stream for the first STREAM_TREES trees."""
    times = []
    for t in range(min(STREAM_TREES, e.n_trees)):
        size = e.oobs[t].size
        for j in range(e.dataset.n):
            start = time.perf_counter()
            streams.stream(e.config.seed, streams.OOB_PERMUTATION, t, j).permutation(size)
            times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e6


def direct_picks(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Index into B of each row of A's nearest row, from direct squared
    differences; ties go to the smallest index."""
    return cdist(A, B, "sqeuclidean").argmin(axis=1)


def direct_nn_mse(d: data.Dataset, train: np.ndarray, test: np.ndarray) -> float:
    """Test-fold MSE of 1NN over all columns, evaluated the way error_curve
    evaluates it but with the neighbour picked by direct differences."""
    preds = d.target[train][direct_picks(d.X[test], d.X[train])]
    diff = preds - d.target[test]
    return float((diff * diff).mean())


WORKLOADS = {w.name: w for w in (PlantedET, UReliefCurve)}
