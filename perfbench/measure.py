"""Run one workload's operations in a fresh interpreter and write a report.

run.py starts this script once per benchmark run, so the process holds
this workload only and its peak memory is the workload's own:

    python3 perfbench/measure.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --workdir DIR --report FILE

Op 0 is the warm-up. It is then repeated (at one worker on planted-et) and
both results must carry byte-identical importances. Ops 1, 2, ... follow
for ``--seconds``: the next op starts only while the previous one (with its
input generation and checks) says it will end in time, and at least
MIN_OPS of them run. Every op's output is checked outside its timed region.

With ``--trace 1`` odd ops are traced and even ops are not, at the same
worker count, so the report gives per-layer numbers from the traced ops and
the tracing overhead as the difference of the two medians.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import stats
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, recovery

from ufrank import parallel, streams

# ops after the warm-up that always run: the recovery figure comes from ops
# 0..MIN_OPS, so it does not depend on how many ops fit in the run
MIN_OPS = 3
MIN_TRACED_OPS = 4


def proc_cpu(pid: int) -> float:
    """User + system CPU seconds of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_now() -> float:
    """CPU of this process (all threads) plus its live pool workers."""
    return time.process_time() + sum(proc_cpu(p.pid)
                                     for p in multiprocessing.active_children())


def peak_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def per_call(spans, name: str) -> float:
    """Mean seconds per call of the named spans (0 without calls)."""
    xs = [s.seconds for s in spans if s.name == name]
    return sum(xs) / len(xs) if xs else 0.0


def total(spans, name: str) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def layer_numbers(spans, res, extras: dict) -> dict:
    """Per-layer numbers of one traced op from its spans and its output."""
    child_s: dict[int, float] = {}
    for s in spans:
        child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.name.split(".")[0] == layer]
        out[f"{layer}.self_s"] = sum(s.seconds - child_s.get(s.index, 0.0)
                                     for s in mine)
        out[f"{layer}.calls"] = len(mine)

    op_s = total(spans, "op")
    build_s = total(spans, "forest.build")
    out["forest.build_s"] = build_s
    e = res.ensemble
    out["forest.trees_per_s"] = e.n_trees / build_s if e is not None and build_s else 0.0

    grows = [s.seconds for s in spans if s.name == "tree.grow_tree"]
    out["tree.grow_s"] = sum(grows) / len(grows) if grows else 0.0
    nodes = leaves = splittable = depth_max = 0
    for flat in (e.flats if e is not None else []):
        internal = flat.attr >= 0
        nodes += flat.attr.size
        leaves += int((~internal).sum())
        splittable += int((flat.n_reached >= 2).sum())
        depth_max = max(depth_max, tree_depth(flat))
    trees = len(grows)
    out["tree.nodes"] = nodes / trees if trees else 0.0
    out["tree.leaves"] = leaves / trees if trees else 0.0
    out["tree.depth_max"] = depth_max
    out["tree.node_us"] = sum(grows) / nodes * 1e6 if nodes else 0.0
    out["tree.split_yield"] = (nodes - leaves) / splittable if splittable else 0.0
    out["tree.flatten_s"] = per_call(spans, "tree.from_node")
    out["tree.workspace_s"] = per_call(spans, "tree.workspace")
    out["tree.workspace_mb"] = max((s.counts["z_bytes"] for s in spans
                                    if s.name == "tree.workspace"), default=0) / 1e6
    routes = [s for s in spans if s.name == "tree.route"]
    rows = sum(s.counts["rows"] for s in routes)
    out["tree.route_us_per_krow"] = (sum(s.seconds for s in routes) * 1e6
                                     / (rows / 1000.0) if rows else 0.0)

    out["scores.genie3_s"] = total(spans, "scores.genie3")
    out["scores.symbolic_s"] = total(spans, "scores.symbolic")
    out["scores.rf_score_s"] = total(spans, "scores.rf_score")
    rf = [r for r in res.rankings if r.method == "rf-score"]
    out["scores.rf_trees_used"] = rf[0].provenance["trees_used"] if rf else 0
    rf_ids = {s.index for s in spans if s.name == "scores.rf_score"}
    out["scores.rf_rows_routed"] = sum(s.counts["rows"] for s in routes
                                       if s.parent in rf_ids)
    out["streams.rf_streams"] = sum(1 for s in spans if s.name == "streams.stream"
                                    and s.counts["tag"] == streams.OOB_PERMUTATION)

    states = [s for s in spans if s.name == "urelief.state"]
    out["urelief.state_s"] = per_call(spans, "urelief.state")
    refs = sum(s.counts["iterations"] for s in states)
    out["urelief.ref_us"] = sum(s.seconds for s in states) / refs * 1e6 if refs else 0.0
    out["urelief.pairs"] = (sum(s.counts["iterations"] * s.counts["k"] for s in states)
                            / len(states) if states else 0.0)
    out["urelief.cells"] = (sum(s.counts["iterations"] * s.counts["m"] * s.counts["n"]
                                for s in states) / len(states) if states else 0.0)

    ranker_s = total(spans, "rankers.ranker")
    curve = total(spans, "evaluate.error_curve")
    out["evaluate.rank_share"] = ranker_s / op_s if curve else 0.0
    folds = res.curve[1].n_folds if res.curve is not None else 0
    out["evaluate.nn_s"] = (op_s - ranker_s) / folds if folds else 0.0

    out["data.load_csv_s"] = total(spans, "data.load_csv")
    out["data.compute_stats_s"] = per_call(spans, "data.compute_stats")
    out["data.restrict_rows_s"] = per_call(spans, "data.restrict_rows")
    out.update(extras)
    return out


def tree_depth(flat) -> int:
    """Longest root-to-leaf edge count; children follow parents in preorder."""
    depth = np.zeros(flat.attr.size, dtype=np.intp)
    for i in np.flatnonzero(flat.attr >= 0):
        depth[flat.child[i]] = depth[i] + 1
    return int(depth.max())


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--report", type=Path, required=True)
    args = p.parse_args()

    wl = WORKLOADS[args.workload]()
    wl.prepare(args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    wl.tracer = tracer
    problems: list[str] = []
    ops: list[dict] = []
    per_layer: list[dict] = []
    rec: list[float] = []

    def run(i: int, inp, workers: int, traced: bool):
        c0 = cpu_now()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(i), tracer.span("op"):
                    res = wl.run(inp, workers)
            else:
                res = wl.run(inp, workers)
        except Exception:
            problems.append(f"op {i}: " + traceback.format_exc())
            return None, {"op": i, "failed": True}
        wall = time.perf_counter() - t0
        cpu = cpu_now() - c0
        return res, {"op": i, "wall": wall, "cpu": cpu, "workers": workers,
                     "traced": traced, "failed": False, "timings": res.timings}

    def finish(i: int, inp, res, record: dict) -> None:
        """Check an op's output and take its untimed numbers."""
        if res is not None:
            found = wl.check(inp, res)
            problems.extend(f"op {i}: {msg}" for msg in found)
            record["failed"] = bool(found)
            if i <= MIN_OPS:
                rec.extend(recovery(r, wl.informative(inp)) for r in res.rankings)
            if record.get("traced"):
                spans = [s for s in tracer.spans if s.op == i]
                per_layer.append(layer_numbers(spans, res, wl.extras(inp, res)))
        ops.append(record)

    # op 0: warm-up, then the repeat that must give byte-identical importances
    inp0 = wl.inputs(0)
    res0, record0 = run(0, inp0, wl.workers, False)
    again, _ = run(0, inp0, wl.repeat_workers, False)
    if res0 is not None and again is not None:
        if [r.importance.tobytes() for r in res0.rankings] != \
                [r.importance.tobytes() for r in again.rankings]:
            problems.append(f"op 0: importances differ between workers={wl.workers} "
                            f"and workers={wl.repeat_workers}")
            record0["failed"] = True
        problems.extend(f"op 0 repeat: {msg}" for msg in wl.check(inp0, again))
    else:
        record0["failed"] = True
    run_numbers = {}
    if args.trace and wl.workers > 1 and again is not None:
        run_numbers = wl.parallel_numbers(inp0, again)
    finish(0, inp0, res0, record0)
    wl.cleanup(inp0)

    # traced runs measure every op at the repeat's worker count (one worker
    # on every workload), so traced and untraced ops compare like for like
    workers = wl.repeat_workers if args.trace else wl.workers
    least = MIN_TRACED_OPS if args.trace else MIN_OPS
    deadline = time.perf_counter() + args.seconds
    i = 1
    last = 0.0
    while i <= least or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        inp = wl.inputs(i)
        res, record = run(i, inp, workers, bool(args.trace) and i % 2 == 1)
        finish(i, inp, res, record)
        wl.cleanup(inp)
        last = time.perf_counter() - started
        i += 1

    timed = [o for o in ops if o["op"] >= 1 and not o["failed"]]
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "attempted": len(ops), "failed": sum(o["failed"] for o in ops),
              "problems": problems, "ops": ops,
              "recovery": float(np.mean(rec)) if rec else 0.0}
    if args.trace:
        traced = [o["wall"] for o in timed if o["traced"]]
        plain = [o["wall"] for o in timed if not o["traced"]]
        metrics = {name: stats.median(row[name] for row in per_layer)
                   for name in (per_layer[0] if per_layer else {})}
        metrics.update(run_numbers)
        metrics["quality.recovery"] = report["recovery"]
        metrics["trace.op_s"] = stats.median(traced)
        metrics["trace.overhead_s"] = stats.median(traced) - stats.median(plain)
        report["spans"] = len(tracer.spans)
        tracer.dump(args.report.with_suffix(".spans.jsonl"))
    else:
        walls = [o["wall"] for o in timed]
        metrics = {
            "op_s": stats.median(walls),
            "op_cpu_s": stats.median(o["cpu"] for o in timed),
            "peak_rss_mb": peak_mb("self") + sum(
                peak_mb(c.pid) for c in multiprocessing.active_children()),
        }
        report["op_tail"] = stats.tail(walls)
    report["metrics"] = metrics
    parallel.shutdown()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    args.report.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
