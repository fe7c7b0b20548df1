"""Run the benchmark over several seeds and summarise the spread.

From the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 [--workloads planted-et,...]
        [--trace 0|1] [--out FILE]

Runs run.py once per (workload, seed), one after another, with the
run_seconds of BENCHMARK.json. For each workload and metric it prints the
median, the quartiles and the spread (quartile distance over median, from
``statistics.quantiles(values, n=4)``) and, for end-to-end metrics, the
share of the bound that spread takes. ``--out`` writes the summary with
every run's values as JSON; perfbench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace,
                     "seeds": args.seeds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = time.monotonic() - start
            runs.append(result)
            print(f"{name} seed {seed}: {result['wall_s']:.1f} s, "
                  f"correct {result['correct']}, {result['attempted']} ops",
                  flush=True)
        table = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            row = {"median": statistics.median(values), "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=stats.spread(values))
            table[metric] = row
            bound = bounds.get(metric)
            line = f"  {metric:28s} median {row['median']:.6g}"
            if row.get("spread") is not None:
                line += f" spread {row['spread']:.4f}"
                if bound:
                    line += f" ({row['spread'] / bound:.2f} of bound {bound})"
            print(line, flush=True)
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": table,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
