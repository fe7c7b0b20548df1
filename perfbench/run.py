"""Benchmark entry point: one run of one workload.

From the root of a checkout:

    python3 perfbench/run.py --workload planted-et --seed 1 --seconds 20 --trace 0

The run generates its inputs from ``--seed``. With ``--trace 0`` it times
set-up in fresh interpreters (median of SETUP_PROBES) and then runs the
workload's closed loop untraced in one fresh interpreter (measure.py). With
``--trace 1`` it runs the loop with alternate ops traced and reports
per-layer numbers instead. Outputs are checked as the run goes. The last
line on stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the metric names and units are those of BENCHMARK.json.
The full report (environment, per-op records, check failures, tail
percentile) and, for traced runs, the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
# every run ends well inside the 180 s a run may take
TIME_LIMIT = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(RuntimeError):
    pass


def run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run a child in its own process group and return its stdout. If the
    child times out, or this process is interrupted or terminated while
    waiting, the whole group (pool workers included) is killed and reaped."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"timed out: {' '.join(cmd)}") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def environment(seed: int, env: dict) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: env.get(v, "default") for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # turn SIGTERM into SystemExit so run_child's cleanup kills the children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    deadline = start + TIME_LIMIT

    if not (SRC / "ufrank" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'ufrank'} is missing; run "
              f"from the root of a ufrank checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from ufrank import data
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]()
    # One BLAS thread per process: with two pool workers this keeps the
    # thread count within two cores, and at one worker it keeps op times
    # steadier (one 2000-row RF op repeated five times took 2.1-3.1 s with
    # two BLAS threads and 2.3-2.6 s with one, on a 2-core VM).
    env = dict(os.environ, PYTHONPATH=str(SRC),
               **{v: "1" for v in BLAS_THREAD_VARS})
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{wl.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report_path = out_dir / f"{wl.name}-s{args.seed}-t{args.trace}.json"
    report_path.unlink(missing_ok=True)

    setup: list[float] = []
    try:
        if not args.trace:
            wl.prepare(args.seed, workdir)
            table = workdir / "setup.csv"
            data.write_csv(wl.setup_table(), table)
            for _ in range(SETUP_PROBES):
                t0 = time.monotonic()
                ready = run_child([sys.executable, str(HERE / "setup_probe.py"),
                                   str(table), str(wl.workers)], env, deadline)
                setup.append(float(ready.strip().splitlines()[-1]) - t0)
        run_child([sys.executable, str(HERE / "measure.py"),
                   "--workload", wl.name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", str(workdir), "--report", str(report_path)],
                  env, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = json.loads(report_path.read_text(encoding="utf-8"))
    values = dict(report["metrics"])
    if args.trace:
        wanted = spec["per_layer"]
        # a layer the workload never calls reports 0 (no calls, no time)
        report["not_exercised"] = sorted(m["name"] for m in wanted
                                         if m["name"] not in values)
        for name in report["not_exercised"]:
            values[name] = 0.0
    else:
        wanted = spec["end_to_end"]
        values["setup_s"] = statistics.median(setup)
        report["setup_samples"] = setup
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    report["environment"] = environment(args.seed, env)
    report["wall_s"] = time.monotonic() - start
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")

    print(f"# environment {json.dumps(report['environment'], sort_keys=True)}")
    print(f"# ops {report['attempted']} failed {report['failed']} "
          f"(fail_rate {report['failed'] / report['attempted']:.4g}) "
          f"op_tail {json.dumps(report.get('op_tail'))} "
          f"report {report_path.relative_to(ROOT)}")
    for problem in report["problems"]:
        lines = problem.splitlines()
        print(f"# check failed: {lines[0]}" + (f" ... {lines[-1]}" if len(lines) > 1 else ""))
    result = {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
