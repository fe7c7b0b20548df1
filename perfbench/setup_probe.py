"""One set-up measurement, in a fresh interpreter.

    python3 perfbench/setup_probe.py TABLE.csv WORKERS

Imports the package, loads the workload table, computes its statistics
and, when the workload runs a process pool, spawns the pool and runs a
first two-tree build on it. Prints the monotonic clock at that point; the
caller subtracts the clock it read just before starting this process.
"""

import multiprocessing
import sys
import time

from ufrank import data, forest, parallel


def main() -> int:
    path, workers = sys.argv[1], int(sys.argv[2])
    d = data.load_csv(path, target_column="target")
    data.compute_stats(d)
    if workers > 1:
        forest.build(d, forest.EnsembleConfig(n_trees=workers), workers)
    ready = time.monotonic()
    parallel.shutdown()
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    print(repr(ready))
    return 0


if __name__ == "__main__":
    sys.exit(main())
