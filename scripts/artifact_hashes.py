"""Print the sha256 of every artifact a fixed CLI sequence writes.

A change that claims "no behaviour change" runs this on the commit before
it and on itself, at one and at two workers, and shows the four outputs are
identical. The sequence, run in a fresh temporary directory with relative
paths (artifacts embed the --data path they were given):

    synth     200 x 50 planted table (5 informative, 45 noise), seed 0,
              and a second 100 x 50 table, seed 1, for compare
    rank      genie3, symbolic, rf-score, urelief
    mixed     the seed-0 table with two informative columns relabelled as
              text, so that trees test nominal columns; ranked by genie3
              (extra trees) and by rf-score on random forests
    eval      genie3, urelief, on both tables
    curve     genie3
    compare   the four eval artifacts (compare needs at least 2 x 2)
    ari-check
    settings  the seed-0 table at settings other than the defaults, so
              that the config blocks record them: rank and eval by
              urelief with K = 5 and I = 50, rank by symbolic on 10
              bagged trees with every attribute a candidate, and eval by
              rf-score on 20 random-forest trees with a sqrt sample

Every other step runs each method at its default settings. The package
is imported from this checkout's ``src/``.

    python3 scripts/artifact_hashes.py --workers 1
    python3 scripts/artifact_hashes.py --workers 2
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ufrank.cli import main as cli_main  # noqa: E402

DATA = "data/planted_s0.csv"
SECOND = "data/planted_s1.csv"
MIXED = "data/mixed_s0.csv"
EVAL_METHODS = ("genie3", "urelief")
# two of the seed-0 table's informative columns
TEXT_COLUMNS = ("x11", "x18")


def write_mixed() -> None:
    """MIXED: DATA with TEXT_COLUMNS relabelled by value, ``neg`` below 0,
    ``pos`` below 10 and ``big`` from 10 on, which the CLI reads as
    nominal columns."""
    with open(DATA, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cols = [rows[0].index(name) for name in TEXT_COLUMNS]
    for row in rows[1:]:
        for j in cols:
            v = float(row[j])
            row[j] = "neg" if v < 0 else "pos" if v < 10 else "big"
    with open(MIXED, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def sequence(workers: int) -> list:
    """The steps in order: CLI argument lists, and write_mixed."""
    w = ["--workers", str(workers)]
    target = ["--data", DATA, "--target-column", "target"]
    steps = [["synth", "--m", "200", "--informative", "5", "--noise", "45",
              "--seed", "0", "--out", "data"],
             ["synth", "--m", "100", "--informative", "5", "--noise", "45",
              "--seed", "1", "--out", "data"]]
    for method in ("genie3", "symbolic", "rf-score", "urelief"):
        steps.append(["rank", *target, "--method", method, *w, "--out", "rank"])
    mixed = ["rank", "--data", MIXED, "--target-column", "target", *w,
             "--out", "mixed"]
    steps += [write_mixed, [*mixed, "--method", "genie3"],
              [*mixed, "--method", "rf-score", "--ensemble", "rf"]]
    for data in (DATA, SECOND):
        for method in EVAL_METHODS:
            steps.append(["eval", "--data", data, "--target-column", "target",
                          "--method", method, *w, "--out", "eval"])
    steps.append(["curve", *target, "--method", "genie3", *w, "--out", "curve"])
    steps.append(["compare",
                  *(f"eval/{Path(data).stem}_{method}_eval_0.json"
                    for data in (DATA, SECOND) for method in EVAL_METHODS),
                  "--out", "compare"])
    steps.append(["ari-check", *target, *w, "--out", "ari"])
    settings = [*target, *w, "--out", "settings"]
    urelief = ["--method", "urelief", "--neighbors", "5", "--iterations", "50"]
    steps += [["rank", *settings, *urelief], ["eval", *settings, *urelief],
              ["rank", *settings, "--method", "symbolic", "--ensemble",
               "bagging", "--trees", "10", "--subset-rule", "all"],
              ["eval", *settings, "--method", "rf-score", "--ensemble", "rf",
               "--trees", "20", "--subset-rule", "sqrt"]]
    return steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for step in sequence(args.workers):
                if callable(step):
                    step()
                    continue
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(step)
                if code != 0:
                    print(f"error: `ufrank {' '.join(step)}` exited {code}",
                          file=sys.stderr)
                    return 1
            for path in sorted(p for p in Path(".").rglob("*")
                               if p.suffix in (".json", ".csv")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.as_posix()}")
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
