"""Print the sha256 of every artifact a fixed CLI sequence writes.

A change that claims "no behaviour change" runs this on the commit before
it and on itself, at one and at two workers, and shows the four outputs are
identical. The sequence, run in a fresh temporary directory with relative
paths (artifacts embed the --data path they were given):

    synth     200 x 50 planted table (5 informative, 45 noise), seed 0,
              and a second 100 x 50 table, seed 1, for compare
    rank      genie3, symbolic, rf-score, urelief
    eval      genie3, urelief, on both tables
    curve     genie3
    compare   the four eval artifacts (compare needs at least 2 x 2)
    ari-check

Every method runs at its default settings. The package is imported from
this checkout's ``src/``.

    python3 scripts/artifact_hashes.py --workers 1
    python3 scripts/artifact_hashes.py --workers 2
"""

from __future__ import annotations

import argparse
import contextlib
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
EVAL_METHODS = ("genie3", "urelief")


def sequence(workers: int) -> list[list[str]]:
    w = ["--workers", str(workers)]
    target = ["--data", DATA, "--target-column", "target"]
    steps = [["synth", "--m", "200", "--informative", "5", "--noise", "45",
              "--seed", "0", "--out", "data"],
             ["synth", "--m", "100", "--informative", "5", "--noise", "45",
              "--seed", "1", "--out", "data"]]
    for method in ("genie3", "symbolic", "rf-score", "urelief"):
        steps.append(["rank", *target, "--method", method, *w, "--out", "rank"])
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
