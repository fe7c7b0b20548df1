"""Command-line entry point.

Commands: rank, eval, curve, compare, synth, ari-check. Every artifact is
JSON (with CSV mirrors where a table shape is natural) and embeds the
configuration that produced it, minus execution-only knobs (worker count,
output directory), so a report can be reproduced from its own config block
and re-running with a different --workers value yields byte-identical
files. A rank artifact records URelief's K and I as resolved on the table
it ranked. Eval and curve rank each training fold on its own, so they
record K and I as given, null meaning resolved on each fold's rows.

Options resolve as: explicit flags, then values from a --config JSON file,
then built-in defaults.

Exit codes: 0 success, 1 usage error, 2 data error (also configuration
the loaded data cannot support, such as more folds than examples), 3
computation error (also a setting too large to allocate, such as --trees
or --iterations in the quadrillions). Errors print a one-line JSON record
to stderr. Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
from pathlib import Path

from .data import (ComputationError, Dataset, IngestionError, json_text,
                   load_csv)
from .evaluate import (FoldPlan, clustering_hypothesis_ari, compare_methods,
                       comparison_to_csv, curve_points_csv, cv_mse,
                       error_curve)
from .forest import ENSEMBLES, SUBSET_RULES, EnsembleConfig
from .rankers import METHODS, make_ranker
from .scores import ranking_rows, ranking_to_csv
from .synth import SynthSpec, write_planted
from .urelief import DEFAULT_NEIGHBORS, UReliefConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 1
        raise UsageError(message)


def _nonneg(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return n


def _positive(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return n


def _default(fn, name: str):
    """The default of parameter ``name`` in ``fn``'s signature."""
    return inspect.signature(fn).parameters[name].default


_FOLDS = _default(FoldPlan.make, "n_folds")


def _add_data_flags(p: _Parser) -> None:
    p.add_argument("--data", required=True, help="input CSV (header row)")
    p.add_argument("--target-column", default=None,
                   help="column to hold out as the target")


def _add_method_flags(p: _Parser) -> None:
    p.add_argument("--method", choices=METHODS, default="genie3")
    p.add_argument("--trees", type=_positive, default=EnsembleConfig.n_trees,
                   help="ensemble size (tree methods)")
    p.add_argument("--ensemble", choices=ENSEMBLES,
                   default=EnsembleConfig.method)
    p.add_argument("--subset-rule", choices=SUBSET_RULES,
                   default=EnsembleConfig.subset_rule,
                   help="per-node attribute sample size")
    p.add_argument("--neighbors", type=_positive,
                   default=UReliefConfig.neighbors,
                   help=f"urelief neighborhood size (default "
                        f"min({DEFAULT_NEIGHBORS}, m-1))")
    p.add_argument("--iterations", type=_positive,
                   default=UReliefConfig.iterations,
                   help="urelief iteration count (default m)")


def _add_common_flags(p: _Parser) -> None:
    p.add_argument("--seed", type=_nonneg, default=0)
    p.add_argument("--workers", type=_positive,
                   default=max(1, os.cpu_count() or 1),
                   help="processes, this one included (default: the cores)")
    p.add_argument("--out", default=None, help="directory for artifact files")
    p.add_argument("--config", default=None,
                   help="JSON file of flag defaults (explicit flags win)")


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="ufrank",
                     description="Unsupervised feature ranking and evaluation")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    commands: dict[str, _Parser] = {}

    p = commands["rank"] = sub.add_parser(
        "rank", help="rank the attributes of a dataset")
    _add_data_flags(p)
    _add_method_flags(p)
    _add_common_flags(p)

    p = commands["eval"] = sub.add_parser(
        "eval", help="cross-validated 1NN MSE at a fixed k")
    _add_data_flags(p)
    _add_method_flags(p)
    p.add_argument("--folds", type=_positive, default=_FOLDS)
    p.add_argument("--top-k", type=_positive, default=16)
    _add_common_flags(p)

    p = commands["curve"] = sub.add_parser(
        "curve", help="error curve over the geometric k grid")
    _add_data_flags(p)
    _add_method_flags(p)
    p.add_argument("--folds", type=_positive, default=_FOLDS)
    _add_common_flags(p)

    p = commands["compare"] = sub.add_parser(
        "compare", help="rank-based comparison of eval artifacts")
    p.add_argument("inputs", nargs="+", help="eval JSON artifacts")
    p.add_argument("--alpha", type=float, choices=(0.05,), default=0.05,
                   help="significance level (critical distances are "
                        "tabulated for 0.05 only)")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None,
                   help="JSON file of flag defaults (explicit flags win)")

    p = commands["synth"] = sub.add_parser(
        "synth", help="generate a planted-feature dataset")
    p.add_argument("--m", type=_positive, default=SynthSpec.m)
    p.add_argument("--informative", type=_positive,
                   default=SynthSpec.n_informative)
    p.add_argument("--noise", type=_nonneg, default=SynthSpec.n_noise)
    p.add_argument("--clusters", type=_positive, default=SynthSpec.clusters)
    p.add_argument("--separation", type=float, default=SynthSpec.separation)
    p.add_argument("--name", default=SynthSpec.name)
    p.add_argument("--seed", type=_nonneg, default=SynthSpec.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None,
                   help="JSON file of flag defaults (explicit flags win)")

    p = commands["ari-check"] = sub.add_parser(
        "ari-check", help="median ARI of k-means clusters vs class labels")
    _add_data_flags(p)
    p.add_argument("--classes", type=_positive,
                   default=_default(clustering_hypothesis_ari, "class_count"),
                   help="k for k-means (default: number of target classes)")
    p.add_argument("--runs", type=_positive,
                   default=_default(clustering_hypothesis_ari, "runs"))
    _add_common_flags(p)

    return parser, commands


def _config_file_from(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config requires a file path")
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _read_json(path: str, name: str, error: type[Exception]):
    """The JSON value in file ``path``. An unreadable file, one that is not
    UTF-8 or not JSON raises ``error``, its message naming the file as
    ``name``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {name}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{name} is not valid JSON: {exc}") from exc


def _apply_config_defaults(commands: dict[str, _Parser], path: str) -> None:
    """Seed parser defaults from a JSON object of flag values. Explicit
    command-line flags still override; unknown keys or values a flag would
    reject are usage errors."""
    raw = _read_json(path, "config file", UsageError)
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object of flag values")

    known: set[str] = set()
    for sub in commands.values():
        known.update(a.dest for a in sub._actions)
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise UsageError(f"config file sets unknown option {key!r}")
        for sub in commands.values():
            action = next((a for a in sub._actions if a.dest == dest), None)
            if action is None:
                continue
            # a flag takes one string; null only restores a null default
            if value is None and action.default is None:
                converted = None
            elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
                try:
                    converted = (action.type or str)(str(value))
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise UsageError(f"config option {key!r}: {exc}") from exc
            else:
                raise UsageError(f"config option {key!r}: expected a string "
                                 f"or a number, got {json.dumps(value)}")
            if action.choices is not None and converted not in action.choices:
                raise UsageError(f"config option {key!r}: invalid choice "
                                 f"{converted!r} (choose from "
                                 f"{', '.join(map(str, action.choices))})")
            sub.set_defaults(**{dest: converted})


def _load(args) -> Dataset:
    return load_csv(args.data, target_column=args.target_column)


def _method_config(args) -> dict:
    """The ranker's settings as given; URelief's K and I may be None, which
    means resolved on the rows ranked."""
    cfg = {"method": args.method, "seed": args.seed}
    if args.method == "urelief":
        cfg["neighbors"], cfg["iterations"] = args.neighbors, args.iterations
    else:
        cfg["ensemble"] = args.ensemble
        cfg["trees"] = args.trees
        cfg["subset_rule"] = args.subset_rule
    return cfg


def _ranker(args):
    return make_ranker(args.method, trees=args.trees, ensemble=args.ensemble,
                       subset_rule=args.subset_rule, neighbors=args.neighbors,
                       iterations=args.iterations, seed=args.seed,
                       workers=args.workers)


def _emit(args, stem: str, payload: dict) -> Path | None:
    text = json_text(payload)
    sys.stdout.write(text)
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{stem}.json"
    path.write_text(text, encoding="utf-8")
    return path


def _cmd_rank(args) -> int:
    d = _load(args)
    ranking = _ranker(args)(d.without_target())
    payload = {
        "artifact": "ranking",
        "config": {"command": "rank", "data": args.data,
                   "target_column": args.target_column,
                   **{key: ranking.provenance[key]
                      for key in _method_config(args)}},
        "dataset": {"name": d.name, "m": d.m, "n": d.n},
        "ranking": ranking_rows(ranking),
    }
    stem = f"{d.name}_{args.method}_rank_{args.seed}"
    path = _emit(args, stem, payload)
    if path is not None:
        ranking_to_csv(ranking, path.with_suffix(".csv"))
    return 0


def _cmd_eval(args) -> int:
    d = _load(args)
    plan = FoldPlan.make(d.m, args.folds, args.seed)
    mse = cv_mse(d, _ranker(args), args.top_k, plan)
    payload = {
        "artifact": "eval",
        "config": {"command": "eval", "data": args.data,
                   "target_column": args.target_column, "folds": args.folds,
                   "top_k": args.top_k, **_method_config(args)},
        "dataset": {"name": d.name, "m": d.m, "n": d.n},
        "method": args.method,
        "mse": mse,
    }
    _emit(args, f"{d.name}_{args.method}_eval_{args.seed}", payload)
    return 0


def _cmd_curve(args) -> int:
    d = _load(args)
    plan = FoldPlan.make(d.m, args.folds, args.seed)
    report = error_curve(d, _ranker(args), plan)
    payload = {
        "artifact": "curve",
        "config": {"command": "curve", "data": args.data,
                   "target_column": args.target_column, "folds": args.folds,
                   **_method_config(args)},
        **dataclasses.asdict(report),
    }
    stem = f"{d.name}_{args.method}_curve_{args.seed}"
    path = _emit(args, stem, payload)
    if path is not None:
        curve_points_csv(report, path.with_name(f"{stem}_points.csv"))
    return 0


def _eval_cell(raw: str) -> tuple[str, str, float]:
    """The dataset name, method and MSE of the eval artifact in file
    ``raw``."""
    match _read_json(raw, raw, IngestionError):
        case {"artifact": "eval", "dataset": {"name": str(dataset)},
              "method": str(method), "mse": int() | float() as mse
              } if not isinstance(mse, bool):
            try:
                return dataset, method, float(mse)
            except OverflowError:  # an integer beyond the float range
                pass
    raise IngestionError(f"{raw} is not an eval artifact")


def _cmd_compare(args) -> int:
    cells: dict[str, dict[str, float]] = {}
    methods: list[str] = []
    for raw in args.inputs:
        dataset, method, mse = _eval_cell(raw)
        cells.setdefault(dataset, {})
        if method in cells[dataset]:
            raise IngestionError(f"duplicate result for {dataset}/{method}")
        cells[dataset][method] = mse
        if method not in methods:
            methods.append(method)
    datasets = sorted(cells)
    for dataset in datasets:
        missing = [meth for meth in methods if meth not in cells[dataset]]
        if missing:
            raise IngestionError(f"dataset {dataset!r} lacks results for "
                                 f"{', '.join(missing)}")
    matrix = [[cells[ds][meth] for meth in methods] for ds in datasets]
    report = compare_methods(matrix, methods, datasets, args.alpha)
    payload = {"artifact": "compare",
               "config": {"command": "compare", "alpha": args.alpha},
               **dataclasses.asdict(report)}
    path = _emit(args, "compare", payload)
    if path is not None:
        comparison_to_csv(report, path.with_suffix(".csv"))
    return 0


def _cmd_synth(args) -> int:
    try:
        spec = SynthSpec(args.m, args.informative, args.noise, args.clusters,
                         args.separation, args.seed, args.name)
    except ValueError as exc:  # the flags alone are inconsistent
        raise UsageError(str(exc)) from exc
    csv_path, truth_path = write_planted(spec, args.out)
    sys.stdout.write(json_text({"artifact": "synth", "csv": str(csv_path),
                                "truth": str(truth_path)}))
    return 0


def _cmd_ari(args) -> int:
    d = _load(args)
    if d.target is None:
        raise IngestionError("ari-check needs --target-column")
    ari = clustering_hypothesis_ari(d, args.classes, args.runs, args.seed)
    payload = {
        "artifact": "ari",
        "config": {"command": "ari-check", "data": args.data,
                   "target_column": args.target_column,
                   "classes": args.classes, "runs": args.runs,
                   "seed": args.seed},
        "dataset": {"name": d.name, "m": d.m, "n": d.n},
        "ari_median": ari,
    }
    _emit(args, f"{d.name}_ari-check_{args.seed}", payload)
    return 0


_COMMANDS = {"rank": _cmd_rank, "eval": _cmd_eval, "curve": _cmd_curve,
             "compare": _cmd_compare, "synth": _cmd_synth,
             "ari-check": _cmd_ari}


def _fail(code: int, kind: str, message: str) -> int:
    record = {"error": {"exit_code": code, "kind": kind, "message": message}}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        config_path = _config_file_from(argv)
        if config_path is not None:
            _apply_config_defaults(commands, config_path)
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        return _fail(1, "usage", str(exc))
    except IngestionError as exc:
        return _fail(2, "data", str(exc))
    except ComputationError as exc:
        return _fail(3, "computation", str(exc))
    except MemoryError as exc:
        return _fail(3, "computation", f"out of memory: {exc}")


if __name__ == "__main__":
    sys.exit(main())
