"""In-memory spans around the package's public functions.

The benchmark never edits the package. While a traced operation runs,
``Tracer.installed`` replaces each traced function (and every module-level
name in the package bound to it, so calls between modules are caught too)
with a wrapper that records a span, and puts the originals back afterwards.
A span holds name, start, end, parent span and operation id, plus a few
counts read from the call's arguments or result. Spans stay in memory until
the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ufrank import data, evaluate, forest, scores, streams, tree

# the package namespace binds the name ``urelief`` to the function
urelief = importlib.import_module("ufrank.urelief")

# the modules whose self time and calls the traced run reports; traced ops
# run at one worker, so the pool layer is measured directly instead (see
# PlantedET.parallel_numbers)
LAYERS = ("data", "streams", "tree", "forest", "scores", "urelief", "evaluate")


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _route_counts(args, kwargs, out):
    return {"rows": len(args[1])}


def _workspace_counts(args, kwargs, out):
    return {"z_bytes": int(args[0].Z.nbytes)}


def _stream_counts(args, kwargs, out):
    return {"tag": int(args[1]) if len(args) > 1 else -1}


def _state_counts(args, kwargs, out):
    d, cfg = args[0], args[1]
    k, iterations = cfg.resolve(d.m)
    return {"m": d.m, "n": d.n, "k": k, "iterations": iterations}


def _restrict_counts(args, kwargs, out):
    return {"rows": out.m}


# (owner, attribute, span name, counts reader); owner is a module or a class
TRACED = (
    (data, "load_csv", "data.load_csv", None),
    (data, "compute_stats", "data.compute_stats", None),
    (data.Dataset, "restrict_rows", "data.restrict_rows", _restrict_counts),
    (streams, "stream", "streams.stream", _stream_counts),
    (tree, "grow_tree", "tree.grow_tree", None),
    (tree.FlatTree, "from_node", "tree.from_node", None),
    (tree.FlatTree, "route", "tree.route", _route_counts),
    (tree.SplitWorkspace, "__init__", "tree.workspace", _workspace_counts),
    (forest, "build", "forest.build", None),
    (scores, "genie3", "scores.genie3", None),
    (scores, "symbolic", "scores.symbolic", None),
    (scores, "random_forest_score", "scores.rf_score", None),
    (urelief, "urelief", "urelief.urelief", None),
    (urelief, "urelief_state", "urelief.state", _state_counts),
    (evaluate, "error_curve", "evaluate.error_curve", None),
    (evaluate.FoldPlan, "make", "evaluate.fold_plan", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str):
        """Open a span; calls made inside it become its children."""
        parent = self._stack[-1] if self._stack else -1
        s = Span(len(self.spans), name, time.perf_counter(), math.nan, parent,
                 self._op)
        self._stack.append(s.index)
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @property
    def active(self) -> bool:
        """True while an operation is being traced."""
        return self._op >= 0

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if counts is not None:
                s.counts = counts(args, kwargs, out)
            return out
        return traced

    @contextmanager
    def installed(self, op: int):
        """Patch every traced function for the duration of one operation."""
        self._op = op
        undo = []
        try:
            for owner, attr, name, counts in TRACED:
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self.wrap(fn, name, counts)
                if is_classmethod:
                    wrapped = classmethod(wrapped)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    undo.append((owner, attr, raw))
                else:
                    for mod in _package_modules():
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                setattr(mod, key, wrapped)
                                undo.append((mod, key, raw))
            yield
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)
            self._op = -1

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.index, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op,
                                     **s.counts}) + "\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ufrank" or name.startswith("ufrank."))]
