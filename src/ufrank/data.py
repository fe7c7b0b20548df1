"""Column-typed tabular datasets and the per-attribute statistics that
normalize impurities, distances, and reconstruction errors.

A dataset stores all columns in one float64 matrix. Numeric columns hold
their raw values; nominal columns hold integer category codes (as floats)
indexing into a fixed, duplicate-free domain captured at ingestion. The
optional target vector is kept separate and is never handed to ranking
methods.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class IngestionError(ValueError):
    """The input data violates the input contract (missing value, bad
    arity, ...) or cannot support the requested configuration (more folds
    or neighbors than examples, no target where one is needed, ...)."""


class ComputationError(RuntimeError):
    """A quantity is undefined for the given data (e.g. all trees skipped)."""


@dataclass(frozen=True)
class Numeric:
    """Marker for real-valued columns."""


@dataclass(frozen=True)
class Nominal:
    """Categorical column with a fixed ordered domain of distinct labels."""

    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError("nominal domain must be non-empty")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("nominal domain contains duplicate labels")


AttributeKind = Numeric | Nominal


@dataclass
class Dataset:
    """Immutable table of m examples over n typed attributes.

    The feature matrix is made read-only at construction; downstream code
    treats datasets as shareable values, so any number of workers may read
    one concurrently. ``numeric_mask``, set at construction and read-only
    too, marks the numeric columns.
    """

    name: str
    attr_names: tuple[str, ...]
    kinds: tuple[AttributeKind, ...]
    X: np.ndarray
    target: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.attr_names = tuple(self.attr_names)
        self.kinds = tuple(self.kinds)
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("feature matrix must be 2-dimensional")
        m, n = X.shape
        if m < 1 or n < 1:
            raise ValueError("dataset needs at least one example and one attribute")
        if len(self.attr_names) != n or len(self.kinds) != n:
            raise ValueError("attribute names/kinds do not match the column count")
        if len(set(self.attr_names)) != n:
            raise ValueError("attribute names must be unique")
        if not np.isfinite(X).all():
            raise ValueError("feature matrix contains non-finite values")
        for j, kind in enumerate(self.kinds):
            if isinstance(kind, Nominal):
                codes = X[:, j]
                if ((codes != np.floor(codes)) | (codes < 0)
                        | (codes >= len(kind.domain))).any():
                    raise ValueError(f"column {self.attr_names[j]!r} holds codes "
                                     f"outside its nominal domain")
        X.setflags(write=False)
        self.X = X
        if self.target is not None:
            t = np.asarray(self.target, dtype=np.float64)
            if t.shape != (m,):
                raise ValueError("target length does not match the example count")
            t.setflags(write=False)
            self.target = t
        mask = np.array([isinstance(k, Numeric) for k in self.kinds])
        mask.setflags(write=False)
        self.numeric_mask = mask

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def without_target(self) -> "Dataset":
        """View for ranking methods: same features, no target."""
        if self.target is None:
            return self
        return Dataset(self.name, self.attr_names, self.kinds, self.X, None, self.meta)

    def restrict_rows(self, rows: np.ndarray) -> "Dataset":
        """Sub-dataset over the given rows. Kinds (hence nominal domains) are
        kept from the parent so statistics stay comparable across subsets."""
        rows = _check_rows(rows, self.m)
        target = None if self.target is None else self.target[rows]
        return Dataset(self.name, self.attr_names, self.kinds, self.X[rows],
                       target, self.meta)


@dataclass(frozen=True)
class AttributeStats:
    """Per-attribute statistics over a reference row set.

    ``denominator`` is the impurity normalizer: the population variance for
    numeric columns, the Gini index for nominal ones; zero marks a column
    constant on the reference rows. ``value_range`` is max - min on numeric
    columns and NaN on nominal ones.
    """

    denominator: np.ndarray
    value_range: np.ndarray


def _check_rows(rows, m: int) -> np.ndarray:
    rows = np.asarray(rows)
    if rows.size and rows.dtype.kind not in "iu":
        raise ValueError(f"row indices must be integers, got dtype {rows.dtype}")
    rows = rows.astype(np.intp, copy=False)
    if rows.ndim != 1 or rows.size == 0:
        raise ValueError("row subset must be a non-empty 1-d index array")
    if rows.min() < 0 or rows.max() >= m:
        raise ValueError(f"row indices out of range [0, {m})")
    return rows


def compute_stats(d: Dataset) -> AttributeStats:
    """Statistics over all rows of ``d``; for a subset, pass
    ``d.restrict_rows(rows)``."""
    denominator = np.zeros(d.n)
    value_range = np.full(d.n, np.nan)
    num = d.numeric_mask
    if num.any():
        block = d.X[:, num]
        # a column whose squares or span overflow keeps an inf denominator
        # or range
        with np.errstate(over="ignore", invalid="ignore"):
            denominator[num] = block.var(axis=0)
            value_range[num] = block.max(axis=0) - block.min(axis=0)
    for j in np.flatnonzero(~num):
        size = len(d.kinds[j].domain)
        counts = np.bincount(d.X[:, j].astype(np.intp), minlength=size)
        p = counts / d.m
        denominator[j] = 1.0 - float(p @ p)
    return AttributeStats(denominator, value_range)


def load_csv(path, schema=None, target_column: str | None = None) -> Dataset:
    """Load a comma-separated file: header row, UTF-8, decimal point, no
    missing values. The dataset is named after the file's stem.

    A schema is a sequence of entries, one per column: "numeric" or
    Numeric(), "nominal", or a Nominal with a declared domain. The target
    column's entry is ignored: the target's kind is always inferred. A
    column with no entry is numeric iff every value parses as a finite
    real, else nominal. A numeric entry requires that; a nominal column
    takes its declared domain, else its values in first-seen order, and a
    value outside a declared domain is an error.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise IngestionError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if not rows or not rows[0]:  # no line, or a blank first line
        raise IngestionError(f"{path.name}: empty file, expected a header row")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise IngestionError(f"{path.name}: duplicate column names in header")
    if len(rows) < 2:
        raise IngestionError(f"{path.name}: no data rows")

    width = len(header)
    cells: list[list[str]] = []
    for r, row in enumerate(rows[1:], start=2):  # header is line 1
        if len(row) != width:
            raise IngestionError(f"{path.name}: line {r} has {len(row)} fields, "
                                 f"expected {width}")
        stripped = [c.strip() for c in row]
        if "" in stripped:
            raise IngestionError(f"{path.name}: missing value at line {r}, "
                                 f"column {header[stripped.index('')]!r}")
        cells.append(stripped)

    if schema is not None and len(schema) != width:
        raise IngestionError(f"schema length {len(schema)} does not match "
                             f"{width} columns")

    target_idx: int | None = None
    if target_column is not None:
        if target_column not in header:
            raise IngestionError(f"{path.name}: no column named {target_column!r}")
        if width < 2:
            raise IngestionError(f"{path.name}: no attribute columns besides "
                                 f"the target")
        target_idx = header.index(target_column)

    matrix = np.empty((len(cells), width))
    kinds: list[AttributeKind] = []
    for j, column in enumerate(zip(*cells)):
        entry = (None if schema is None or j == target_idx
                 else _schema_kind(schema[j]))
        if entry is None or entry == "numeric":
            values = _parse_numeric(column)
            if values is not None:
                matrix[:, j] = values
                kinds.append(Numeric())
                continue
            if entry == "numeric":
                bad = next(i for i, v in enumerate(column)
                           if _parse_numeric([v]) is None)
                raise IngestionError(f"{path.name}: column {header[j]!r} declared "
                                     f"numeric but line {bad + 2} holds "
                                     f"{column[bad]!r}")
        domain = (entry.domain if isinstance(entry, Nominal)
                  else tuple(dict.fromkeys(column)))
        lookup = {v: i for i, v in enumerate(domain)}
        codes = [lookup.get(v) for v in column]
        if None in codes:
            bad = codes.index(None)
            raise IngestionError(f"{path.name}: line {bad + 2}, column "
                                 f"{header[j]!r}: value {column[bad]!r} outside "
                                 f"the declared domain")
        matrix[:, j] = codes
        kinds.append(Nominal(domain))

    target = None
    if target_idx is not None:
        target = matrix[:, target_idx].copy()
        keep = [j for j in range(width) if j != target_idx]
        matrix = matrix[:, keep]
        header = [header[j] for j in keep]
        kinds = [kinds[j] for j in keep]

    return Dataset(path.stem, tuple(header), tuple(kinds), matrix, target)


def _schema_kind(entry):
    """A schema entry as "numeric", "nominal" or a declared Nominal."""
    if isinstance(entry, Numeric):
        return "numeric"
    if isinstance(entry, Nominal) or entry in ("numeric", "nominal"):
        return entry
    raise IngestionError(f"schema entries must be 'numeric', 'nominal', or an "
                         f"AttributeKind, got {entry!r}")


def _parse_numeric(column) -> np.ndarray | None:
    """The cells as finite reals, or None if any is not one."""
    try:
        out = np.array([float(cell) for cell in column])
    except ValueError:
        return None
    return out if np.isfinite(out).all() else None


def write_rows(path, rows) -> None:
    """Write rows of cells as CSV, UTF-8 in the csv module's default
    dialect. Every CSV artifact goes through here; floats come as ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def json_text(obj) -> str:
    """The JSON artifact format: two-space indent, sorted keys, numpy
    arrays as nested lists, one trailing newline. A non-finite float is an
    error, since strict JSON has no spelling for it."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                      default=np.ndarray.tolist) + "\n"


def write_csv(d: Dataset, path) -> None:
    """Write a dataset back out under the same CSV contract; a target, if
    any, goes last under the header ``target``."""
    header = list(d.attr_names)
    if d.target is not None:
        header.append("target")

    def rows():
        yield header
        for i in range(d.m):
            row = []
            for j, kind in enumerate(d.kinds):
                v = d.X[i, j]
                row.append(kind.domain[int(v)] if isinstance(kind, Nominal)
                           else repr(float(v)))
            if d.target is not None:
                row.append(repr(float(d.target[i])))
            yield row

    write_rows(path, rows())
