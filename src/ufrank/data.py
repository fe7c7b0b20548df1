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
    one concurrently.
    """

    name: str
    attr_names: tuple[str, ...]
    kinds: tuple[AttributeKind, ...]
    X: np.ndarray
    target: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    _numeric_mask: np.ndarray | None = field(default=None, init=False,
                                             repr=False, compare=False)

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

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def numeric_mask(self) -> np.ndarray:
        mask = self._numeric_mask
        if mask is None:
            mask = np.array([isinstance(k, Numeric) for k in self.kinds])
            mask.setflags(write=False)
            object.__setattr__(self, "_numeric_mask", mask)
        return mask

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

    Numeric slots of ``gini``/nominal slots of ``variance`` etc. hold NaN.
    ``denominator`` is the impurity normalizer: variance for numeric columns,
    Gini for nominal ones; zero marks a column constant on the reference rows.
    """

    minimum: np.ndarray
    maximum: np.ndarray
    variance: np.ndarray
    gini: np.ndarray
    denominator: np.ndarray
    value_range: np.ndarray
    n_rows: int


def _check_rows(rows, m: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1 or rows.size == 0:
        raise ValueError("row subset must be a non-empty 1-d index array")
    if rows.min() < 0 or rows.max() >= m:
        raise ValueError(f"row indices out of range [0, {m})")
    return rows


def compute_stats(d: Dataset) -> AttributeStats:
    """Statistics over all rows of ``d``; for a subset, pass
    ``d.restrict_rows(rows)``. Variance is the population variance."""
    minimum = np.full(d.n, np.nan)
    maximum = np.full(d.n, np.nan)
    variance = np.full(d.n, np.nan)
    gini = np.full(d.n, np.nan)
    denominator = np.zeros(d.n)

    num = d.numeric_mask
    if num.any():
        block = d.X[:, num]
        minimum[num] = block.min(axis=0)
        maximum[num] = block.max(axis=0)
        variance[num] = block.var(axis=0)
        denominator[num] = variance[num]
    for j in np.flatnonzero(~num):
        size = len(d.kinds[j].domain)
        counts = np.bincount(d.X[:, j].astype(np.intp), minlength=size)
        p = counts / d.m
        gini[j] = 1.0 - float(p @ p)
        denominator[j] = gini[j]

    value_range = maximum - minimum
    return AttributeStats(minimum, maximum, variance, gini, denominator,
                          value_range, d.m)


def load_csv(path, schema=None, target_column: str | None = None) -> Dataset:
    """Load a comma-separated file: header row, UTF-8, decimal point, no
    missing values. The dataset is named after the file's stem.

    Without a schema, a column is numeric iff every value parses as a finite
    real, else nominal with the domain ordered by first appearance. A schema
    is a sequence of "numeric"/"nominal" strings or AttributeKind values, one
    per column (including the target column, whose entry is ignored: the
    target's kind is always inferred).
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path.name}: empty file, expected a header row")
        raw_rows = list(reader)
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise IngestionError(f"{path.name}: duplicate column names in header")
    if not raw_rows:
        raise IngestionError(f"{path.name}: no data rows")

    width = len(header)
    cells: list[list[str]] = []
    for r, row in enumerate(raw_rows, start=2):  # header is line 1
        if len(row) != width:
            raise IngestionError(f"{path.name}: line {r} has {len(row)} fields, "
                                 f"expected {width}")
        stripped = [c.strip() for c in row]
        for j, cell in enumerate(stripped):
            if cell == "":
                raise IngestionError(f"{path.name}: missing value at line {r}, "
                                     f"column {header[j]!r}")
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

    m = len(cells)
    matrix = np.empty((m, width))
    kinds: list[AttributeKind | None] = [None] * width
    for j in range(width):
        column = [row[j] for row in cells]
        wanted = (None if schema is None or j == target_idx
                  else _schema_kind(schema[j]))
        values = _parse_numeric(column)
        if values is not None and not isinstance(wanted, Nominal) and wanted != "nominal":
            if wanted == "numeric" or wanted is None or isinstance(wanted, Numeric):
                matrix[:, j] = values
                kinds[j] = Numeric()
                continue
        if wanted == "numeric" or isinstance(wanted, Numeric):
            bad = next(i for i, v in enumerate(column)
                       if _parse_numeric([v]) is None)
            raise IngestionError(f"{path.name}: column {header[j]!r} declared "
                                 f"numeric but line {bad + 2} holds "
                                 f"{column[bad]!r}")
        domain: tuple[str, ...]
        if isinstance(wanted, Nominal):
            domain = wanted.domain
            lookup = {v: i for i, v in enumerate(domain)}
            for i, v in enumerate(column):
                if v not in lookup:
                    raise IngestionError(f"{path.name}: line {i + 2}, column "
                                         f"{header[j]!r}: value {v!r} outside "
                                         f"the declared domain")
        else:
            seen: dict[str, int] = {}
            for v in column:
                if v not in seen:
                    seen[v] = len(seen)
            domain = tuple(seen)
            lookup = seen
        matrix[:, j] = [lookup[v] for v in column]
        kinds[j] = Nominal(domain)

    target = None
    if target_idx is not None:
        target = matrix[:, target_idx].copy()
        keep = [j for j in range(width) if j != target_idx]
        matrix = matrix[:, keep]
        header = [header[j] for j in keep]
        kinds = [kinds[j] for j in keep]

    return Dataset(path.stem, tuple(header), tuple(kinds), matrix, target)


def _schema_kind(entry):
    if isinstance(entry, (Numeric, Nominal)):
        return entry
    if entry in ("numeric", "nominal"):
        return entry
    raise IngestionError(f"schema entries must be 'numeric', 'nominal', or an "
                         f"AttributeKind, got {entry!r}")


def _parse_numeric(column: list[str]) -> np.ndarray | None:
    out = np.empty(len(column))
    for i, cell in enumerate(column):
        try:
            out[i] = float(cell)
        except ValueError:
            return None
    if not np.isfinite(out).all():
        return None
    return out


def write_csv(d: Dataset, path) -> None:
    """Write a dataset back out under the same CSV contract; a target, if
    any, goes last under the header ``target``."""
    path = Path(path)
    header = list(d.attr_names)
    if d.target is not None:
        header.append("target")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(d.m):
            row = []
            for j, kind in enumerate(d.kinds):
                v = d.X[i, j]
                row.append(kind.domain[int(v)] if isinstance(kind, Nominal)
                           else repr(float(v)))
            if d.target is not None:
                row.append(repr(float(d.target[i])))
            writer.writerow(row)
