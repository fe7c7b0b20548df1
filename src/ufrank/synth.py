"""Seeded synthetic datasets with planted informative features.

The informative block is a Gaussian mixture: every cluster gets its own
center on each informative axis, centers one separation unit apart (in
within-cluster standard deviations), with the center-to-cluster assignment
permuted independently per axis so no single axis orders the clusters the
same way. Noise columns are i.i.d. uniform on [0, 1], a different
distribution family on purpose: accidental structure in noise is easier to
rule out when noise cannot mimic the mixture. Column order is shuffled and
the true informative positions are recorded in the dataset metadata.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import streams
from .data import Dataset, Numeric, json_text, write_csv


@dataclass(frozen=True)
class SynthSpec:
    m: int = 200
    n_informative: int = 5
    n_noise: int = 45
    clusters: int = 4
    separation: float = 6.0
    seed: int = 0
    name: str | None = None

    def __post_init__(self) -> None:
        if self.clusters < 2:
            raise ValueError("need at least two clusters")
        if self.m < self.clusters:
            raise ValueError("need at least one example per cluster")
        if self.n_informative < 1:
            raise ValueError("need at least one informative column")
        if self.n_noise < 0:
            raise ValueError("noise column count cannot be negative")
        if self.separation <= 0:
            raise ValueError("separation must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def make_planted(spec: SynthSpec) -> Dataset:
    """Generate the dataset. Draw order (one stream): cluster labels, then
    per informative axis a center permutation and the axis noise, then the
    noise block, then the column shuffle."""
    rng = streams.stream(spec.seed, streams.SYNTH)
    m, c = spec.m, spec.clusters
    labels = rng.permutation(np.resize(np.arange(c), m))

    informative = np.empty((m, spec.n_informative))
    for a in range(spec.n_informative):
        center_of = rng.permutation(c) * spec.separation
        informative[:, a] = center_of[labels] + rng.normal(size=m)
    noise = rng.uniform(0.0, 1.0, size=(m, spec.n_noise))

    n = spec.n_informative + spec.n_noise
    stacked = np.concatenate([informative, noise], axis=1)
    col_order = rng.permutation(n)
    X = stacked[:, col_order]
    informative_at = np.flatnonzero(col_order < spec.n_informative)

    width = len(str(n - 1))
    names = tuple(f"x{j:0{width}d}" for j in range(n))
    meta = {"informative": tuple(int(j) for j in informative_at),
            "spec": asdict(spec)}
    return Dataset(spec.name or f"planted_s{spec.seed}", names,
                   tuple(Numeric() for _ in range(n)), X,
                   labels.astype(np.float64), meta)


def write_planted(spec: SynthSpec, directory) -> tuple[Path, Path]:
    """CSV under the standard contract plus a ground-truth sidecar."""
    d = make_planted(spec)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{d.name}.csv"
    truth_path = directory / f"{d.name}_truth.json"
    write_csv(d, csv_path)
    truth_path.write_text(json_text({"informative": d.meta["informative"],
                                     "spec": d.meta["spec"]}),
                          encoding="utf-8")
    return csv_path, truth_path
