"""Deterministic random streams.

Every random decision in the package is drawn from a generator keyed by
(master seed, purpose tag, indices...). Child streams are independent of
each other and of execution order, so results never depend on scheduling
or on how work is split across workers.
"""

from __future__ import annotations

import numpy as np

# Purpose tags. Never reuse a tag for a new purpose: doing so would silently
# correlate streams that the determinism contract assumes are independent.
TREE = 1
OOB_PERMUTATION = 2
FOLDS = 3
KMEANS = 4
SYNTH = 5
RELIEF = 6


def stream(*key: int) -> np.random.Generator:
    """Return a generator for the given (seed, tag, indices...) key: the
    one ``np.random.default_rng(np.random.SeedSequence(key))`` returns."""
    if any(k < 0 for k in key):
        raise ValueError(f"stream keys must be non-negative, got {key}")
    return np.random.default_rng(np.random.SeedSequence(key))
