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
    one ``np.random.default_rng(np.random.SeedSequence(key))`` returns.
    SeedSequence splits each int into its 32-bit words, so a key whose
    elements all fit one word seeds it as a uint32 array, which is the
    same entropy and skips the per-int conversion."""
    if any(k < 0 for k in key):
        raise ValueError(f"stream keys must be non-negative, got {key}")
    entropy = (np.array(key, dtype=np.uint32)
               if all(k < 2**32 for k in key) else key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
