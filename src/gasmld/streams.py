"""Counter-based random streams.

Every stochastic quantity in the workbench is drawn from a Philox generator
keyed by (seed, purpose, ...path), so instances, noise slots and trials can be
regenerated independently of call order and fanned out across workers.
"""

from __future__ import annotations

import numpy as np

# stream purpose tags
CHANNEL = 0
NOISE = 1
EST_ERR = 2
PAYLOAD = 3
GAS = 4
TRIAL = 5


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given (seed, path) coordinates."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
