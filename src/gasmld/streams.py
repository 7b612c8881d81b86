"""Counter-based random streams.

Every stochastic quantity is drawn from a Philox generator keyed by (seed,
purpose, ...path), so it regenerates independently of call order; slot t of
an instance is row t of that instance's stream (seed, purpose, instance).
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
