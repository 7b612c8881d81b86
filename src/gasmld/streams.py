"""Counter-based random streams.

Every stochastic quantity is drawn from a Philox generator keyed by (seed,
purpose, ...path), so it regenerates independently of call order; slot t of
an instance is row t of that instance's stream (seed, purpose, instance).

The key of (seed, path) is numpy's SeedSequence(seed, spawn_key=path)
.generate_state(2, uint64) (numpy/random/bit_generator.pyx, after
M. E. O'Neill's seed_seq design).  substream computes it with numpy;
substreams computes the same keys for many paths at once from two facts of
that algorithm, for path elements in [0, 2**32), one 32-bit word each:

- the entropy is the seed's words, zero-padded to the 4-word pool, then the
  path's words.  Mixing in the seed leaves SeedSequence(seed).pool, and the
  hash constant, multiplied by MULT_A at each hashed word, at INIT_A MULT_A^(16
  + 4 max(0, words(seed) - 4)) mod 2**32.  What the seed contributes is
  therefore fixed per seed;
- each path word is then hashed once per pool word and mixed into it, with
  constants that depend only on its position.  This is a few uint32 array
  operations over a whole batch of paths, and so is the output hash.

Philox takes its key from its seed's generate_state(2, uint64), so a
generator built on a derived key draws the same bits as one built on numpy's
SeedSequence.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# stream purpose tags
CHANNEL = 0
NOISE = 1
EST_ERR = 2
PAYLOAD = 3
GAS = 4
TRIAL = 5

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = np.uint32(0xca01f9dd)
_MIX_MULT_R = np.uint32(0x4973f715)
_WORD = 1 << 32
# below this many paths numpy's own SeedSequence per path costs less than a
# batch's fixed part: a few dozen small numpy calls, and one SeedSequence for
# each new seed
_MIN_BATCH = 4


def _powers(start: int, mult: int, n: int) -> np.ndarray:
    """start, start mult, ..., start mult^(n-1) mod 2**32."""
    out = [start]
    for _ in range(n - 1):
        out.append(out[-1] * mult % _WORD)
    return np.array(out, dtype=np.uint32)


# the output hash's constants for the 4 words of a uint64 pair: word i is
# hashed with constant i, then multiplied by constant i + 1
_OUT_HASH = _powers(_INIT_B, _MULT_B, 5)


class _Key(ISeedSequence):
    """A key derived beforehand, as Philox's seed: Philox takes its key from
    generate_state(2, np.uint64)."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _generator(key: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_Key(key)))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given (seed, path) coordinates."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return _generator(ss.generate_state(2, np.uint64))


@lru_cache(maxsize=16)
def _seed_prefix(seed: int, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pool after the seed's words (4,), and the constants that hash
    path word j for pool word i: xor[j, i], then multiply by mult[j, i],
    (depth, 4) each."""
    pool = np.random.SeedSequence(seed).pool
    words = max(1, -(-seed.bit_length() // 32))
    start = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), _WORD) % _WORD
    consts = _powers(start, _MULT_A, 4 * depth + 1)
    xor, mult = consts[:-1].reshape(depth, 4), consts[1:].reshape(depth, 4)
    for a in (pool, xor, mult):
        a.setflags(write=False)   # shared by every call under this seed
    return pool, xor, mult


def substreams(seed: int, paths: Iterable[tuple[int, ...]]) -> Iterator[np.random.Generator]:
    """substream(seed, *path) for each of paths, in order, drawing the same
    bits; the paths have one depth and elements in [0, 2**32).

    The keys are derived in one pass and each generator is built when the
    iterator reaches it.  Fewer than _MIN_BATCH paths take substream each.
    """
    paths = list(paths)
    depth = len(paths[0]) if paths else 0
    if len(paths) < _MIN_BATCH and all(len(path) == depth and all(0 <= p < _WORD for p in path)
                                       for path in paths):
        return (substream(seed, *path) for path in paths)
    # the batch, or invalid paths, which the checks below reject
    try:
        words = np.array(paths, dtype=np.int64)
        w32 = words.astype(np.uint32)
        valid = words.ndim == 2 and (w32 == words).all()
    except (OverflowError, ValueError):   # an element beyond int64, or ragged paths
        valid = False
    if not valid:
        raise ValueError("expected paths of one depth with elements in [0, 2**32)")
    pool0, xor, mult = _seed_prefix(int(seed), words.shape[1])
    # every path word hashed for every pool word at once, (n, depth, 4), and
    # times mix's right multiplier; only mixing into the pool is sequential
    h = (w32[:, :, None] ^ xor) * mult
    h ^= h >> 16
    h *= _MIX_MULT_R
    pool = np.tile(pool0, (len(words), 1))
    for j in range(words.shape[1]):
        pool *= _MIX_MULT_L
        pool -= h[:, j]
        pool ^= pool >> 16
    pool ^= _OUT_HASH[:-1]
    pool *= _OUT_HASH[1:]
    pool ^= pool >> 16
    # generate_state's uint64 words are little-endian pairs of uint32 words
    keys = pool.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return map(_generator, keys)
