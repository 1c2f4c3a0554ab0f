"""Deterministic seed derivation and shuffling.

Every source of randomness in a run is derived from the single config seed
through splitmix64 mixing, so independent implementations can reproduce the
exact stream:

    stream 0          -> model parameter initialization
    stream 1 + epoch  -> training-data permutation for that epoch

Epoch permutations are produced by a Fisher-Yates shuffle driven directly by
successive splitmix64 outputs (index ``j = next() % (i + 1)``), which keeps
the permutation reproducible without depending on any RNG library internals.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

INIT_STREAM = 0
# Dataset synthesis gets a stream far above any plausible epoch index so it
# never collides with the per-epoch shuffle streams (1 + epoch).
DATA_STREAM = 1 << 32


def splitmix64(state: int) -> int:
    """One splitmix64 step: returns the output for the given state."""
    z = (state + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix_seed(seed: int, stream: int) -> int:
    """Mix (seed, stream) into one 64-bit value; distinct streams decorrelate."""
    return splitmix64(splitmix64(seed & _MASK64) ^ splitmix64(stream & _MASK64))


def shuffle_stream(epoch: int) -> int:
    return 1 + epoch


def epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """Training-data order for one epoch, as an index permutation of length n."""
    if n <= 0:
        raise ValueError(f"permutation length must be positive, got {n}")
    # Step k of the stream has state seed_state + k * gamma (mod 2^64), so all
    # n - 1 splitmix64 outputs are computed at once in wrapping uint64
    # arithmetic; only the swaps, which depend on each other, run in Python.
    state = np.uint64(mix_seed(seed, shuffle_stream(epoch)))
    z = np.arange(1, n, dtype=np.uint64) * np.uint64(_GAMMA) + state
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z %= np.arange(n, 1, -1, dtype=np.uint64)
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), z.tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def init_rng(seed: int) -> np.random.Generator:
    """Generator used for model parameter initialization."""
    return np.random.Generator(np.random.PCG64(mix_seed(seed, INIT_STREAM)))
