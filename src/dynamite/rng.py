"""Seed plumbing: one master seed, labelled substreams.

Every stochastic routine in the package derives its randomness from a master
seed split into labelled child streams, so paired chains are independent by
construction and every run replays exactly from (inputs, seed).
"""
from __future__ import annotations

import numpy as np

# Stream labels.  Values are arbitrary but frozen: changing them changes replay.
CHAIN_A = 1
CHAIN_B = 2
WARMUP = 3
REPLICATE = 4
PHASE = 5

_MASK = (1 << 63) - 1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the substream addressed by ``path`` under ``seed``."""
    entropy = [int(seed) & _MASK] + [int(p) & _MASK for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def child_seed(seed: int, *path: int) -> int:
    """Derive a stable integer seed for a child run (e.g. one counting phase)."""
    entropy = [int(seed) & _MASK] + [int(p) & _MASK for p in path]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])
