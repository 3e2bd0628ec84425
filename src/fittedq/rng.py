"""Deterministic random-number streams.

Every stochastic consumer (environment sampling, network initialization,
minibatch draws, exploration) owns a stream derived from the master seed
and a string label, so adding or removing one consumer never perturbs the
draws seen by the others.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_key(label):
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


MAX_SEED = 2**63 - 1


def rng_stream(master_seed, label):
    """Generator seeded by (master_seed, sha256(label)); stable across runs.
    No two master seeds in ``[0, MAX_SEED]`` share a stream; others raise."""
    if not 0 <= master_seed <= MAX_SEED:
        raise ValueError(f"master seed {master_seed} lies outside [0, 2**63 - 1]")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), stream_key(label)]))
