"""Deterministic random streams derived from one explicit root seed.

Every randomized operation in the package takes a seed plus a stream path
and derives its generator here, so each stage of a pipeline can be
replayed in isolation and whole runs are bit-reproducible.
"""

from __future__ import annotations

import numpy as np


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for stream ``path`` under root ``seed``.

    Philox is counter based, so (seed, path) fully determines the stream
    independently of how many other streams were drawn before it.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))

