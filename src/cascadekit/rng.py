"""Seed handling helpers.

All randomness in the package flows through numpy Generators. Functions
accept either an integer seed, a SeedSequence, or an existing Generator,
so callers can pass a master seed at the top and let lower layers derive
independent streams deterministically.
"""

from __future__ import annotations

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Return a Generator for an int seed, SeedSequence, or Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

