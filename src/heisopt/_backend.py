"""Seeded RNG streams.

Random streams are counter-based (Philox): every unit of work (solver
restart, rounding trial, search restart) draws from a generator that is a
pure function of (seed, domain, index), so units can run in any order or
concurrently and still reproduce bitwise.
"""

from __future__ import annotations

import numpy as np


# Stream domains. Keeping them distinct means a pipeline can reuse one user
# seed for solving, rounding and searching without correlating the draws.
DOMAIN_SOLVER = 0
DOMAIN_ROUNDING = 1
DOMAIN_PRODUCT_SEARCH = 2
DOMAIN_GENERATE = 3
DOMAIN_POWER = 4

_MASK64 = (1 << 64) - 1


def rng_for(seed: int, domain: int, index: int) -> np.random.Generator:
    """Generator that is a pure function of (seed, domain, index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, 0, domain], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
