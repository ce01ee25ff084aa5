"""Seeded RNG streams, the ascents' unit-row draw, and the memory reader.

Random streams are counter-based (Philox): every unit of work (solver
restart, rounding trial, search restart) draws from a generator that is a
pure function of (seed, domain, index), so units can run in any order or
concurrently and still reproduce bitwise.

A Philox stream is fixed by its key and counter alone, so a loop over many
units need not build a generator per unit: trial_streams repositions one
generator at the exact state rng_for would build. Building a Philox pulls
OS entropy for a seed sequence that the key then overrides, several times
the cost of setting the state of an existing one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


# Stream domains. Keeping them distinct means a pipeline can reuse one user
# seed for solving, rounding and searching without correlating the draws.
DOMAIN_SOLVER = 0
DOMAIN_ROUNDING = 1
DOMAIN_PRODUCT_SEARCH = 2
DOMAIN_GENERATE = 3
DOMAIN_LANCZOS = 4

_MASK64 = (1 << 64) - 1


def rng_for(seed: int, domain: int, index: int) -> np.random.Generator:
    """Generator that is a pure function of (seed, domain, index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, 0, domain], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def trial_streams(seed: int, domain: int) -> Callable[[int], np.random.Generator]:
    """at(index): one reused generator, reset to rng_for(seed, domain, index).

    Every call returns the same Generator, restarted at the beginning of
    stream `index` with an empty output buffer, so draw from it before the
    next call.
    """
    gen = rng_for(seed, domain, 0)
    bits = gen.bit_generator
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    # the setter copies every value out, so one dict serves every call
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, 0, 0, domain], dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def at(index: int) -> np.random.Generator:
        key[1] = index & _MASK64
        bits.state = state
        return gen

    return at


def unit_rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Gaussian draws of `shape`, scaled to unit norm along the last axis."""
    U = rng.standard_normal(shape)
    U /= np.sqrt((U * U).sum(axis=-1, keepdims=True))
    return U


def available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo, or None where the kernel reports none."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None
