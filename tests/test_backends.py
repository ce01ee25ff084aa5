"""Counter-based RNG streams from heisopt._backend."""

import numpy as np

from heisopt._backend import rng_for


def test_philox_streams_are_domain_separated():
    a = rng_for(0, 0, 0).standard_normal(4)
    b = rng_for(0, 1, 0).standard_normal(4)
    c = rng_for(0, 0, 1).standard_normal(4)
    d = rng_for(1, 0, 0).standard_normal(4)
    streams = [a, b, c, d]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.allclose(streams[i], streams[j])
    # and reproducible
    assert np.array_equal(a, rng_for(0, 0, 0).standard_normal(4))
