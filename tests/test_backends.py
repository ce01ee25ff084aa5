"""Counter-based RNG streams from heisopt._backend."""

import io

import numpy as np
import pytest

from heisopt import _backend
from heisopt._backend import rng_for, trial_streams


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


DOMAINS = sorted(v for k, v in vars(_backend).items() if k.startswith("DOMAIN_"))


def _state(gen):
    s = gen.bit_generator.state
    return (
        s["bit_generator"],
        s["state"]["key"].tolist(),
        s["state"]["counter"].tolist(),
        s["buffer"].tolist(),
        s["buffer_pos"],
        s["has_uint32"],
        s["uinteger"],
    )


@pytest.mark.parametrize("seed", [0, 11, 2**64 - 1, -1])
@pytest.mark.parametrize("domain", DOMAINS)
def test_trial_streams_match_rng_for_bitwise(seed, domain):
    assert len(DOMAINS) == 5
    at = trial_streams(seed, domain)
    for index in (0, 1, 2**32 + 5, 2**64 - 1):
        for shape in ((2, 240), (1, 120)):
            ref = rng_for(seed, domain, index)
            assert _state(at(index)) == _state(ref)
            got = np.empty(shape)
            at(index).standard_normal(shape, out=got)
            assert np.array_equal(got, ref.standard_normal(shape))
    # each call restarts its stream, whatever was drawn in between
    first = at(5).standard_normal((2, 240))
    other = at(9).standard_normal((2, 240))
    again = at(5).standard_normal((2, 240))
    assert np.array_equal(first, rng_for(seed, domain, 5).standard_normal((2, 240)))
    assert np.array_equal(other, rng_for(seed, domain, 9).standard_normal((2, 240)))
    assert np.array_equal(again, first)


@pytest.mark.parametrize(
    "meminfo, want",
    [
        ("MemTotal:       8000 kB\nMemAvailable:   2000 kB\n", 2000 * 1024),
        ("MemTotal:       8000 kB\nMemFree:        1000 kB\n", None),  # no MemAvailable line
        (None, None),  # the file cannot be read
    ],
)
def test_available_bytes_reads_only_mem_available(monkeypatch, meminfo, want):
    def fake_open(path, *args, **kwargs):
        assert path == "/proc/meminfo"
        if meminfo is None:
            raise OSError("no such file")
        return io.StringIO(meminfo)

    monkeypatch.setattr(_backend, "open", fake_open, raising=False)
    assert _backend.available_bytes() == want
