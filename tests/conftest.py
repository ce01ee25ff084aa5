"""Shared helpers: independent dense references built from first principles.

Everything here is deliberately written without the library's fast paths
(plain kron products, explicit eigensolves, exhaustive enumeration) so the
tests cross-check the package against a second, dumber implementation.
"""

import numpy as np
import pytest

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_chain(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def dense_reference(inst):
    """Hamiltonian via plain kron products; qubit 0 is the leftmost factor."""
    dim = 2**inst.n
    H = np.zeros((dim, dim), dtype=complex)
    for e in inst.edges:
        for coeff, sig in ((e.alpha, SX), (e.beta, SY), (e.gamma, SZ)):
            ops = [I2] * inst.n
            ops[e.i] = sig
            ops[e.j] = sig
            H -= e.w * coeff * kron_chain(ops)
        H += e.w * np.eye(dim)
    return H + inst.offset * np.eye(dim)


def bloch_density(r):
    return (I2 + r[0] * SX + r[1] * SY + r[2] * SZ) / 2.0


def product_density(bloch):
    rho = np.array([[1.0 + 0j]])
    for r in bloch:
        rho = np.kron(rho, bloch_density(r))
    return rho


def brute_force_max_cut(n, edges):
    """Exhaustive max cut; edges as (i, j, w) triples."""
    best = 0.0
    for mask in range(1 << (n - 1)):  # vertex n-1 pinned to side 0
        cut = 0.0
        for i, j, w in edges:
            si = (mask >> i) & 1 if i < n - 1 else 0
            sj = (mask >> j) & 1 if j < n - 1 else 0
            if si != sj:
                cut += w
        best = max(best, cut)
    return best


def random_instance(rng, n=None, coeffs="arbitrary", weights="uniform", p=0.5):
    """Small random instance; coeffs in {'arbitrary', 'corner', 'family', 'zz'}.

    'zz' draws alpha = beta = 0 and gamma uniform in [-1, 1] (mixed signs), so
    the Hamiltonian is diagonal.
    """
    from heisopt import Edge, Instance

    if n is None:
        n = int(rng.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = rng.random(len(pairs)) < p
    if not keep.any():
        keep[int(rng.integers(len(pairs)))] = True
    tags = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    family = tags[int(rng.integers(7))]
    edges = []
    for (i, j), k in zip(pairs, keep):
        if not k:
            continue
        w = 1.0 if weights == "unit" else float(rng.uniform(0.1, 1.0))
        if coeffs == "arbitrary":
            a, b, g = (float(x) for x in rng.uniform(-1, 1, 3))
        elif coeffs == "zz":
            a, b, g = 0.0, 0.0, float(rng.uniform(-1, 1))
        elif coeffs == "corner":
            a, b, g = (float(x) for x in rng.choice([-1.0, 1.0], 3))
        else:
            a, b, g = (float(x) for x in family)
        edges.append(Edge(i, j, w, a, b, g))
    return Instance(n=n, edges=tuple(edges))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
