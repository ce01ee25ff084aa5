"""Exact and heuristic reference values for small instances.

Two eigenvalue routes, picked by structure and reported as
ExactResult.method:

  * diagonal - every edge has alpha = beta = 0, so the Hamiltonian is
               diagonal in the computational basis; scan 2^n diagonal
               entries without forming a matrix.
  * lanczos  - matrix-free Lanczos with full reorthogonalisation against a
               bounded basis, restarted from the current Ritz vector until
               the true residual ||H psi - lambda psi|| is small.

Both stop at MAX_QUBITS; larger instances raise OracleLimitError.

Plus a Bloch-vector coordinate-ascent search for the best product state,
the reference point that an oracle pipeline reports. Its restarts
run as one lock-step batch over a leading restart axis (B of shape
(R, n, 3)); each restart keeps its own Philox start and its own stop rule.
A sweep sets the Bloch vectors one greedy colour class at a time (qubits
that share no edge), every restart at once with one matmul per class.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._backend import DOMAIN_POWER, DOMAIN_PRODUCT_SEARCH, rng_for
from .instance import Instance
# build_dense is not called here; perfbench's traced run wraps oracle.build_dense.
from .pauli import ProductState, build_dense  # noqa: F401

__all__ = [
    "OracleLimitError",
    "ExactResult",
    "exact_max_eigenvalue",
    "ProductSearchResult",
    "best_product_state",
]

log = logging.getLogger("heisopt")

MAX_QUBITS = 20
_BASIS = 60
_MAX_RESTARTS = 500
_TOL = 1e-10
# a product-search restart stops once a full sweep gains less than this
_ASCENT_TOL = 1e-12


class OracleLimitError(RuntimeError):
    """Instance too large for every admissible exact method."""


@dataclass(frozen=True)
class ExactResult:
    lambda_max: float
    method: str
    residual: float


def _is_diagonal(inst: Instance) -> bool:
    return all(e.alpha == 0.0 and e.beta == 0.0 for e in inst.edges)


def _bit_masks(inst: Instance, ei, ej):
    mi = (np.int64(1) << (inst.n - 1 - ei)).astype(np.int64)
    mj = (np.int64(1) << (inst.n - 1 - ej)).astype(np.int64)
    return mi, mj


def _diag_max(inst: Instance) -> float:
    ei, ej, w, wc3 = inst.arrays()
    mi, mj = _bit_masks(inst, ei, ej)
    wz = np.ascontiguousarray(-wc3[:, 2])
    base = float(w.sum() + inst.offset)
    best, _ = _kernels.diag_extreme(1 << inst.n, mi, mj, wz, base)
    return float(best)


def _lanczos_max(inst: Instance) -> ExactResult:
    ei, ej, w, wc3 = inst.arrays()
    mi, mj = _bit_masks(inst, ei, ej)
    ident = float(w.sum() + inst.offset)
    size = 1 << inst.n
    k = min(_BASIS, size)
    Q = np.empty((k, size))
    out = np.empty(size)
    # A random start has weight in every symmetry sector; all-ones has none
    # in the singlet sector, where lambda_max of antiferromagnetic edges lies.
    v = rng_for(0, DOMAIN_POWER, 0).standard_normal(size)
    for _ in range(_MAX_RESTARTS):
        Q[0] = v / np.linalg.norm(v)
        a = np.zeros(k)
        b = np.zeros(k)
        m = k
        for j in range(k):
            _kernels.apply_edges(Q[j], out, mi, mj, wc3, ident)
            a[j] = Q[j] @ out
            if j + 1 == k:
                break
            r = out - Q[: j + 1].T @ (Q[: j + 1] @ out)
            r -= Q[: j + 1].T @ (Q[: j + 1] @ r)
            b[j] = np.linalg.norm(r)
            if b[j] <= 1e-12 * np.linalg.norm(out):
                m = j + 1  # the Krylov space is invariant: its Ritz values are exact
                break
            Q[j + 1] = r / b[j]
        T = np.diag(a[:m]) + np.diag(b[: m - 1], 1) + np.diag(b[: m - 1], -1)
        v = np.linalg.eigh(T)[1][:, -1] @ Q[:m]
        v /= np.linalg.norm(v)
        _kernels.apply_edges(v, out, mi, mj, wc3, ident)
        lam = float(v @ out)
        resid = float(np.linalg.norm(out - lam * v))
        if resid <= _TOL * (1.0 + abs(lam)):
            return ExactResult(lambda_max=lam, method="lanczos", residual=resid)
    raise RuntimeError(
        f"Lanczos did not reach residual {_TOL} x (1 + |lambda|) in {_MAX_RESTARTS} restarts "
        f"of {k} vectors"
    )


def exact_max_eigenvalue(inst: Instance) -> ExactResult:
    """Largest eigenvalue of the instance Hamiltonian, exactly.

    Raises OracleLimitError above MAX_QUBITS qubits, and RuntimeError if
    Lanczos reaches its restart cap without converging.
    """
    if inst.n > MAX_QUBITS:
        raise OracleLimitError(f"n={inst.n} exceeds the exact oracle's limit of {MAX_QUBITS} qubits")
    if _is_diagonal(inst):
        return ExactResult(lambda_max=_diag_max(inst), method="diagonal", residual=0.0)
    return _lanczos_max(inst)


@dataclass(frozen=True)
class ProductSearchResult:
    state: ProductState
    energy: float
    restarts_used: int
    sweeps: int
    capped: int


def best_product_state(
    inst: Instance,
    restarts: int = 50,
    seed: int = 0,
    max_sweeps: int = 10000,
) -> ProductSearchResult:
    """Coordinate ascent over Bloch vectors, best of `restarts` random starts.

    Each sweep sets every Bloch vector to the normalized local field
    c_i = sum over edges at i of -w * coeffs * r_other, which cannot lower
    the energy, one colour class of qubits at a time; a restart stops once
    a full pass gains less than _ASCENT_TOL, or at max_sweeps. All restarts
    run as one lock-step batch. `sweeps` is their total and `capped` counts
    those stopped by max_sweeps, which also logs a warning on the "heisopt"
    logger.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    ident = float(inst.arrays()[2].sum() + inst.offset)
    A, classes = inst.incidence()

    B = np.empty((restarts, inst.n, 3))
    for k in range(restarts):
        rng = rng_for(seed, DOMAIN_PRODUCT_SEARCH, k)
        Bk = rng.standard_normal((inst.n, 3))
        norms = np.linalg.norm(Bk, axis=1)
        while (norms < 1e-12).any():
            bad = norms < 1e-12
            Bk[bad] = rng.standard_normal((int(bad.sum()), 3))
            norms = np.linalg.norm(Bk, axis=1)
        B[k] = Bk / norms[:, None]
    energy, sweeps, converged = _kernels.ascent_sweeps(B, A, classes, ident, max_sweeps, _ASCENT_TOL)
    best = int(np.argmax(energy))
    capped = int(restarts - converged.sum())
    if capped:
        log.warning(
            "product search: %d of %d restarts stopped at max_sweeps=%d",
            capped, restarts, max_sweeps,
        )
    return ProductSearchResult(
        state=ProductState(bloch=B[best].copy()),
        energy=float(energy[best]),
        restarts_used=restarts,
        sweeps=int(sweeps.sum()),
        capped=capped,
    )
