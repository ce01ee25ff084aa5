"""Exact and heuristic reference values for small instances.

Three eigenvalue routes, picked by size and structure and reported as
ExactResult.method:

  * diagonal        - every edge has alpha = beta = 0, so the Hamiltonian
                      is diagonal in the computational basis; scan 2^n
                      diagonal entries without forming a matrix.
  * full_dense      - build the 2^n x 2^n matrix and call a symmetric
                      eigensolver (n up to dense_limit).
  * power_iteration - matrix-free shifted power iteration on H + cI with c
                      large enough to make the spectrum nonnegative (n up
                      to power_limit).

Plus a Bloch-vector coordinate-ascent search for the best product state,
used both as a reference point and as the solver's warm start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._backend import DOMAIN_POWER, DOMAIN_PRODUCT_SEARCH, rng_for
from .instance import Instance
from .pauli import ProductState, build_dense

__all__ = [
    "OracleLimitError",
    "ExactResult",
    "exact_max_eigenvalue",
    "ProductSearchResult",
    "best_product_state",
]


class OracleLimitError(RuntimeError):
    """Instance too large for every admissible exact method."""


@dataclass(frozen=True)
class ExactResult:
    lambda_max: float
    method: str
    residual: float


def _is_diagonal(inst: Instance) -> bool:
    return all(e.alpha == 0.0 and e.beta == 0.0 for e in inst.edges)


def _diag_max(inst: Instance) -> float:
    ei, ej, w, wc3 = inst.arrays()
    mi = (np.int64(1) << (inst.n - 1 - ei)).astype(np.int64)
    mj = (np.int64(1) << (inst.n - 1 - ej)).astype(np.int64)
    wz = np.ascontiguousarray(-wc3[:, 2])
    base = float(w.sum() + inst.offset)
    best, _ = _kernels.diag_extreme(1 << inst.n, mi, mj, wz, base)
    return float(best)


def _power_max(inst: Instance, seed: int, tol: float, max_iters: int) -> ExactResult:
    ei, ej, w, wc3 = inst.arrays()
    mi = (np.int64(1) << (inst.n - 1 - ei)).astype(np.int64)
    mj = (np.int64(1) << (inst.n - 1 - ej)).astype(np.int64)
    ident = float(w.sum() + inst.offset)
    # Shift by the triangle-inequality bound on |lambda| so H + cI >= 0.
    c = float(np.sum(w) + np.sum(np.abs(wc3))) + max(0.0, -inst.offset)
    size = 1 << inst.n
    rng = rng_for(seed, DOMAIN_POWER, 0)
    v = rng.standard_normal(size)
    v /= np.linalg.norm(v)
    out = np.empty(size)
    lam = 0.0
    for _ in range(max_iters):
        _kernels.apply_edges(v, out, mi, mj, wc3, ident)
        y = out + c * v
        lam_s = float(v @ y)
        resid = float(np.linalg.norm(y - lam_s * v))
        lam = lam_s - c
        if resid <= tol * (1.0 + abs(lam)):
            return ExactResult(lambda_max=lam, method="power_iteration", residual=resid)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise RuntimeError("power iteration hit the zero vector")
        v = y / ny
    raise RuntimeError(f"power iteration did not reach tolerance {tol} in {max_iters} iterations")


def exact_max_eigenvalue(
    inst: Instance,
    method: str = "auto",
    dense_limit: int = 14,
    power_limit: int = 20,
    seed: int = 0,
    tol: float = 1e-9,
    max_iters: int = 1_000_000,
) -> ExactResult:
    """Largest eigenvalue of the instance Hamiltonian, exactly.

    Raises OracleLimitError when the instance exceeds every admissible
    method's size limit, and ValueError for an unknown method name.
    """
    if method not in ("auto", "full_dense", "power_iteration"):
        raise ValueError(f"unknown oracle method {method!r}")

    if inst.n <= power_limit and _is_diagonal(inst) and method in ("auto", "full_dense"):
        return ExactResult(lambda_max=_diag_max(inst), method="diagonal", residual=0.0)

    if method in ("auto", "full_dense") and inst.n <= dense_limit:
        H = build_dense(inst, dense_limit=dense_limit).entries
        if np.abs(H.imag).max(initial=0.0) < 1e-12:
            vals, vecs = np.linalg.eigh(H.real)
            psi = vecs[:, -1].astype(complex)
        else:
            vals, vecs = np.linalg.eigh(H)
            psi = vecs[:, -1]
        lam = float(vals[-1])
        resid = float(np.linalg.norm(H @ psi - lam * psi))
        return ExactResult(lambda_max=lam, method="full_dense", residual=resid)
    if method == "full_dense":
        raise OracleLimitError(f"n={inst.n} exceeds dense_limit={dense_limit}")

    if inst.n <= power_limit:
        return _power_max(inst, seed, tol, max_iters)
    raise OracleLimitError(f"n={inst.n} exceeds power_limit={power_limit}")


@dataclass(frozen=True)
class ProductSearchResult:
    state: ProductState
    energy: float
    restarts_used: int


def best_product_state(
    inst: Instance,
    restarts: int = 50,
    seed: int = 0,
    max_sweeps: int = 10000,
    tol: float = 1e-12,
) -> ProductSearchResult:
    """Coordinate ascent over Bloch vectors, best of `restarts` random starts.

    Each sweep sets every Bloch vector to the normalized local field
    c_i = sum over edges at i of -w * coeffs * r_other, which cannot lower
    the energy; sweeps stop once a full pass gains less than tol.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    ei, ej, w, wc3 = inst.arrays()
    nptr, nother, fac = inst.incidence()
    ident = float(w.sum() + inst.offset)

    best_B = None
    best_energy = -np.inf
    for k in range(restarts):
        rng = rng_for(seed, DOMAIN_PRODUCT_SEARCH, k)
        B = rng.standard_normal((inst.n, 3))
        norms = np.linalg.norm(B, axis=1)
        while (norms < 1e-12).any():
            bad = norms < 1e-12
            B[bad] = rng.standard_normal((int(bad.sum()), 3))
            norms = np.linalg.norm(B, axis=1)
        B /= norms[:, None]
        B = np.ascontiguousarray(B)
        energy, _, _ = _kernels.ascent_sweeps(
            B, nptr, nother, fac, ei, ej, wc3, ident, max_sweeps, tol
        )
        if energy > best_energy:
            best_energy = float(energy)
            best_B = B.copy()
    return ProductSearchResult(
        state=ProductState(bloch=best_B), energy=best_energy, restarts_used=restarts
    )
