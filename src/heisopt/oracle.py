"""Exact and heuristic reference values for small instances.

Two eigenvalue routes, picked from the matrix-free operator
(_kernels, "matrix-free Hamiltonian") and reported as ExactResult.method:

  * diagonal - no edge has a nonzero XX or YY term (flip_edges is empty),
               so the Hamiltonian is diagonal in the computational basis;
               build that diagonal one qubit at a time (zz_diagonal) and
               scan its first 2^(n-1) entries, where the palindromic
               diagonal has its first maximum, without forming a matrix.
  * lanczos  - matrix-free Lanczos with full reorthogonalisation against a
               bounded basis of k = min(_BASIS, 2^n) vectors. Its diagonal
               (offset plus ZZ terms) and its flip table (one row of 2^n
               values per edge with an XX or YY term) are built once per
               call. Every _CHECK_EVERY steps, and when the basis is full
               or the Krylov space invariant, it takes the top eigenpair
               (theta, s) of the tridiagonal T_j; beta_j |s_j| is the
               residual of that Ritz pair (Parlett, The Symmetric Eigenvalue
               Problem, 13.2). Once it is at most _ESTIMATE_MARGIN times the
               tolerance, the Ritz vector is formed and accepted only if its
               true residual ||H psi - lambda psi|| is at most _TOL (1 +
               |lambda|); otherwise the steps go on. A full basis (or an
               invariant space) whose Ritz vector fails that test restarts
               from it.

Both stop at MAX_QUBITS; larger instances raise OracleLimitError, and so
does a Lanczos run whose basis, vectors and flip table, (_BASIS + 4 + T) *
2^n doubles for T flip terms (about 537 MB plus 8.4 MB per term at n = 20),
exceed the memory the kernel reports available.

Plus a Bloch-vector coordinate-ascent search for the best product state,
the reference point that an oracle pipeline reports. Its restarts are the
columns of one array (W of shape (3, n, R)), each from its own Philox
stream (trial_streams); they sweep together and stop together. A sweep
sets the Bloch vectors one greedy colour class at a time (qubits that
share no edge), every restart at once with one matmul per class, on the
relaxation's schedule (_kernels.ascend).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _backend, _kernels
from ._backend import DOMAIN_LANCZOS, DOMAIN_PRODUCT_SEARCH, rng_for, trial_streams, unit_rows
from .instance import Instance
# build_dense is not called here; perfbench's traced run wraps oracle.build_dense.
from .pauli import ProductState, build_dense  # noqa: F401

__all__ = [
    "OracleLimitError",
    "check_qubits",
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
# Lanczos tests its Ritz residual estimate every _CHECK_EVERY steps, and forms
# the Ritz vector once the estimate is at most _ESTIMATE_MARGIN x the tolerance
_CHECK_EVERY = 5
_ESTIMATE_MARGIN = 0.1
# the product search stops once no restart gains this much between two
# checks, or after this many sweeps
_ASCENT_TOL = 1e-12
_MAX_SWEEPS = 10000


class OracleLimitError(RuntimeError):
    """Instance too large for every admissible exact method."""


@dataclass(frozen=True)
class ExactResult:
    lambda_max: float
    method: str
    residual: float


def check_qubits(inst: Instance) -> None:
    """Raise OracleLimitError if the instance is above MAX_QUBITS qubits."""
    if inst.n > MAX_QUBITS:
        raise OracleLimitError(f"n={inst.n} exceeds the exact oracle's limit of {MAX_QUBITS} qubits")


def _lanczos_max(zz, wc3, terms) -> ExactResult:
    """Lanczos on the diagonal zz_diagonal(*zz) plus the `terms` flip terms of wc3."""
    n, ei, ej = zz[:3]
    size = 1 << n
    k = min(_BASIS, size)
    # held at once: the basis, the diagonal, out, v, one temporary and the
    # flip table
    need = (k + 4 + terms) * size * 8
    avail = _backend.available_bytes()
    if avail is not None and need > avail:
        raise OracleLimitError(
            f"Lanczos at n={n} needs {need} bytes but only {avail} bytes are available"
        )
    diag = _kernels.zz_diagonal(*zz)
    table = _kernels.flip_table(n, ei, ej, wc3)
    Q = np.empty((k, size))
    out = np.empty(size)
    # A random start has weight in every symmetry sector; all-ones has none
    # in the singlet sector, where lambda_max of antiferromagnetic edges lies.
    v = rng_for(0, DOMAIN_LANCZOS, 0).standard_normal(size)
    for _ in range(_MAX_RESTARTS):
        Q[0] = v / np.linalg.norm(v)
        a = np.zeros(k)
        b = np.zeros(k)
        for j in range(k):
            m = j + 1
            _kernels.apply_edges(Q[j], out, diag, table)
            a[j] = Q[j] @ out
            last = m == k
            if not last:
                # the three-term recurrence, then one full reorthogonalisation,
                # and a second one only if the first cancelled much of r
                # (Daniel, Gragg, Kaufman & Stewart 1976)
                r = out - a[j] * Q[j]
                if j:
                    r -= b[j - 1] * Q[j - 1]
                before = np.linalg.norm(r)
                r -= Q[:m].T @ (Q[:m] @ r)
                b[j] = np.linalg.norm(r)
                if b[j] < np.sqrt(0.5) * before:
                    r -= Q[:m].T @ (Q[:m] @ r)
                    b[j] = np.linalg.norm(r)
                # the Krylov space is invariant: its Ritz values are exact
                last = b[j] <= 1e-12 * np.linalg.norm(out)
            if last or m % _CHECK_EVERY == 0:
                T = np.diag(a[:m]) + np.diag(b[: m - 1], 1) + np.diag(b[: m - 1], -1)
                thetas, S = np.linalg.eigh(T)
                theta, s = thetas[-1], S[:, -1]
                if last or b[j] * abs(s[-1]) <= _ESTIMATE_MARGIN * _TOL * (1.0 + abs(theta)):
                    v = s @ Q[:m]
                    v /= np.linalg.norm(v)
                    _kernels.apply_edges(v, out, diag, table)
                    lam = float(v @ out)
                    resid = float(np.linalg.norm(out - lam * v))
                    if resid <= _TOL * (1.0 + abs(lam)):
                        return ExactResult(lambda_max=lam, method="lanczos", residual=resid)
            if last:
                break
            Q[m] = r / b[j]
    raise RuntimeError(
        f"Lanczos did not reach residual {_TOL} x (1 + |lambda|) in {_MAX_RESTARTS} restarts "
        f"of {k} vectors"
    )


def exact_max_eigenvalue(inst: Instance) -> ExactResult:
    """Largest eigenvalue of the instance Hamiltonian, exactly.

    Raises OracleLimitError above MAX_QUBITS qubits, and RuntimeError if
    Lanczos reaches its restart cap without converging.
    """
    check_qubits(inst)
    ei, ej, _, wc3 = inst.arrays()
    zz = (inst.n, ei, ej, -wc3[:, 2], inst.identity_coeff)
    terms = _kernels.flip_edges(wc3).size
    if not terms:
        best, _ = _kernels.diag_extreme(*zz)
        return ExactResult(lambda_max=best, method="diagonal", residual=0.0)
    return _lanczos_max(zz, wc3, terms)


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
) -> ProductSearchResult:
    """Coordinate ascent over Bloch vectors, best of `restarts` random starts.

    Each sweep moves every Bloch vector to, or over-relaxed past, the
    normalized local field c_i = sum over edges at i of -w * coeffs *
    r_other, one colour class of qubits at a time (_kernels.ascend). All
    restarts sweep as one batch until no restart gains _ASCENT_TOL between
    two checks, or at _MAX_SWEEPS. `sweeps` is restarts x batch sweeps and
    `capped` counts the restarts whose last check still gained
    _ASCENT_TOL; a cap also logs a warning on the "heisopt" logger.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    A, classes = inst.incidence()
    # restart k is column k of the kernel's layout (3, n, R), drawn from
    # rng_for(seed, DOMAIN_PRODUCT_SEARCH, k)
    at = trial_streams(seed, DOMAIN_PRODUCT_SEARCH)
    W = np.empty((3, inst.n, restarts))
    for k in range(restarts):
        W[:, :, k] = unit_rows(at(k), (inst.n, 3)).T
    energy = np.full(restarts, -np.inf)
    for sweeps in _kernels.ascend(W, classes, 0, _MAX_SWEEPS):
        new = inst.identity_coeff + 0.5 * np.einsum("knr,knr->r", W, A @ W)
        gained = new - energy >= _ASCENT_TOL
        energy = new
        if not gained.any():
            break
    best = int(np.argmax(energy))
    capped = int(gained.sum())
    if capped:
        log.warning(
            "product search: %d of %d restarts stopped at max_sweeps=%d",
            capped, restarts, _MAX_SWEEPS,
        )
    return ProductSearchResult(
        state=ProductState(bloch=W[:, :, best].T),
        energy=float(energy[best]),
        restarts_used=restarts,
        sweeps=restarts * sweeps,
        capped=capped,
    )
