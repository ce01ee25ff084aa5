"""Level-1 moment relaxation of lambda_max(H), solved at full rank.

Variables are Gram vectors v_{i,k} in R^{3n} (axis k of qubit i), one
orthonormal triad per qubit. That parameterization makes every constraint
of the relaxation hold by construction:

  * unit diagonal:            ||v_{i,k}|| = 1
  * intra-qubit orthogonality: v_{i,k} . v_{i,l} = 0 for k != l
  * PSD moment matrix:        M(ik, jl) = v_{i,k} . v_{j,l} is a Gram matrix

and the objective sum_e w*(1 - alpha <v_i1,v_j1> - beta <v_i2,v_j2>
- gamma <v_i3,v_j3>) is maximized by block-coordinate ascent over triads:
the block update is an orthogonal Procrustes problem, solved exactly via a
thin QR of the 3n x 3 coupling matrix and an SVD of its 3x3 R factor. At
full rank the Gram vectors are already the factor a Cholesky step would
extract, so none is needed.

Restart 0 is warm-started from a heuristic best product state (searched with
SolverConfig.seed) embedded as mutually orthogonal triads; the ascent is
monotone, so the solver value always dominates that product state's energy.
The other restarts start from random triads.

All restarts run as one lock-step batch over a leading restart axis,
V of shape (R, n, 3, 3n): each sweep updates qubit i of every still-active
restart with one stacked QR and one stacked SVD. Each restart keeps its own
stop rule (relative gain below sweep_tolerance, or max_sweeps) and its own
monotonicity check; a restart that has stopped is frozen.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._backend import DOMAIN_SOLVER, rng_for
from .instance import Instance
from .oracle import best_product_state

log = logging.getLogger("heisopt")

__all__ = [
    "SolverConfig",
    "SolveDiagnostics",
    "MomentSolution",
    "FeasibilityReport",
    "solve_moment_sdp",
    "sdp_objective",
    "check_feasibility",
    "serialize_moment_solution",
    "parse_moment_solution",
]


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 5
    sweep_tolerance: float = 1e-10
    max_sweeps: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if not self.sweep_tolerance > 0:
            raise ValueError("sweep_tolerance must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")


@dataclass(frozen=True)
class SolveDiagnostics:
    restarts: int
    total_sweeps: int
    best_restart: int
    best_sweeps: int
    final_improvement: float
    converged: bool
    restart_values: tuple[float, ...]
    capped: int


@dataclass(frozen=True, eq=False)
class MomentSolution:
    """Gram vectors (n, 3, 3n) plus the relaxation value they attain."""

    vectors: np.ndarray
    value: float
    diagnostics: SolveDiagnostics | None = None

    def __post_init__(self):
        V = np.ascontiguousarray(np.asarray(self.vectors, dtype=float))
        if V.ndim != 3 or V.shape[1] != 3 or V.shape[2] != 3 * V.shape[0]:
            raise ValueError(f"expected vectors of shape (n, 3, 3n), got {V.shape}")
        object.__setattr__(self, "vectors", V)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class FeasibilityReport:
    max_norm_deviation: float
    max_orthogonality_deviation: float
    passed: bool


def _embed_product(bloch: np.ndarray) -> np.ndarray:
    """Product state as Gram triads: component 0 shared, the rest per qubit.

    v_{i,k}[0] = r_{i,k}, v_{i,k}[1+2i] = s_{i,k}, v_{i,k}[2+2i] = t_{i,k}
    with (r_i, s_i, t_i) an orthonormal basis of R^3. Cross-qubit inner
    products then equal r_{i,k} r_{j,l}, so the SDP objective at this point
    is exactly the product-state energy.
    """
    n = bloch.shape[0]
    V = np.zeros((n, 3, 3 * n))
    for i in range(n):
        r = bloch[i].astype(float).copy()
        nr = np.linalg.norm(r)
        r = r / nr if nr > 1e-12 else np.array([0.0, 0.0, 1.0])
        e = np.zeros(3)
        e[int(np.argmin(np.abs(r)))] = 1.0
        s = e - (e @ r) * r
        s /= np.linalg.norm(s)
        t = np.cross(r, s)
        for k in range(3):
            V[i, k, 0] = r[k]
            V[i, k, 1 + 2 * i] = s[k]
            V[i, k, 2 + 2 * i] = t[k]
    return V


def _random_triads(n: int, rng) -> np.ndarray:
    V = np.empty((n, 3, 3 * n))
    for i in range(n):
        Q, _ = np.linalg.qr(rng.standard_normal((3 * n, 3)))
        V[i] = Q.T
    return V


def solve_moment_sdp(inst: Instance, cfg: SolverConfig | None = None) -> MomentSolution:
    """Best feasible point over cfg.restarts runs of block-coordinate ascent.

    All restarts run as one lock-step batch; restarts that stop at
    cfg.max_sweeps are counted in diagnostics.capped and logged as a warning
    on the "heisopt" logger.
    """
    cfg = cfg or SolverConfig()
    ei, ej, w, wc3 = inst.arrays()
    nptr, nother, fac = inst.incidence()
    wsum = float(w.sum())

    warm = best_product_state(inst, seed=cfg.seed)
    V = np.empty((cfg.restarts, inst.n, 3, 3 * inst.n))
    V[0] = _embed_product(warm.state.bloch)
    for k in range(1, cfg.restarts):
        V[k] = _random_triads(inst.n, rng_for(cfg.seed, DOMAIN_SOLVER, k))

    obj, sweeps, rel, converged, monotone = _kernels.sdp_sweeps(
        V, nptr, nother, fac, ei, ej, wc3, wsum, cfg.max_sweeps, cfg.sweep_tolerance
    )
    if not monotone.all():
        raise RuntimeError("sweep objective decreased; ascent invariant violated")
    capped = int(cfg.restarts - converged.sum())
    if capped:
        log.warning(
            "moment relaxation: %d of %d restarts stopped at max_sweeps=%d",
            capped, cfg.restarts, cfg.max_sweeps,
        )

    best = int(np.argmax(obj))
    diag = SolveDiagnostics(
        restarts=cfg.restarts,
        total_sweeps=int(sweeps.sum()),
        best_restart=best,
        best_sweeps=int(sweeps[best]),
        final_improvement=float(rel[best]),
        converged=bool(converged[best]),
        restart_values=tuple(float(v) + inst.offset for v in obj),
        capped=capped,
    )
    return MomentSolution(
        vectors=V[best].copy(), value=float(obj[best]) + inst.offset, diagnostics=diag
    )


def sdp_objective(inst: Instance, sol: MomentSolution) -> float:
    """Objective of an arbitrary feasible point against this instance."""
    if sol.n != inst.n:
        raise ValueError(f"solution has n={sol.n}, instance has n={inst.n}")
    ei, ej, w, wc3 = inst.arrays()
    return float(
        _kernels.sdp_objective_kernel(sol.vectors, ei, ej, wc3, w.sum() + inst.offset)
    )


def check_feasibility(sol: MomentSolution) -> FeasibilityReport:
    """Max deviations from unit norms and intra-qubit orthogonality."""
    V = sol.vectors
    norms = np.linalg.norm(V, axis=2)
    norm_dev = float(np.abs(norms - 1.0).max(initial=0.0))
    orth_dev = 0.0
    for k in range(3):
        for l in range(k + 1, 3):
            dots = np.einsum("id,id->i", V[:, k, :], V[:, l, :])
            orth_dev = max(orth_dev, float(np.abs(dots).max(initial=0.0)))
    return FeasibilityReport(
        max_norm_deviation=norm_dev,
        max_orthogonality_deviation=orth_dev,
        passed=norm_dev < 1e-8 and orth_dev < 1e-8,
    )


def serialize_moment_solution(sol: MomentSolution) -> str:
    """Text form: header "n value", then one row "i k <3n floats>" per vector.

    The axis index k is 0-based (0=X, 1=Y, 2=Z).
    """
    lines = [f"{sol.n} {sol.value:.17g}"]
    for i in range(sol.n):
        for k in range(3):
            coords = " ".join(f"{x:.17g}" for x in sol.vectors[i, k])
            lines.append(f"{i} {k} {coords}")
    return "\n".join(lines) + "\n"


def parse_moment_solution(text: str) -> MomentSolution:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("expected header 'n value'")
    n = int(rows[0][0])
    value = float(rows[0][1])
    if len(rows) != 1 + 3 * n:
        raise ValueError(f"expected {3 * n} vector rows, found {len(rows) - 1}")
    V = np.zeros((n, 3, 3 * n))
    for row in rows[1:]:
        if len(row) != 2 + 3 * n:
            raise ValueError("vector row has wrong arity")
        i, k = int(row[0]), int(row[1])
        if not (0 <= i < n and 0 <= k < 3):
            raise ValueError(f"row index ({i}, {k}) out of range")
        V[i, k] = [float(x) for x in row[2:]]
    return MomentSolution(vectors=V, value=value)
