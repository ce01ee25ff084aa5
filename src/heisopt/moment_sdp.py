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
thin SVD of the 3n x 3 coupling matrix. At
full rank the Gram vectors are already the factor a Cholesky step would
extract, so none is needed.

Attempt k starts from random triads drawn from rng_for(SolverConfig.seed,
DOMAIN_SOLVER, k). A sweep visits greedy colour classes of the qubits: a
class shares no edge, so its qubits' blocks are independent and one batched
update is still an exact block maximization. Every few sweeps the ascent
evaluates a dual bound at its current point (_kernels.sdp_dual_bound). The
bound caps the relaxation optimum, and hence lambda_max and every product
state's energy, whether or not the ascent converged; SolveDiagnostics
reports it as upper_bound. The ascent stops once the relative gap
(bound - value) / max(1, |value|) is at most GAP_TOLERANCE, which is what
"converged" means. At full rank the Burer-Monteiro landscape has no
spurious local optima (Boumal, Voroninski & Bandeira 2016), so one attempt
is the default; a further attempt runs only when the previous one stopped
at max_sweeps with its gap still open.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._backend import DOMAIN_SOLVER, rng_for
from .instance import Instance
# best_product_state is not called here; perfbench's traced run wraps
# moment_sdp.best_product_state.
from .oracle import best_product_state  # noqa: F401

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


# relative dual gap at which the ascent stops
GAP_TOLERANCE = 1e-7


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 1
    max_sweeps: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")


@dataclass(frozen=True)
class SolveDiagnostics:
    restarts: int  # attempts run
    total_sweeps: int
    converged: bool
    capped: int
    # dual bound on the relaxation optimum at the returned vectors
    upper_bound: float


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


def _random_triads(n: int, rng) -> np.ndarray:
    """One random orthonormal triad per qubit: Q factors of Gaussian 3n x 3 draws."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, 3 * n, 3)))
    return Q.transpose(0, 2, 1)


def solve_moment_sdp(inst: Instance, cfg: SolverConfig | None = None) -> MomentSolution:
    """Block-coordinate ascent from random triads until the dual gap closes.

    Attempts that stop at cfg.max_sweeps with the gap open are counted in
    diagnostics.capped; the next attempt, up to cfg.restarts, starts afresh.
    The best-valued attempt is returned with its own bound, which is valid
    whether or not it converged. A capped solve logs a warning on the
    "heisopt" logger.
    """
    cfg = cfg or SolverConfig()
    wsum = float(inst.arrays()[2].sum())
    A, classes = inst.incidence()

    best = None
    total = capped = 0
    for k in range(cfg.restarts):
        V = _random_triads(inst.n, rng_for(cfg.seed, DOMAIN_SOLVER, k))
        value, bound, sweeps, converged, monotone = _kernels.sdp_sweeps(
            V, A, classes, wsum, cfg.max_sweeps, GAP_TOLERANCE
        )
        if not monotone:
            raise RuntimeError("sweep objective decreased; ascent invariant violated")
        total += sweeps
        if best is None or value > best[1]:
            best = (V, value, bound, converged)
        if converged:
            break
        capped += 1
    V, value, bound, converged = best
    if capped:
        log.warning(
            "moment relaxation: %d of %d attempts stopped at max_sweeps=%d; "
            "relative gap %.3g, tolerance %.3g",
            capped, k + 1, cfg.max_sweeps,
            (bound - value) / max(1.0, abs(value)), GAP_TOLERANCE,
        )
    diag = SolveDiagnostics(
        restarts=k + 1,
        total_sweeps=total,
        converged=converged,
        capped=capped,
        upper_bound=bound + inst.offset,
    )
    return MomentSolution(vectors=V, value=value + inst.offset, diagnostics=diag)


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
    """Inverse of serialize_moment_solution, for feasible points only.

    The rounders refuse an infeasible point as well; a zero vector, say,
    would make projection rounding redraw forever.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("expected header 'n value'")
    n = int(rows[0][0])
    value = float(rows[0][1])
    if len(rows) != 1 + 3 * n:
        raise ValueError(f"expected {3 * n} vector rows, found {len(rows) - 1}")
    V = np.zeros((n, 3, 3 * n))
    seen = set()
    for row in rows[1:]:
        if len(row) != 2 + 3 * n:
            raise ValueError("vector row has wrong arity")
        i, k = int(row[0]), int(row[1])
        if not (0 <= i < n and 0 <= k < 3):
            raise ValueError(f"row index ({i}, {k}) out of range")
        if (i, k) in seen:
            raise ValueError(f"row ({i}, {k}) appears twice")
        seen.add((i, k))
        V[i, k] = [float(x) for x in row[2:]]
    if not (np.isfinite(value) and np.isfinite(V).all()):
        raise ValueError("solution holds a non-finite value")
    sol = MomentSolution(vectors=V, value=value)
    rep = check_feasibility(sol)
    if not rep.passed:
        raise ValueError(f"solution is not feasible: {rep}")
    return sol
