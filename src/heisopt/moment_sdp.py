"""Level-1 moment relaxation of lambda_max(H), solved axis by axis at rank p.

The variables are Gram vectors v_{i,k}, an orthonormal triad per qubit i,
and the objective sum_e w*(1 - alpha <v_i1,v_j1> - beta <v_i2,v_j2> - gamma
<v_i3,v_j3>) reads only same-axis inner products. So the relaxation is one
Max-Cut-type SDP per axis coupling A[k], max 1/2 <A[k], Y> over PSD Y with
unit diagonal, and three such Y make a feasible moment matrix. Axes with
equal edge columns w * coeff_k (all three for the XYZ family) share one
SDP, counted once per axis; an axis whose edge coefficients are all zero
adds 0, holds a fixed vector and has no coupling built.

Each SDP is solved as Y = U U^T with unit rows U (n, p), p = min(n,
ceil(sqrt(2n)) + 1), above which the landscape has no spurious
second-order points (Boumal, Voroninski & Bandeira 2016, arXiv:1606.04970).
The blocks ascend in lock-step (_kernels.ascend) from unit rows drawn from
rng_for(SolverConfig.seed, DOMAIN_SOLVER, 0), by over-relaxed block
steps (_kernels.OVER_RELAX) that never lower the objective, with a plain
block step before each bound evaluation. Their dual bound
(_kernels.rank_bound) caps the optimum, and so lambda_max, whether or not
the ascent converged: "converged" means (bound - value) / max(1, |value|)
<= GAP_TOLERANCE. One ascent is run, since at rank p another random start
has no better optimum to find; one capped at _kernels.MAX_SWEEPS returns
its bound.
The output writes v_{i,k} = e_k (x) u_{k,i} into the zero-padded (n, 3, 3n)
layout, so each triad is orthonormal by construction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._backend import DOMAIN_SOLVER, rng_for, unit_rows
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


# the ascent stops once its relative dual gap is at most GAP_TOLERANCE, or
# after _kernels.MAX_SWEEPS sweeps
GAP_TOLERANCE = 1e-7


@dataclass(frozen=True)
class SolverConfig:
    """The seed of the solver's one ascent."""

    # kept for perfbench/test_checks.py, which passes 1; ROADMAP item 1 deletes it
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.restarts != 1:
            raise ValueError("the solver runs one ascent: restarts must be 1")


@dataclass(frozen=True)
class SolveDiagnostics:
    # a lock-step sweep counts once for all axes
    total_sweeps: int
    converged: bool
    # dual bound on the relaxation optimum at the returned vectors
    upper_bound: float
    rank: int  # p, the width of each axis's rows
    # always 1; read by perfbench/spans.py, and ROADMAP item 1 deletes it
    restarts: int = 1


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


def _axis_blocks(wc3: np.ndarray) -> tuple[list[int], list[int]]:
    """Axes of the distinct nonzero edge columns wc3[:, k], and each axis's index among them or -1."""
    # a key is a nonzero column that no earlier axis repeats; a zero column matches no key
    cols = wc3.T
    keys = [k for k in range(3) if cols[k].any() and not any(np.array_equal(cols[j], cols[k]) for j in range(k))]
    block = [next((b for b, j in enumerate(keys) if np.array_equal(cols[j], cols[k])), -1) for k in range(3)]
    return keys, block


def solve_moment_sdp(inst: Instance, cfg: SolverConfig | None = None) -> MomentSolution:
    """Lock-step rank-p ascent from random rows until the dual gap closes.

    The ascent stops at _kernels.MAX_SWEEPS if the gap is still open; it
    returns its bound, which is valid whether or not it converged, and logs
    the relative gap in a warning on the "heisopt" logger. The K blocks'
    couplings come from inst.incidence(keys), whose MemoryError refuses
    them, and the solution they lead to, before either is built if together
    they exceed the memory the kernel reports available.
    """
    cfg = cfg or SolverConfig()
    n = inst.n
    wsum = float(inst.arrays()[2].sum())
    keys, block = _axis_blocks(inst.arrays()[3])
    mult = np.bincount([b for b in block if b >= 0], minlength=len(keys)).astype(float)
    # the (n, 3, 3n) solution below, 72n^2 bytes, is counted by the same guard
    A, classes = inst.incidence(keys, held=72 * n * n)
    p = min(n, math.ceil(math.sqrt(2 * n)) + 1)

    U = unit_rows(rng_for(cfg.seed, DOMAIN_SOLVER, 0), (len(keys), n, p))
    value = -np.inf
    for sweeps in _kernels.ascend(U, classes, 2):
        new, bound = _kernels.rank_bound(U, A, mult, wsum)
        if new < value - 1e-8 * (1.0 + abs(value)):
            raise RuntimeError("sweep objective decreased; ascent invariant violated")
        value = new
        gap = (bound - value) / max(1.0, abs(value))
        converged = gap <= GAP_TOLERANCE
        if converged:
            break
    if not converged:
        log.warning(
            "moment relaxation: stopped at max_sweeps=%d; relative gap %.3g, tolerance %.3g",
            sweeps, gap, GAP_TOLERANCE,
        )
    diag = SolveDiagnostics(total_sweeps=sweeps, converged=converged,
                            upper_bound=bound + inst.offset, rank=p)
    # v_{i,k} = e_k (x) u_{k,i}; an axis with a zero column holds its block's first coordinate
    V = np.zeros((n, 3, 3 * n))
    for k, b in enumerate(block):
        V[:, k, k * n : k * n + p] = U[b] if b >= 0 else np.eye(p)[0]
    return MomentSolution(vectors=V, value=value + inst.offset, diagnostics=diag)


def axis_dots(inst: Instance, sol: MomentSolution) -> np.ndarray:
    """Same-axis inner products (m, 3): [e, k] = <v_{i,k}, v_{j,k}> on edge e = (i, j)."""
    if sol.n != inst.n:
        raise ValueError(f"solution has n={sol.n}, instance has n={inst.n}")
    ei, ej, _, _ = inst.arrays()
    return np.einsum("ekd,ekd->ek", sol.vectors[ei], sol.vectors[ej])


def sdp_objective(inst: Instance, sol: MomentSolution) -> float:
    """Objective of an arbitrary feasible point against this instance."""
    return inst.identity_coeff - float((inst.arrays()[3] * axis_dots(inst, sol)).sum())


def check_feasibility(sol: MomentSolution) -> FeasibilityReport:
    """Max deviations from unit norms and intra-qubit orthogonality, from each qubit's Gram matrix."""
    G = np.einsum("ikd,ild->ikl", sol.vectors, sol.vectors)
    norm_dev = float(np.abs(np.sqrt(np.diagonal(G, axis1=1, axis2=2)) - 1.0).max(initial=0.0))
    orth_dev = float(np.abs(G[:, [0, 0, 1], [1, 2, 2]]).max(initial=0.0))
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
