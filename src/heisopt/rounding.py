"""Randomized rounding of moment-relaxation solutions to product states.

Two schemes:

  * bfv_round - family-uniform instances only. Stack each qubit's active
    Gram vectors into a unit row x_i in R^{r*3n}, hit them with one shared
    Gaussian matrix R ~ N(0,1)^{r x r*3n}, and normalize: qubit i's Bloch
    vector is R x_i / ||R x_i|| spread over the active axes.
  * gw_axis_round - any instance. Pick the single axis with the largest
    relaxation contribution, then cut it with a random hyperplane:
    sign(g . v_{i,a*}) gives a +/-1 assignment, a basis-aligned product
    state.

Both run `trials` independent draws, each a pure function of
(seed, trial index), and keep the best trial by energy (first index wins
ties). The Caratheodory splitter rewrites arbitrary coefficients in
[-1,1] as convex mixtures of the 4 nested corner patterns; applied
edgewise it turns any instance into a corner-coefficient multigraph with
the same Hamiltonian.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._backend import DOMAIN_ROUNDING, rng_for
from ._kernels import product_energy_kernel
from .instance import Edge, Instance, is_family_uniform
from .moment_sdp import MomentSolution
from .pauli import ProductState

__all__ = [
    "RoundingOutcome",
    "CornerDecomposition",
    "caratheodory_split",
    "split_instance",
    "bfv_round",
    "gw_axis_round",
]


@dataclass(frozen=True, eq=False)
class RoundingOutcome:
    state: ProductState
    energy: float
    trials_run: int
    per_trial_energies: tuple[float, ...]
    seed: int


@dataclass(frozen=True)
class CornerDecomposition:
    """Convex combination sum_k lambda_k * corner_k of a coefficient triple.

    Corners live in {-1,1}^3; weights are nonnegative, sum to 1, and zero
    weights are dropped, leaving at most 4 terms.
    """

    terms: tuple[tuple[float, tuple[float, float, float]], ...]

    def compose(self) -> tuple[float, float, float]:
        acc = np.zeros(3)
        for lam, corner in self.terms:
            acc += lam * np.asarray(corner)
        return (float(acc[0]), float(acc[1]), float(acc[2]))


def caratheodory_split(alpha: float, beta: float, gamma: float) -> CornerDecomposition:
    """Write (alpha, beta, gamma) in [-1,1]^3 as a convex mixture of corners.

    Map to probabilities p = (1+c)/2, sort descending (ties by coordinate
    index), and telescope over the nested chain of monotone corners that
    flip from all -1 to all +1 in sorted order.
    """
    c = np.array([alpha, beta, gamma], dtype=float)
    if not np.isfinite(c).all() or (np.abs(c) > 1.0).any():
        raise ValueError("coefficients must lie in [-1, 1]")
    order = np.argsort(-c, kind="stable")
    p = (1.0 + c[order]) / 2.0
    weights = [1.0 - p[0], p[0] - p[1], p[1] - p[2], p[2]]
    terms = []
    for j, lam in enumerate(weights):
        if lam <= 0.0:
            continue
        corner = np.full(3, -1.0)
        corner[order[:j]] = 1.0
        terms.append((float(lam), (corner[0], corner[1], corner[2])))
    return CornerDecomposition(terms=tuple(terms))


def split_instance(inst: Instance) -> Instance:
    """Replace every edge by its corner decomposition as parallel edges.

    Each edge (i, j, w, c) becomes up to 4 edges (i, j, w*lambda_k,
    corner_k); the total Hamiltonian is unchanged.
    """
    edges = []
    for e in inst.edges:
        for lam, corner in caratheodory_split(e.alpha, e.beta, e.gamma).terms:
            edges.append(Edge(e.i, e.j, e.w * lam, corner[0], corner[1], corner[2]))
    return Instance(n=inst.n, edges=tuple(edges), label=inst.label, offset=inst.offset)


def _run_trials(trials, seed, threads, one_trial):
    """Map trial indices to (energy, bloch) pairs, optionally in threads."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_trial, range(trials)))
    else:
        results = [one_trial(t) for t in range(trials)]
    energies = np.asarray([r[0] for r in results])
    best = int(np.argmax(energies))
    return energies, results[best][1]


def bfv_round(
    inst: Instance,
    sol: MomentSolution,
    trials: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> RoundingOutcome:
    """Gaussian projection rounding onto the active axes."""
    if trials < 1:
        raise ValueError("need at least one trial")
    tag = is_family_uniform(inst)
    if tag is None:
        raise ValueError(
            "projection rounding needs a family-uniform instance: every edge "
            "must carry the same {0,1} coefficient pattern, at least one axis on"
        )
    if sol.n != inst.n:
        raise ValueError(f"solution has n={sol.n}, instance has n={inst.n}")
    active = list(tag.active_axes)
    r = tag.r
    D = 3 * inst.n
    # x_i: active Gram vectors concatenated in axis order, norm sqrt(r) -> 1.
    X = np.concatenate([sol.vectors[:, k, :] for k in active], axis=1) / np.sqrt(r)

    ei, ej, w, wc3 = inst.arrays()
    ident = float(w.sum() + inst.offset)

    def one_trial(t):
        rng = rng_for(seed, DOMAIN_ROUNDING, t)
        R = rng.standard_normal((r, r * D))
        Y = R @ X.T  # (r, n)
        norms = np.linalg.norm(Y, axis=0)
        while (norms < 1e-300).any():
            R = rng.standard_normal((r, r * D))
            Y = R @ X.T
            norms = np.linalg.norm(Y, axis=0)
        bloch = np.zeros((inst.n, 3))
        bloch[:, active] = (Y / norms).T
        return float(product_energy_kernel(bloch, ei, ej, wc3, ident)), bloch

    energies, best_bloch = _run_trials(trials, seed, threads, one_trial)
    return RoundingOutcome(
        state=ProductState(bloch=best_bloch),
        energy=float(energies.max()),
        trials_run=trials,
        per_trial_energies=tuple(float(x) for x in energies),
        seed=seed,
    )


def gw_axis_round(
    inst: Instance,
    sol: MomentSolution,
    trials: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> RoundingOutcome:
    """Hyperplane rounding on the single most valuable axis."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if sol.n != inst.n:
        raise ValueError(f"solution has n={sol.n}, instance has n={inst.n}")
    ei, ej, w, wc3 = inst.arrays()
    D = 3 * inst.n

    # Axis score: what the objective's coupling part contributes on axis a.
    scores = np.empty(3)
    for a in range(3):
        dots = np.einsum("ed,ed->e", sol.vectors[ei, a, :], sol.vectors[ej, a, :])
        scores[a] = -float(wc3[:, a] @ dots)
    a_star = int(np.argmax(scores))  # lowest index wins ties

    ident = float(w.sum() + inst.offset)

    def one_trial(t):
        rng = rng_for(seed, DOMAIN_ROUNDING, t)
        g = rng.standard_normal(D)
        d = sol.vectors[:, a_star, :] @ g
        signs = np.where(d < 0.0, -1.0, 1.0)  # zero projections round up
        bloch = np.zeros((inst.n, 3))
        bloch[:, a_star] = signs
        return float(product_energy_kernel(bloch, ei, ej, wc3, ident)), bloch

    energies, best_bloch = _run_trials(trials, seed, threads, one_trial)
    return RoundingOutcome(
        state=ProductState(bloch=best_bloch),
        energy=float(energies.max()),
        trials_run=trials,
        per_trial_energies=tuple(float(x) for x in energies),
        seed=seed,
    )
