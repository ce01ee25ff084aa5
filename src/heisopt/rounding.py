"""Randomized rounding of moment-relaxation solutions to product states.

Both schemes run one projection routine, _project: stack each qubit's Gram
vectors (width d) on r axes into a unit row x_i in R^{r*d}, hit them with
one shared Gaussian matrix R ~ N(0,1)^{r x r*d}, and normalize: qubit i's
Bloch vector is R x_i / ||R x_i|| spread over those axes.

  * bfv_round - family-uniform instances only, on the active axes.
  * gw_axis_round - any instance, on the single axis a* with the largest
    relaxation contribution (the lowest such axis, where scores agree to a
    relative 1e-12): at r = 1, R x_i / ||R x_i|| is exactly
    sign(g . v_{i,a*}), random-hyperplane rounding to a basis-aligned state.

Both run `trials` independent draws, each a pure function of
(seed, trial index): trial t draws from rng_for(seed, DOMAIN_ROUNDING, t).
They keep the best trial by energy (first index wins ties), and return
every trial's energy in one read-only float64 array.

The draws come from one reused generator, trial_streams(seed,
DOMAIN_ROUNDING), which is set to trial t's stream before each draw and
fills the trial's slot of the block in place: building a Philox per trial
cost more than the trial's projection and scoring together.
A trial with a projection below 1e-300 in norm (for the axis scheme, a
zero one) redraws: it sets the generator to its own stream again and
continues after its first draw. Both rounders refuse an infeasible point
(check_feasibility) before drawing anything.

Trials run in blocks. A block stacks its trials' draws, projects them with
one matmul (R @ X^T) and normalizes in place. A rounded state is zero off
the r drawn axes, so the product-energy kernel scores the block's (b, n, r)
components against wc3[:, axes], r*m edge terms per trial, summed in the
same order wherever the trial sits; only the best trial is spread into an
(n, 3) state. A block holds as many trials as fit _BLOCK_BYTES of both its
draws, (b, r, r*d) float64, and 3m edge terms per trial (budgeting r*m
made axis blocks larger, raising peak memory with no faster pass), so its
size depends on the graph only. Rounding runs in one thread: the work is
numpy calls that hold the interpreter lock, and a thread pool over blocks
measured slower.

The Caratheodory splitter rewrites arbitrary coefficients in
[-1,1] as convex mixtures of the 4 nested corner patterns; applied
edgewise it turns any instance into a corner-coefficient multigraph with
the same Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._backend import DOMAIN_ROUNDING, trial_streams
from ._kernels import product_energy_kernel
from .instance import Edge, FamilyTag, Instance, is_family_uniform
from .moment_sdp import MomentSolution, axis_dots, check_feasibility
from .pauli import ProductState

__all__ = [
    "RoundingOutcome",
    "CornerDecomposition",
    "caratheodory_split",
    "split_instance",
    "bfv_round",
    "gw_axis_round",
]

# Byte budget of one block's Gaussian draws, (b, r, r*d) float64, and of its
# edge terms, (b, 3m) float64.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class RoundingOutcome:
    """Best of `trials_run` trials; trial_energies is read-only float64."""

    state: ProductState
    energy: float
    trials_run: int
    trial_energies: np.ndarray
    seed: int

    @property
    def per_trial_energies(self) -> tuple[float, ...]:
        return tuple(self.trial_energies.tolist())


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


def projection_family(inst: Instance) -> FamilyTag:
    """The coefficient pattern bfv_round projects onto; ValueError if none."""
    tag = is_family_uniform(inst)
    if tag is None:
        raise ValueError(
            "projection rounding needs a family-uniform instance: every edge "
            "must carry the same {0,1} coefficient pattern, at least one axis on"
        )
    return tag


def _block_trials(draw: int, m: int) -> int:
    """Trials per block: as many draws of `draw` floats, and 3m edge terms, as fit the budget."""
    return max(1, _BLOCK_BYTES // (8 * max(draw, 3 * m)))


def _project(inst, sol, trials, seed, axes):
    """Round `trials` projections onto `axes` (a list) block by block; keep the best.

    Refuses a trial count below one, and a point of the wrong size or an
    infeasible one: a zero Gram vector, say, projects to zero in every
    trial, so the trial would redraw forever.

    Trial t draws R_t ~ N(0,1)^{r x r*d}, r = len(axes), from rng_for(seed,
    DOMAIN_ROUNDING, t) and projects every qubit's row of X (n, r*d):
    Y_t = R_t X^T. One matmul covers a whole block.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if sol.n != inst.n:
        raise ValueError(f"solution has n={sol.n}, instance has n={inst.n}")
    rep = check_feasibility(sol)
    if not rep.passed:
        raise ValueError(f"solution is not feasible: {rep}")
    n, r = inst.n, len(axes)
    # x_i: the Gram vectors on `axes` concatenated in axis order, norm sqrt(r) -> 1
    X = sol.vectors[:, axes].reshape(n, -1) / np.sqrt(r)
    ei, ej, _, wc3 = inst.arrays()
    wc = wc3[:, axes]
    ident = inst.identity_coeff
    shape = (r, X.shape[1])
    size = _block_trials(r * X.shape[1], inst.m)
    at = trial_streams(seed, DOMAIN_ROUNDING)
    energies = np.empty(trials)
    best_energy, best = -np.inf, None
    for t0 in range(0, trials, size):
        b = min(size, trials - t0)
        G = np.empty((b,) + shape)
        for k in range(b):
            at(t0 + k).standard_normal(shape, out=G[k])
        Y = (G.reshape(b * r, -1) @ X.T).reshape(b, r, n)
        del G  # before the energy temporaries, to keep the peak at one budget
        norms = np.sqrt(np.einsum("brn,brn->bn", Y, Y))
        # a qubit with a (numerically) zero projection: that trial redraws,
        # continuing its own stream after the draw the block used
        for k in np.flatnonzero((norms < 1e-300).any(axis=1)):
            rng = at(t0 + int(k))
            rng.standard_normal(shape)
            while (norms[k] < 1e-300).any():
                Y[k] = rng.standard_normal(shape) @ X.T
                norms[k] = np.linalg.norm(Y[k], axis=0)
        Y /= norms[:, None, :]
        e = energies[t0 : t0 + b]
        e[:] = product_energy_kernel(Y.transpose(0, 2, 1), ei, ej, wc, ident)
        k = int(np.argmax(e))
        if e[k] > best_energy:  # strict: an earlier block keeps a tie
            best_energy, best = e[k], Y[k].T.copy()
    bloch = np.zeros((n, 3))
    bloch[:, axes] = best
    energies.flags.writeable = False
    return RoundingOutcome(
        state=ProductState(bloch=bloch),
        energy=float(energies.max()),
        trials_run=trials,
        trial_energies=energies,
        seed=seed,
    )


def bfv_round(
    inst: Instance,
    sol: MomentSolution,
    trials: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> RoundingOutcome:
    """Gaussian projection rounding onto the active axes.

    `threads` is accepted and ignored.
    """
    return _project(inst, sol, trials, seed, list(projection_family(inst).active_axes))


def gw_axis_round(
    inst: Instance,
    sol: MomentSolution,
    trials: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> RoundingOutcome:
    """Hyperplane rounding on the single most valuable axis.

    `threads` is accepted and ignored.
    """
    # Axis score: what the objective's coupling part contributes on axis a.
    wc3, dots = inst.arrays()[3], axis_dots(inst, sol)
    scores = np.array([-float(wc3[:, a] @ dots[:, a]) for a in range(3)])
    # Axes that share a relaxation block score the same in exact arithmetic
    # but not always in floating point, so scores within a relative 1e-12 of
    # the best tie and the lowest index wins. A non-finite point ties no
    # axis, so argmax falls to axis 0 and _project refuses the point.
    best = scores.max()
    a_star = int(np.argmax(scores >= best - 1e-12 * abs(best)))
    return _project(inst, sol, trials, seed, [a_star])
