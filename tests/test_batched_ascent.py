"""The lock-step restart batch against plain one-restart loops.

The references below run one restart at a time with the stop rules of
best_product_state and solve_moment_sdp, so every restart of the batch can
be compared with its own independent run.
"""

import logging

import numpy as np
import pytest

from conftest import random_instance

from heisopt import (
    Edge,
    Instance,
    SolverConfig,
    best_product_state,
    check_feasibility,
    solve_moment_sdp,
)
from heisopt import _kernels
from heisopt._backend import DOMAIN_PRODUCT_SEARCH, DOMAIN_SOLVER, rng_for
from heisopt.moment_sdp import _embed_product, _random_triads


def _neighbours(inst, i):
    """(other endpoint, w * coeffs) for every edge at qubit i."""
    out = []
    for e in inst.edges:
        c = e.w * np.array([e.alpha, e.beta, e.gamma])
        if e.i == i:
            out.append((e.j, c))
        if e.j == i:
            out.append((e.i, c))
    return out


def _product_energy(inst, B):
    return sum(
        e.w * (1.0 - e.alpha * B[e.i, 0] * B[e.j, 0] - e.beta * B[e.i, 1] * B[e.j, 1]
               - e.gamma * B[e.i, 2] * B[e.j, 2])
        for e in inst.edges
    ) + inst.offset


def _relaxation_value(inst, V):
    return sum(
        e.w * (1.0 - e.alpha * V[e.i, 0] @ V[e.j, 0] - e.beta * V[e.i, 1] @ V[e.j, 1]
               - e.gamma * V[e.i, 2] @ V[e.j, 2])
        for e in inst.edges
    ) + inst.offset


def one_restart_ascent(inst, B, max_sweeps=10000, tol=1e-12):
    energy = _product_energy(inst, B)
    for sweeps in range(1, max_sweeps + 1):
        for i in range(inst.n):
            c = -sum((coef * B[j] for j, coef in _neighbours(inst, i)), np.zeros(3))
            if np.linalg.norm(c) > 0.0:
                B[i] = c / np.linalg.norm(c)
        new = _product_energy(inst, B)
        gain, energy = new - energy, new
        if gain < tol:
            break
    return energy, sweeps


def one_restart_relaxation(inst, V, max_sweeps=10000, tol=1e-10):
    obj = _relaxation_value(inst, V) - inst.offset
    for sweeps in range(1, max_sweeps + 1):
        for i in range(inst.n):
            C = -sum((V[j].T * coef for j, coef in _neighbours(inst, i)), np.zeros((3 * inst.n, 3)))
            if not C.any():
                continue
            Q, R = np.linalg.qr(C)
            U, _, Wt = np.linalg.svd(R)
            V[i] = (Q @ U @ Wt).T
        new = _relaxation_value(inst, V) - inst.offset
        rel, obj = (new - obj) / max(1.0, abs(new)), new
        if rel < tol:
            break
    return obj + inst.offset, sweeps


def product_starts(inst, restarts, seed):
    starts = []
    for k in range(restarts):
        rng = rng_for(seed, DOMAIN_PRODUCT_SEARCH, k)
        B = rng.standard_normal((inst.n, 3))
        starts.append(B / np.linalg.norm(B, axis=1)[:, None])
    return starts


def test_product_search_matches_one_restart_loop(rng):
    for _ in range(4):
        inst = random_instance(rng, n=int(rng.integers(3, 7)))
        restarts, seed = 6, int(rng.integers(100))
        ref = [one_restart_ascent(inst, B) for B in product_starts(inst, restarts, seed)]

        B = np.stack(product_starts(inst, restarts, seed))
        ei, ej, w, wc3 = inst.arrays()
        nptr, nother, fac = inst.incidence()
        energy, sweeps, converged = _kernels.ascent_sweeps(
            B, nptr, nother, fac, ei, ej, wc3, float(w.sum() + inst.offset), 10000, 1e-12
        )
        assert converged.all()
        for k, (ref_energy, ref_sweeps) in enumerate(ref):
            assert energy[k] == pytest.approx(ref_energy, rel=1e-9, abs=1e-9)
            # the stop sweep may move by a little where float order differs
            assert abs(sweeps[k] - ref_sweeps) <= 2
            assert _product_energy(inst, B[k]) == pytest.approx(energy[k], rel=1e-12, abs=1e-12)

        ps = best_product_state(inst, restarts=restarts, seed=seed)
        assert ps.energy == pytest.approx(max(e for e, _ in ref), rel=1e-9)
        assert ps.energy == energy[int(np.argmax(energy))]
        assert ps.sweeps == sweeps.sum()
        assert ps.capped == 0


def test_relaxation_matches_one_restart_loop(rng):
    for _ in range(3):
        inst = random_instance(rng, n=int(rng.integers(3, 6)))
        cfg = SolverConfig(restarts=3, seed=int(rng.integers(100)))
        warm = best_product_state(inst, seed=cfg.seed)
        starts = [_embed_product(warm.state.bloch)] + [
            _random_triads(inst.n, rng_for(cfg.seed, DOMAIN_SOLVER, k))
            for k in range(1, cfg.restarts)
        ]
        ref = [one_restart_relaxation(inst, V) for V in starts]

        d = solve_moment_sdp(inst, cfg).diagnostics
        assert d.capped == 0
        assert d.restart_values == pytest.approx([v for v, _ in ref], rel=1e-9)
        assert abs(d.total_sweeps - sum(s for _, s in ref)) <= 2 * cfg.restarts


def test_max_sweeps_caps_every_restart(caplog):
    inst = Instance(
        n=4,
        edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 0.7, 1, 0, 1), Edge(2, 3, 0.4, 1, 1, 0),
               Edge(0, 3, 0.9, 0, 1, 1)),
    )
    with caplog.at_level(logging.WARNING, logger="heisopt"):
        sol = solve_moment_sdp(inst, SolverConfig(restarts=4, max_sweeps=1))
    d = sol.diagnostics
    assert not d.converged
    assert d.capped == d.restarts == 4
    assert d.total_sweeps == 4
    assert check_feasibility(sol).passed
    assert any("moment relaxation: 4 of 4 restarts" in r.getMessage() for r in caplog.records)

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="heisopt"):
        ps = best_product_state(inst, restarts=5, max_sweeps=1)
    assert ps.capped == ps.restarts_used == 5
    assert ps.sweeps == 5
    assert any("product search: 5 of 5 restarts" in r.getMessage() for r in caplog.records)


def test_converged_runs_report_no_cap(caplog):
    inst = Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 1.0, 1, 1, 1)))
    with caplog.at_level(logging.WARNING, logger="heisopt"):
        sol = solve_moment_sdp(inst, SolverConfig(restarts=3))
    assert sol.diagnostics.capped == 0
    assert not caplog.records


@pytest.mark.parametrize(
    "edges",
    [
        (Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 0.5, 1, 0, 1)),  # qubit 3 has no edge
        # qubit 3's only edge has zero coefficients, so its coupling is zero
        (Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 0.5, 1, 0, 1), Edge(2, 3, 0.8, 0, 0, 0)),
    ],
    ids=["isolated-qubit", "zero-coefficient-edge"],
)
def test_skipped_qubits_stay_feasible(edges):
    inst = Instance(n=4, edges=edges)
    sol = solve_moment_sdp(inst, SolverConfig(restarts=4, seed=3))
    assert check_feasibility(sol).passed
    assert sol.diagnostics.converged
    # qubit 3 has no coupling, so its warm-start triad is never touched
    sol = solve_moment_sdp(inst, SolverConfig(restarts=1, seed=3))
    warm = _embed_product(best_product_state(inst, seed=3).state.bloch)
    assert np.array_equal(sol.vectors[3], warm[3])
    ps = best_product_state(inst, restarts=6, seed=3)
    assert np.allclose(np.linalg.norm(ps.state.bloch, axis=1), 1.0)
    assert _product_energy(inst, ps.state.bloch) == pytest.approx(ps.energy, abs=1e-12)
