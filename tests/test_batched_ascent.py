"""The lock-step restart batch against plain one-restart loops.

The references below run one restart at a time with the stop rules of
best_product_state and solve_moment_sdp, so every restart of the batch can
be compared with its own independent run. They update one qubit at a time,
in the kernels' colour-class order: a class shares no edge, so updating its
qubits one by one reaches the same point as the kernels' batched update.
"""

import logging

import numpy as np
import pytest

from conftest import random_instance

from heisopt import (
    Edge,
    Instance,
    MomentSolution,
    SolverConfig,
    best_product_state,
    check_feasibility,
    solve_moment_sdp,
)
from heisopt import _kernels
from heisopt._backend import DOMAIN_PRODUCT_SEARCH, DOMAIN_SOLVER, rng_for
from heisopt.moment_sdp import _random_triads


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


def _class_order(inst):
    """The qubits with an edge, class by class as the kernels visit them."""
    _, classes = _kernels.colour_classes(*inst.incidence())
    return [int(i) for I, _ in classes for i in I]


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
    order = _class_order(inst)
    for sweeps in range(1, max_sweeps + 1):
        for i in order:
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
    order = _class_order(inst)
    for sweeps in range(1, max_sweeps + 1):
        for i in order:
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
        A, classes = _kernels.colour_classes(*inst.incidence())
        wsum = float(inst.arrays()[2].sum() + inst.offset)
        energy, sweeps, converged = _kernels.ascent_sweeps(B, A, classes, wsum, 10000, 1e-12)
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
        starts = [
            _random_triads(inst.n, rng_for(cfg.seed, DOMAIN_SOLVER, k)) for k in range(cfg.restarts)
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
    # qubit 3 has no coupling, so restart 0's random triad is never touched
    sol = solve_moment_sdp(inst, SolverConfig(restarts=1, seed=3))
    start = _random_triads(4, rng_for(3, DOMAIN_SOLVER, 0))
    assert np.array_equal(sol.vectors[3], start[3])
    ps = best_product_state(inst, restarts=6, seed=3)
    assert np.allclose(np.linalg.norm(ps.state.bloch, axis=1), 1.0)
    assert _product_energy(inst, ps.state.bloch) == pytest.approx(ps.energy, abs=1e-12)


def test_colour_classes_partition_edge_qubits_into_independent_sets(rng):
    for _ in range(6):
        inst = random_instance(rng, n=int(rng.integers(2, 12)), p=float(rng.uniform(0.1, 0.8)))
        A, classes = _kernels.colour_classes(*inst.incidence())
        edges = {(e.i, e.j) for e in inst.edges}
        for I, AI in classes:
            members = set(I.tolist())
            assert not any(i in members and j in members for i, j in edges)
            assert np.array_equal(I, np.sort(I))
            assert np.array_equal(AI, A[:, I])
        coloured = np.concatenate([I for I, _ in classes])
        assert len(coloured) == len(set(coloured.tolist()))
        assert set(coloured.tolist()) == {q for e in edges for q in e}
        # the same classes, and the same coupling, on every call
        A2, again = _kernels.colour_classes(*inst.incidence())
        assert np.array_equal(A, A2)
        assert len(again) == len(classes)
        assert all(np.array_equal(I, J) for (I, _), (J, _) in zip(classes, again))


def test_coupling_sums_parallel_edges():
    inst = Instance(
        n=3,
        edges=(Edge(0, 1, 1.0, 1, 0.5, -1), Edge(1, 2, 0.3, 0, 1, 1), Edge(0, 1, 0.5, -0.2, 1, 0.4)),
    )
    A, classes = _kernels.colour_classes(*inst.incidence())
    expect = np.zeros((3, 3, 3))
    for e in inst.edges:
        c = -e.w * np.array([e.alpha, e.beta, e.gamma])
        expect[:, e.i, e.j] += c
        expect[:, e.j, e.i] += c
    assert np.array_equal(A, expect)
    assert [I.tolist() for I, _ in classes] == [[0, 2], [1]]


# Qubit 0 sits between qubits 1 and 2 on equal edges, so its coupling is zero
# wherever v_2 = -v_1; qubit 3 hangs off qubit 1 and shares qubit 0's class.
_STAR = Instance(
    n=4, edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(0, 2, 1.0, 1, 1, 1), Edge(1, 3, 0.6, 1, 0.5, 1))
)


def test_zero_coupling_keeps_triad_in_that_restart_only(rng):
    A, classes = _kernels.colour_classes(*_STAR.incidence())
    assert [I.tolist() for I, _ in classes] == [[0, 3], [1, 2]]
    wsum = float(_STAR.arrays()[2].sum())
    V = np.stack([_random_triads(4, rng_for(5, DOMAIN_SOLVER, k)) for k in range(3)])
    V[1, 2] = -V[1, 1]
    start = V.copy()
    _kernels.sdp_sweeps(V, A, classes, wsum, 1, 1e-10)
    assert np.array_equal(V[1, 0], start[1, 0])
    for r, i in ((0, 0), (2, 0), (1, 3)):
        assert not np.array_equal(V[r, i], start[r, i])
    for r in range(3):
        assert check_feasibility(MomentSolution(vectors=V[r], value=0.0)).passed

    B = np.stack(product_starts(_STAR, 3, 5))
    B[1, 2] = -B[1, 1]
    start = B.copy()
    _kernels.ascent_sweeps(B, A, classes, wsum, 1, 1e-12)
    assert np.array_equal(B[1, 0], start[1, 0])
    for r, i in ((0, 0), (2, 0), (1, 3)):
        assert not np.array_equal(B[r, i], start[r, i])
    assert np.allclose(np.linalg.norm(B, axis=2), 1.0)
