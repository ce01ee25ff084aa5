"""The colour-batched ascents against plain per-qubit loops.

The product-search references run one restart at a time: on the kernels'
schedule for the batch's sweep count, to compare every restart with its own
independent run, and with the plain step to its own stop, which the batch,
stopping all restarts together, should match. The relaxation reference runs
a fixed number of sweeps on the kernels' schedule, one axis block at a
time. All update one qubit at a time, in the kernels' colour-class order: a
class shares no edge, so updating its qubits one by one reaches the same
point as the kernels' batched update.
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
from heisopt import _kernels, moment_sdp, oracle
from heisopt._backend import DOMAIN_PRODUCT_SEARCH, DOMAIN_SOLVER, rng_for, unit_rows
from heisopt.moment_sdp import _axis_blocks


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
    _, classes = inst.incidence()
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


def schedule(sweeps):
    """theta of each of `sweeps` sweeps: the plain step (0) on every BOUND_EVERY-th and the last."""
    return [0.0 if s % _kernels.BOUND_EVERY == 0 or s == sweeps else _kernels.OVER_RELAX
            for s in range(1, sweeps + 1)]


def over_relaxed(c, u, theta):
    """normalise((1 + theta) c / |c| - theta u)."""
    w = (1.0 + theta) * c / np.linalg.norm(c) - theta * u
    return w / np.linalg.norm(w)


def one_restart_ascent(inst, B, max_sweeps=10000, tol=1e-12):
    """(energy, sweeps, last gain) of the plain step; stops once a sweep gains less than tol."""
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
    return energy, sweeps, gain


def scheduled_ascent(inst, B, sweeps):
    """(energy, gain since the previous plain sweep) after `sweeps` sweeps on the kernels' schedule."""
    order = _class_order(inst)
    energy = checked = -np.inf
    for theta in schedule(sweeps):
        for i in order:
            c = -sum((coef * B[j] for j, coef in _neighbours(inst, i)), np.zeros(3))
            if c.any():
                B[i] = over_relaxed(c, B[i], theta)
        if theta == 0.0:
            checked, energy = energy, _product_energy(inst, B)
    return energy, energy - checked


def relaxation_sweeps(inst, k, U, sweeps):
    """Rows U (n, p) of axis k after `sweeps` per-qubit sweeps on that axis, on the kernels' schedule."""
    order = _class_order(inst)
    for theta in schedule(sweeps):
        for i in order:
            c = -sum((U[j] * coef[k] for j, coef in _neighbours(inst, i)), np.zeros(U.shape[1]))
            if c.any():
                U[i] = over_relaxed(c, U[i], theta)
    return U


def block_vectors(n, block, U):
    """Gram vectors (n, 3, 3n): v_{i,k} = e_k (x) u_{k,i}, or e_k (x) e_0 on a zero axis."""
    V = np.zeros((n, 3, 3 * n))
    for k, b in enumerate(block):
        if b < 0:
            V[:, k, k * n] = 1.0
        else:
            V[:, k, k * n : k * n + U.shape[2]] = U[b]
    return V


def kernel_args(inst):
    """(keys, block, A, classes, mult) as solve_moment_sdp builds them."""
    keys, block = _axis_blocks(inst.arrays()[3])
    A, classes = inst.incidence(keys)
    mult = np.bincount([b for b in block if b >= 0], minlength=len(keys)).astype(float)
    return keys, block, A, classes, mult


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
        own_stop = [one_restart_ascent(inst, B) for B in product_starts(inst, restarts, seed)]

        # restart k is column k of W (3, n, R); the batch stops as the search does
        W = np.stack(product_starts(inst, restarts, seed), axis=2).transpose(1, 0, 2).copy()
        A, classes = inst.incidence()
        wsum = inst.identity_coeff
        energy = np.full(restarts, -np.inf)
        for sweeps in _kernels.ascend(W, classes, 0, 10000):
            new = wsum + 0.5 * np.einsum("knr,knr->r", W, A @ W)
            converged = new - energy < 1e-12
            energy = new
            if converged.all():
                break
        assert converged.all()
        for k, B in enumerate(product_starts(inst, restarts, seed)):
            # restart k run alone for the batch's sweep count, on its schedule
            ref_energy, last_gain = scheduled_ascent(inst, B, sweeps)
            assert last_gain < 1e-12
            assert energy[k] == pytest.approx(ref_energy, rel=1e-9, abs=1e-9)
            # sweeping on past its own stop cannot lower a restart's energy
            assert energy[k] >= own_stop[k][0] - 1e-12
            assert _product_energy(inst, W[:, :, k].T) == pytest.approx(energy[k], rel=1e-12, abs=1e-12)

        ps = best_product_state(inst, restarts=restarts, seed=seed)
        assert ps.energy == pytest.approx(max(e for e, _, _ in own_stop), rel=1e-9)
        assert ps.energy == energy.max()
        assert ps.sweeps == restarts * sweeps
        assert ps.capped == 0


def test_product_search_starts_match_per_restart_draws_bitwise(rng, monkeypatch):
    # the search repositions one generator per restart; each start must be
    # the unit rows of a generator built anew by rng_for for that restart
    starts = []

    def capture(W, *args, _ascend=_kernels.ascend):
        starts.append(W.copy())
        return _ascend(W, *args)

    monkeypatch.setattr(_kernels, "ascend", capture)
    for n, restarts, seed in ((3, 1, 0), (9, 7, 3), (40, 50, 11)):
        inst = random_instance(rng, n=n)
        starts.clear()
        best_product_state(inst, restarts=restarts, seed=seed)
        expect = np.stack(product_starts(inst, restarts, seed), axis=2).transpose(1, 0, 2)
        assert np.array_equal(starts[0], expect)


def test_product_search_energy_never_falls_between_checks(rng, monkeypatch):
    # every restart's energy, read from its Bloch vectors at the start and at
    # each check of the search's own run
    states = []

    def record(W, *args, _ascend=_kernels.ascend):
        states.append(W.copy())
        for sweeps in _ascend(W, *args):
            states.append(W.copy())
            yield sweeps

    monkeypatch.setattr(_kernels, "ascend", record)
    for style in ("arbitrary", "family", "corner", "zz"):
        for _ in range(3):
            inst = random_instance(rng, n=int(rng.integers(3, 10)), coeffs=style)
            states.clear()
            best_product_state(inst, restarts=5, seed=int(rng.integers(100)))
            E = np.array([[_product_energy(inst, W[:, :, r].T) for r in range(5)] for W in states])
            assert len(E) >= 3
            assert (E[1:] >= E[:-1] - 1e-12 * (1.0 + np.abs(E[:-1]))).all()


def test_product_search_matches_plain_loop_on_criterion_4_families(rng):
    # the shared schedule ends where the plain step, run to its own stop per
    # restart, ends: the best energies agree within 1e-9
    for k in range(12):
        style = ("family", "corner", "arbitrary")[k % 3]
        inst = random_instance(rng, n=int(rng.integers(2, 11)), coeffs=style)
        ref = max(one_restart_ascent(inst, B)[0] for B in product_starts(inst, 4, k))
        assert abs(best_product_state(inst, restarts=4, seed=k).energy - ref) <= 1e-9, k


def test_zz_only_search_stops_at_its_second_check(rng):
    # the plain sweep before each check puts every ZZ-only Bloch vector on
    # +-z, where these instances have settled by the first check, so the
    # second sees no gain; over-relaxed checks keep the vectors moving longer
    for _ in range(4):
        inst = random_instance(rng, n=int(rng.integers(4, 12)), coeffs="zz")
        ps = best_product_state(inst, restarts=5, seed=int(rng.integers(100)))
        assert ps.sweeps == 5 * 2 * _kernels.BOUND_EVERY
        assert ps.capped == 0


def test_relaxation_matches_one_restart_loop(rng):
    # the driver sweeps to max_sweeps, like the reference, with no stop rule;
    # the value is read at each plain sweep, as the solver reads it
    for style in ("arbitrary", "family", "corner"):
        inst = random_instance(rng, n=int(rng.integers(3, 6)), coeffs=style)
        keys, block, A, classes, mult = kernel_args(inst)
        U = unit_rows(rng_for(int(rng.integers(100)), DOMAIN_SOLVER, 0), (len(keys), inst.n, 3))
        ref = np.array([relaxation_sweeps(inst, k, U[b].copy(), 25) for b, k in enumerate(keys)])

        wsum = inst.identity_coeff
        checks = [
            (sweeps, *_kernels.rank_bound(U, A, mult, wsum)) for sweeps in _kernels.ascend(U, classes, 2, 25)
        ]
        sweeps, value, bound = checks[-1]
        assert sweeps == 25
        assert all(b[1] >= a[1] - 1e-8 * (1.0 + abs(a[1])) for a, b in zip(checks, checks[1:]))
        assert np.allclose(U, ref, atol=1e-6)
        assert value == pytest.approx(_relaxation_value(inst, block_vectors(inst.n, block, ref)), rel=1e-9)
        assert bound >= value


def test_max_sweeps_caps_every_restart(caplog, monkeypatch):
    # the relaxation's one ascent, then each of the product search's restarts
    inst = Instance(
        n=4,
        edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 0.7, 1, 0, 1), Edge(2, 3, 0.4, 1, 1, 0),
               Edge(0, 3, 0.9, 0, 1, 1)),
    )
    monkeypatch.setattr(moment_sdp, "MAX_SWEEPS", 1)
    with caplog.at_level(logging.WARNING, logger="heisopt"):
        sol = solve_moment_sdp(inst)
    d = sol.diagnostics
    assert not d.converged
    assert d.total_sweeps == 1
    assert d.upper_bound > sol.value
    assert check_feasibility(sol).passed
    assert any("moment relaxation: stopped at max_sweeps=1; relative gap" in r.getMessage() for r in caplog.records)

    caplog.clear()
    monkeypatch.setattr(oracle, "_MAX_SWEEPS", 1)
    with caplog.at_level(logging.WARNING, logger="heisopt"):
        ps = best_product_state(inst, restarts=5)
    assert ps.capped == ps.restarts_used == 5
    assert ps.sweeps == 5
    assert any("product search: 5 of 5 restarts" in r.getMessage() for r in caplog.records)


def test_converged_runs_report_no_cap(caplog):
    inst = Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 1.0, 1, 1, 1)))
    with caplog.at_level(logging.WARNING, logger="heisopt"):
        sol = solve_moment_sdp(inst)
    assert sol.diagnostics.converged
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
    sol = solve_moment_sdp(inst, SolverConfig(seed=3))
    assert check_feasibility(sol).passed
    assert sol.diagnostics.converged
    # qubit 3 has no coupling, so its random start rows are never touched
    keys, block, *_ = kernel_args(inst)
    assert block == [0, 1, 0]  # X and Z share a block
    start = unit_rows(rng_for(3, DOMAIN_SOLVER, 0), (len(keys), 4, sol.diagnostics.rank))
    assert np.array_equal(sol.vectors[3], block_vectors(4, block, start)[3])
    ps = best_product_state(inst, restarts=6, seed=3)
    assert np.allclose(np.linalg.norm(ps.state.bloch, axis=1), 1.0)
    assert _product_energy(inst, ps.state.bloch) == pytest.approx(ps.energy, abs=1e-12)


def test_colour_classes_partition_edge_qubits_into_independent_sets(rng):
    for _ in range(6):
        inst = random_instance(rng, n=int(rng.integers(2, 12)), p=float(rng.uniform(0.1, 0.8)))
        A, classes = inst.incidence()
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
        A2, again = inst.incidence()
        assert np.array_equal(A, A2)
        assert len(again) == len(classes)
        assert all(np.array_equal(I, J) for (I, _), (J, _) in zip(classes, again))


def test_coupling_sums_parallel_edges():
    inst = Instance(
        n=3,
        edges=(Edge(0, 1, 1.0, 1, 0.5, -1), Edge(1, 2, 0.3, 0, 1, 1), Edge(0, 1, 0.5, -0.2, 1, 0.4)),
    )
    A, classes = inst.incidence()
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
    A, classes = _STAR.incidence()
    assert [I.tolist() for I, _ in classes] == [[0, 3], [1, 2]]
    keys, block, AK, rows, mult = kernel_args(_STAR)
    assert block == [0, 1, 0]
    for zero in (False, True):
        U = unit_rows(rng_for(5, DOMAIN_SOLVER, 0), (2, 4, 3))
        if zero:
            U[1, 2] = -U[1, 1]  # block 1 (Y): qubit 0's coupling is zero
        start = U.copy()
        assert list(_kernels.ascend(U, rows, 2, 1)) == [1]  # one plain sweep
        # qubit 0 moves unless its coupling in that block is zero; block 0
        # and qubit 3, in its class, move
        assert np.array_equal(U[1, 0], start[1, 0]) == zero
        assert not np.array_equal(U[0, 0], start[0, 0])
        assert not np.array_equal(U[:, 3], start[:, 3])
        assert np.allclose(np.linalg.norm(U, axis=2), 1.0)

    W = np.stack(product_starts(_STAR, 3, 5), axis=2).transpose(1, 0, 2).copy()
    W[:, 2, 1] = -W[:, 1, 1]  # restart 1: qubit 0's field is zero
    start = W.copy()
    assert list(_kernels.ascend(W, classes, 0, 1)) == [1]
    assert np.array_equal(W[:, 0, 1], start[:, 0, 1])
    for r, i in ((0, 0), (2, 0), (1, 3)):
        assert not np.array_equal(W[:, i, r], start[:, i, r])
    assert np.allclose(np.linalg.norm(W, axis=0), 1.0)



def test_over_relaxed_class_step_never_lowers_the_objective(rng):
    # one class step at the shipped theta against 1/2 <A_k, U_k U_k^T>, block
    # by block, from random rows, and with one qubit's coupling exactly zero
    theta = _kernels.OVER_RELAX
    assert 0.0 <= theta < 1.0

    def objective(A, U):
        return 0.5 * np.einsum("kij,kip,kjp->k", A, U, U)

    cases = []
    for style in ("arbitrary", "family", "corner"):
        for _ in range(3):
            inst = random_instance(rng, n=int(rng.integers(3, 10)), coeffs=style)
            keys, _, A, classes, _ = kernel_args(inst)
            cases.append((A, classes, unit_rows(rng, (len(keys), inst.n, 4))))
    # _STAR with block 1's qubit 0 between opposite rows: its coupling is zero
    keys, _, A, classes, _ = kernel_args(_STAR)
    U = unit_rows(rng, (len(keys), 4, 3))
    U[1, 2] = -U[1, 1]
    cases.append((A, classes, U))
    zeros = 0
    for A, classes, U in cases:
        for _ in range(4):
            for I, AI in classes:
                c = AI @ U
                zero = ~c.any(axis=2)
                zeros += zero.sum()
                start = U[:, I].copy()
                before = objective(A, U)
                _kernels.set_normalised(U, I, c, 2, theta)
                after = objective(A, U)
                assert (after >= before - 1e-12 * (1.0 + np.abs(before))).all()
                assert np.array_equal(U[:, I][zero], start[zero])
                assert np.allclose(np.linalg.norm(U[:, I], axis=2), 1.0)
    assert zeros


@pytest.mark.parametrize(
    "shape, axis, zero",
    [
        ((3, 4, 6), 0, (slice(None), 1, 2)),  # the search's fields (3, |I|, R)
        ((2, 4, 5), 2, (1, 2, slice(None))),  # the relaxation's rows (K, |I|, p)
    ],
)
def test_set_normalised_matches_plain_normalisation_bitwise(rng, shape, axis, zero):
    I = np.array([1, 4, 6, 8])
    W = rng.standard_normal((shape[0], 9, shape[2]))
    c = rng.standard_normal(shape)
    want = W.copy()
    want[:, I] = c / np.sqrt((c * c).sum(axis, keepdims=True))
    _kernels.set_normalised(W, I, c.copy(), axis)
    assert np.array_equal(W, want)
    # an exactly zero field keeps W's vector there, and only there
    c = rng.standard_normal(shape)
    c[zero] = 0.0
    nc = np.sqrt((c * c).sum(axis, keepdims=True))
    rows = c / np.where(nc > 0.0, nc, 1.0)
    rows[zero] = W[:, I][zero]
    want = W.copy()
    want[:, I] = rows
    _kernels.set_normalised(W, I, c, axis)
    assert np.array_equal(W, want)
