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
    exact_max_eigenvalue,
    parse_moment_solution,
    sdp_objective,
    serialize_moment_solution,
    solve_moment_sdp,
)
from heisopt import _kernels, generate, moment_sdp
from heisopt.moment_sdp import GAP_TOLERANCE


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)


def test_solver_refuses_blocks_too_large_for_memory(monkeypatch):
    from heisopt import _backend

    # one guard, in incidence(keys): the K distinct blocks' couplings and
    # their class slices, 2Kn^2 doubles, plus the (n, 3, 3n) solution, 9n^2
    # doubles, on an XYZ, an XXZ and a mixed ring
    n = 8
    ring = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    for coeffs, K in (((1, 1, 1), 1), ((1, 1, 0.5), 2), ((1, 0.5, 0.25), 3)):
        inst = Instance(n=n, edges=tuple(Edge(i, j, 1.0, *coeffs) for i, j in ring))
        need = 16 * K * n**2 + 72 * n**2
        monkeypatch.setattr(_backend, "available_bytes", lambda: need - 1)
        with pytest.raises(MemoryError) as err:
            solve_moment_sdp(inst)
        assert f"needs {need} bytes but only {need - 1} bytes are available" in str(err.value)
        monkeypatch.setattr(_backend, "available_bytes", lambda: need)
        assert check_feasibility(solve_moment_sdp(inst)).passed


@pytest.mark.parametrize(
    "edges",
    [
        (Edge(0, 1, 0.0, 1, 1, 1),),  # zero weight
        (Edge(0, 1, 1.0, 0, 0, 0),),  # identity only
        (Edge(0, 1, 1.0, 1, 1, 1), Edge(0, 1, 1.0, -1, -1, -1)),  # a cancelling pair
    ],
    ids=["zero-weight", "identity-only", "cancelling-pair"],
)
def test_solver_handles_instances_with_no_coupling(edges):
    # no block, or one whose coupling is zero: H is a multiple of I
    inst = Instance(n=3, edges=edges, offset=0.25)
    sol = solve_moment_sdp(inst)
    expect = inst.identity_coeff
    assert sol.value == sol.diagnostics.upper_bound == expect
    assert sol.diagnostics.converged
    assert check_feasibility(sol).passed
    assert exact_max_eigenvalue(inst).lambda_max == pytest.approx(expect, rel=1e-12)


def test_single_edge_f111_reaches_four():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 1),))
    sol = solve_moment_sdp(inst, SolverConfig(restarts=3))
    assert sol.value == pytest.approx(4.0, abs=1e-8)
    assert check_feasibility(sol).passed


def test_solution_feasible_always(rng):
    for _ in range(20):
        inst = random_instance(rng)
        sol = solve_moment_sdp(inst, SolverConfig(restarts=2))
        rep = check_feasibility(sol)
        assert rep.passed, (rep.max_norm_deviation, rep.max_orthogonality_deviation)


def test_feasibility_report_matches_pairwise_reference(rng):
    # perturbed triads: the Gram-matrix report against one pass per norm and pair
    for scale in (1e-3, 1e-10):
        V = solve_moment_sdp(random_instance(rng, n=6)).vectors.copy()
        V += scale * rng.standard_normal(V.shape)
        rep = check_feasibility(MomentSolution(vectors=V, value=0.0))
        norm_dev = np.abs(np.linalg.norm(V, axis=2) - 1.0).max()
        orth_dev = max(np.abs(np.einsum("id,id->i", V[:, k], V[:, l])).max() for k, l in ((0, 1), (0, 2), (1, 2)))
        assert rep.max_norm_deviation == pytest.approx(norm_dev, rel=0, abs=1e-14)
        assert rep.max_orthogonality_deviation == pytest.approx(orth_dev, rel=0, abs=1e-14)
        assert rep.passed == (scale < 1e-8)


def test_value_matches_objective_of_vectors(rng):
    for _ in range(10):
        inst = random_instance(rng)
        sol = solve_moment_sdp(inst, SolverConfig(restarts=2))
        assert sdp_objective(inst, sol) == pytest.approx(sol.value, abs=1e-9)


def test_sdp_dominates_lambda_max(rng):
    for _ in range(40):
        inst = random_instance(rng, n=int(rng.integers(2, 9)))
        sol = solve_moment_sdp(inst)
        lam = exact_max_eigenvalue(inst).lambda_max
        assert sol.value >= lam - 1e-5 * (1.0 + abs(lam))


def test_sdp_dominates_best_product(rng):
    # the value does in practice; the bound does by construction
    for _ in range(15):
        inst = random_instance(rng)
        sol = solve_moment_sdp(inst, SolverConfig(restarts=1))
        ps = best_product_state(inst)
        assert sol.value >= ps.energy - 1e-9
        assert sol.diagnostics.upper_bound >= ps.energy - 1e-9


def test_upper_bound_dominates_lambda_max_when_capped(rng, monkeypatch):
    # one sweep leaves the ascent far from the optimum; the bound still holds
    monkeypatch.setattr(moment_sdp, "MAX_SWEEPS", 1)
    for k in range(60):
        style = ("family", "corner", "arbitrary")[k % 3]
        inst = random_instance(rng, n=int(rng.integers(2, 9)), coeffs=style)
        sol = solve_moment_sdp(inst, SolverConfig(restarts=1, seed=k))
        lam = exact_max_eigenvalue(inst).lambda_max
        assert sol.diagnostics.upper_bound >= lam - 1e-12 * (1.0 + abs(lam))
        assert sol.diagnostics.upper_bound >= sol.value - 1e-12 * (1.0 + abs(sol.value))


def test_diagnostics_populated():
    inst = Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 1.0, 1, 1, 1)))
    sol = solve_moment_sdp(inst, SolverConfig(restarts=4, seed=11))
    d = sol.diagnostics
    # attempt 0 closes its gap, so no fallback attempt runs
    assert d.restarts == 1
    assert d.converged
    assert d.capped == 0
    assert d.total_sweeps >= 1
    assert 0.0 <= d.upper_bound - sol.value <= GAP_TOLERANCE * max(1.0, abs(sol.value))


def test_deterministic_given_seed():
    inst = Instance(n=4, edges=(Edge(0, 1, 1.0, 1, 0, 1), Edge(2, 3, 0.5, 1, 0, 1)))
    s1 = solve_moment_sdp(inst, SolverConfig(restarts=3, seed=5))
    s2 = solve_moment_sdp(inst, SolverConfig(restarts=3, seed=5))
    assert s1.value == s2.value
    assert np.array_equal(s1.vectors, s2.vectors)


def test_offset_shifts_value():
    base = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 1),))
    shifted = Instance(n=2, edges=base.edges, offset=3.0)
    v0 = solve_moment_sdp(base, SolverConfig(restarts=2)).value
    v1 = solve_moment_sdp(shifted, SolverConfig(restarts=2)).value
    assert v1 == pytest.approx(v0 + 3.0, abs=1e-10)


def test_serialization_round_trip(rng):
    inst = random_instance(rng, n=4)
    sol = solve_moment_sdp(inst, SolverConfig(restarts=2))
    text = serialize_moment_solution(sol)
    back = parse_moment_solution(text)
    assert back.value == sol.value
    assert np.array_equal(back.vectors, sol.vectors)
    header = text.splitlines()[0].split()
    assert int(header[0]) == inst.n
    rows = text.strip().splitlines()[1:]
    assert len(rows) == 3 * inst.n
    assert rows[0].split()[:2] == ["0", "0"]  # axis index is 0-based


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_moment_solution("")
    with pytest.raises(ValueError):
        parse_moment_solution("1 2.0\n0 0 1 0 0\n")  # wrong arity row
    with pytest.raises(ValueError):
        parse_moment_solution("1 2.0\n0 5 1 0 0\n")  # axis out of range


def _edge_solution_rows():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 0),))
    text = serialize_moment_solution(solve_moment_sdp(inst, SolverConfig(restarts=1)))
    header, *rows = text.splitlines()
    return header, rows


def test_parse_rejects_corrupt_rows():
    header, rows = _edge_solution_rows()
    parse_moment_solution("\n".join([header, *rows]))  # the intact file parses

    # qubit 1's three rows all claim (1, 2): (1, 0) and (1, 1) would stay zero
    dup = rows[:3] + [rows[5]] * 3
    with pytest.raises(ValueError, match="twice"):
        parse_moment_solution("\n".join([header, *dup]))

    for bad in ("nan", "inf", "-inf"):
        fields = rows[4].split()
        fields[3] = bad
        corrupt = rows[:4] + [" ".join(fields)] + rows[5:]
        with pytest.raises(ValueError, match="non-finite"):
            parse_moment_solution("\n".join([header, *corrupt]))
    with pytest.raises(ValueError, match="non-finite"):
        parse_moment_solution("\n".join(["2 nan", *rows]))

    # a stretched vector, then two equal (non-orthogonal) unit vectors
    fields = rows[0].split()
    stretched = " ".join(fields[:2] + [repr(2.0 * float(x)) for x in fields[2:]])
    parallel = " ".join(["0", "1", *fields[2:]])
    for corrupt in ([stretched] + rows[1:], rows[:1] + [parallel] + rows[2:]):
        with pytest.raises(ValueError, match="not feasible"):
            parse_moment_solution("\n".join([header, *corrupt]))


def test_solution_shape_validation():
    with pytest.raises(ValueError):
        MomentSolution(vectors=np.zeros((2, 3, 5)), value=0.0)
    with pytest.raises(ValueError):
        MomentSolution(vectors=np.zeros((2, 2, 6)), value=0.0)


def test_mismatched_objective_rejected():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 1),))
    sol = MomentSolution(vectors=np.tile(np.eye(3), (3, 1, 3)).reshape(3, 3, 9), value=0.0)
    with pytest.raises(ValueError):
        sdp_objective(inst, sol)


def test_solve_runs_no_product_search(monkeypatch):
    from heisopt import oracle

    calls = []
    for mod in (moment_sdp, oracle):
        def counting(*args, _search=mod.best_product_state, **kwargs):
            calls.append(1)
            return _search(*args, **kwargs)

        monkeypatch.setattr(mod, "best_product_state", counting)
    inst = Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 0), Edge(1, 2, 1.0, 0, 1, 1)))
    solve_moment_sdp(inst, SolverConfig(restarts=2, seed=7))
    assert calls == []


@pytest.mark.parametrize("n", [3, 9, 40, 120])
def test_random_rows_match_per_qubit_draws_bitwise(n):
    from heisopt._backend import DOMAIN_SOLVER, rng_for, unit_rows

    p = 7
    for k in (1, 4):
        rng = rng_for(11, DOMAIN_SOLVER, k)
        expect = np.empty((2, n, p))
        for b in range(2):
            for i in range(n):
                row = rng.standard_normal(p)
                expect[b, i] = row / np.sqrt((row * row).sum())
        got = unit_rows(rng_for(11, DOMAIN_SOLVER, k), (2, n, p))
        assert np.array_equal(got, expect)


def _blocks(sol):
    """Axis k's rows, coordinates k*n to k*n + rank of its Gram vectors."""
    n, p = sol.n, sol.diagnostics.rank
    return [sol.vectors[:, k, k * n : k * n + p] for k in range(3)]


def _family(inst, coeffs):
    return Instance(n=inst.n, edges=tuple(Edge(e.i, e.j, e.w, *coeffs) for e in inst.edges))


def test_uniform_xyz_shares_one_block_counted_per_axis(rng):
    for _ in range(5):
        inst = _family(random_instance(rng, n=int(rng.integers(3, 12))), (1, 1, 1))
        sol = solve_moment_sdp(inst, SolverConfig(seed=3))
        x, y, z = _blocks(sol)
        assert np.array_equal(x, y) and np.array_equal(x, z)
        # counting the shared block once would lose two thirds of the coupling part
        assert sol.value == pytest.approx(sdp_objective(inst, sol), abs=1e-9)
        assert sol.diagnostics.rank == min(inst.n, int(np.ceil(np.sqrt(2 * inst.n))) + 1)
        # only the rank-p blocks are nonzero
        assert np.count_nonzero(sol.vectors.any(axis=0)) <= 3 * sol.diagnostics.rank


@pytest.mark.parametrize("coeffs", [(1, 1, 0), (0, 0, 1)], ids=["xy", "zz"])
def test_zero_coupling_axis_adds_nothing(rng, coeffs, monkeypatch):
    # a one-axis instance on the same edges, run from the same start for the
    # same number of sweeps, reaches the same rows. Where they stop on their
    # own differs: the XY block counts twice in the relative gap, so it may
    # need another bound evaluation, and the sweep count is fixed here
    for _ in range(5):
        base = random_instance(rng, n=int(rng.integers(3, 12)))
        inst, one = _family(base, coeffs), _family(base, (1, 0, 0))
        for case in (inst, one):
            assert solve_moment_sdp(case, SolverConfig(seed=4)).diagnostics.converged
        with monkeypatch.context() as m:
            m.setattr(moment_sdp, "GAP_TOLERANCE", -np.inf)
            m.setattr(moment_sdp, "MAX_SWEEPS", 25)
            sol = solve_moment_sdp(inst, SolverConfig(seed=4))
            ref = solve_moment_sdp(one, SolverConfig(seed=4))
        assert sol.diagnostics.total_sweeps == ref.diagnostics.total_sweeps == 25
        active = sum(coeffs)
        wsum = sum(e.w for e in inst.edges)
        blocks, ref_blocks = _blocks(sol), _blocks(ref)
        for k in range(3):
            if coeffs[k]:
                assert np.array_equal(blocks[k], ref_blocks[0])
            else:
                # a fixed unit vector: its block's first coordinate
                expect = np.zeros_like(sol.vectors[:, k])
                expect[:, k * inst.n] = 1.0
                assert np.array_equal(sol.vectors[:, k], expect)
        assert sol.value - wsum == pytest.approx(active * (ref.value - wsum), rel=1e-12)
        assert sol.diagnostics.upper_bound - wsum == pytest.approx(
            active * (ref.diagnostics.upper_bound - wsum), rel=1e-12
        )


def test_over_relaxation_cuts_sweeps_to_convergence(monkeypatch):
    # the plain block step (theta = 0) against the shipped one on one seeded
    # XYZ G(100, 0.1); both must close the gap
    inst = generate("random_gnp", seed=1, n=100, p=0.1, family=(1, 1, 1))
    fast = solve_moment_sdp(inst, SolverConfig(seed=0)).diagnostics
    monkeypatch.setattr(_kernels, "OVER_RELAX", 0.0)
    plain = solve_moment_sdp(inst, SolverConfig(seed=0)).diagnostics
    assert fast.converged and plain.converged
    assert 2 * fast.total_sweeps <= plain.total_sweeps


def test_cross_axis_gram_entries_are_zero(rng):
    for style in ("arbitrary", "family", "corner"):
        inst = random_instance(rng, n=int(rng.integers(2, 10)), coeffs=style)
        V = solve_moment_sdp(inst, SolverConfig(seed=5)).vectors
        gram = np.einsum("ikd,jld->klij", V, V)
        for k in range(3):
            for l in range(3):
                if k != l:
                    assert not gram[k, l].any()


def test_upper_bound_dominates_lambda_max_on_mixed_instances(rng):
    for k in range(30):
        inst = random_instance(rng, n=int(rng.integers(2, 9)), coeffs="arbitrary")
        sol = solve_moment_sdp(inst, SolverConfig(seed=k))
        lam = exact_max_eigenvalue(inst).lambda_max
        assert sol.diagnostics.converged
        assert sol.diagnostics.upper_bound >= lam - 1e-12 * (1.0 + abs(lam))
