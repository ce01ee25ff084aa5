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
from heisopt.moment_sdp import GAP_TOLERANCE


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(max_sweeps=0)


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


def test_upper_bound_dominates_lambda_max_when_capped(rng):
    # one sweep leaves the ascent far from the optimum; the bound still holds
    for k in range(60):
        style = ("family", "corner", "arbitrary")[k % 3]
        inst = random_instance(rng, n=int(rng.integers(2, 9)), coeffs=style)
        sol = solve_moment_sdp(inst, SolverConfig(restarts=1, max_sweeps=1, seed=k))
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
    from heisopt import moment_sdp, oracle

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
def test_random_triads_match_per_qubit_qr_bitwise(n):
    from heisopt._backend import DOMAIN_SOLVER, rng_for
    from heisopt.moment_sdp import _random_triads

    for k in (1, 4):
        rng = rng_for(11, DOMAIN_SOLVER, k)
        expect = np.empty((n, 3, 3 * n))
        for i in range(n):
            Q, _ = np.linalg.qr(rng.standard_normal((3 * n, 3)))
            expect[i] = Q.T
        got = _random_triads(n, rng_for(11, DOMAIN_SOLVER, k))
        assert np.array_equal(got, expect)
