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


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(sweep_tolerance=0.0)
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
    # restart 0 embeds the product search result, so this holds structurally
    for _ in range(15):
        inst = random_instance(rng)
        sol = solve_moment_sdp(inst, SolverConfig(restarts=1))
        ps = best_product_state(inst)
        assert sol.value >= ps.energy - 1e-9


def test_diagnostics_populated():
    inst = Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 1.0, 1, 1, 1)))
    sol = solve_moment_sdp(inst, SolverConfig(restarts=4, seed=11))
    d = sol.diagnostics
    assert d.restarts == 4
    assert len(d.restart_values) == 4
    assert d.best_restart == int(np.argmax(d.restart_values))
    assert d.total_sweeps >= d.best_sweeps >= 1
    assert d.converged
    assert sol.value == pytest.approx(max(d.restart_values))


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


def test_warm_start_equals_product_energy():
    # at the embedded warm start (before any sweep) the objective must equal
    # the product energy; verify via sdp_objective on a hand-built embedding
    from heisopt.moment_sdp import _embed_product

    inst = Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 0), Edge(0, 2, 2.0, 1, 1, 0)))
    ps = best_product_state(inst, restarts=5)
    V = _embed_product(ps.state.bloch)
    sol = MomentSolution(vectors=V, value=0.0)
    assert check_feasibility(sol).passed
    assert sdp_objective(inst, sol) == pytest.approx(ps.energy, abs=1e-10)


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


def test_warm_start_uses_configured_seed(monkeypatch):
    from heisopt import moment_sdp

    seen = []
    search = moment_sdp.best_product_state

    def recording(inst, **kwargs):
        seen.append(kwargs.get("seed"))
        return search(inst, **kwargs)

    monkeypatch.setattr(moment_sdp, "best_product_state", recording)
    inst = Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 0), Edge(1, 2, 1.0, 0, 1, 1)))
    solve_moment_sdp(inst, SolverConfig(restarts=2, seed=7))
    assert seen == [7]
