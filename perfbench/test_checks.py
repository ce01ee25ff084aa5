"""The benchmark's reference checks pass on the program's output and fail on
corrupted output.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from inputs import Spec, base_graph, make_inputs, relabel  # noqa: E402

from heisopt import (  # noqa: E402
    SolverConfig,
    bfv_round,
    cli,
    gw_axis_round,
    parse_instance,
    solve_moment_sdp,
)

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_hamiltonian(edges):
    """H from Kronecker products of Paulis; qubit 0 is the leftmost factor."""
    dim = 1 << edges.n
    H = np.zeros((dim, dim), dtype=complex)
    for i, j, w, coeffs in zip(edges.ei, edges.ej, edges.w, edges.c):
        H += w * np.eye(dim)
        for c, p in zip(coeffs, "XYZ"):
            ops = [PAULI["I"]] * edges.n
            ops[i] = ops[j] = PAULI[p]
            term = np.array([[1.0 + 0j]])
            for op in ops:
                term = np.kron(term, op)
            H -= w * c * term
    return H


def small(coeffs, n=5, p=0.7, seed=3):
    return make_inputs([Spec("t", n, p, coeffs)], 9, seed)[0]


# ------------------------------------------------------------ Hamiltonian


@pytest.mark.parametrize("coeffs", ["mixed", "xxz", "zz", "xyz", "xy"])
def test_bit_hamiltonian_matches_kron(coeffs):
    edges = small(coeffs)
    off, diag = checks.hamiltonian(edges)
    H = np.diag(diag) if off is None else off + np.diag(diag)
    np.testing.assert_allclose(H, kron_hamiltonian(edges), atol=1e-12)
    lam = np.linalg.eigvalsh(kron_hamiltonian(edges))[-1]
    assert checks.max_eigenvalue(edges) == pytest.approx(lam, abs=1e-10)


def test_relabel_keeps_spectrum():
    base = base_graph(Spec("t", 6, 0.6, "mixed"), 9, 0)
    a, b = relabel(base, 1, 0), relabel(base, 2, 0)
    assert a.text() != b.text()
    assert checks.max_eigenvalue(a) == pytest.approx(checks.max_eigenvalue(b), abs=1e-10)


def test_inputs_round_trip_through_parser():
    edges = small("mixed")
    inst = parse_instance(edges.text())
    ei, ej, w, wc3 = inst.arrays()
    np.testing.assert_array_equal(ei, edges.ei)
    np.testing.assert_array_equal(wc3, edges.w[:, None] * edges.c)
    assert inst.label == edges.label


# ------------------------------------------------------ pipeline reports


@pytest.fixture(scope="module")
def exact_case():
    edges = small("mixed", n=6, p=0.6)
    inst = parse_instance(edges.text())
    report = cli.run_pipeline(inst, scheme="axis", trials=50, seed=1, restarts=1, oracle=True)
    return edges, report


def test_exact_checks_pass_on_program_output(exact_case):
    edges, report = exact_case
    lam = checks.max_eigenvalue(edges)
    assert checks.check_report(report, "axis", "mixed") == []
    assert checks.check_exact(report, lam) == []


def test_perturbed_lambda_max_fails(exact_case):
    edges, report = exact_case
    lam = checks.max_eigenvalue(edges)
    bad = dataclasses.replace(report, lambda_max=report.lambda_max * (1 + 1e-6))
    assert checks.check_exact(bad, lam)
    assert checks.check_exact(report, lam * (1 - 1e-6))


def test_energies_above_lambda_max_fail(exact_case):
    edges, report = exact_case
    lam = checks.max_eigenvalue(edges)
    assert checks.check_exact(dataclasses.replace(report, best_product_energy=lam + 1e-3), lam)
    assert checks.check_exact(dataclasses.replace(report, rounded_energy=lam + 1e-3), lam)
    assert checks.check_exact(dataclasses.replace(report, sdp_value=lam - 1e-3), lam)


def test_report_checks_fail_on_corruption(exact_case):
    _, report = exact_case
    assert checks.check_report(
        dataclasses.replace(report, certified_ratio=report.certified_ratio + 1e-9), "axis", "mixed"
    )
    assert checks.check_report(
        dataclasses.replace(report, rounded_energy=report.sdp_value * 1.01), "axis", "mixed"
    )
    low = dataclasses.replace(report, rounded_energy=0.4 * report.sdp_value, certified_ratio=0.4)
    assert checks.check_report(low, "axis", "mixed") == []
    assert checks.check_report(low, "bfv", "xyz")


# --------------------------------------------------------------- rounding


@pytest.fixture(scope="module")
def round_case():
    edges = small("xy", n=8, p=0.5)
    inst = parse_instance(edges.text())
    sol = solve_moment_sdp(inst, SolverConfig(restarts=1))
    bfv = bfv_round(inst, sol, trials=200, seed=2)
    axis = gw_axis_round(inst, sol, trials=200, seed=2)
    return edges, sol, bfv, axis


def test_rounding_checks_pass_on_program_output(round_case):
    edges, sol, bfv, axis = round_case
    assert checks.check_solution(edges, sol) == []
    assert checks.check_rounding(edges, sol.value, bfv, checks.BFV_XY) == []
    assert checks.check_rounding(edges, sol.value, axis, checks.AXIS_R2) == []


def test_non_unit_triad_fails(round_case):
    edges, sol, _, _ = round_case
    V = sol.vectors.copy()
    V[2, 1] *= 1.0 + 1e-6
    assert checks.check_solution(edges, SimpleNamespace(vectors=V, value=sol.value))
    assert checks.check_solution(edges, SimpleNamespace(vectors=sol.vectors, value=sol.value + 1e-6))


def _outcome(outcome, **changes):
    fields = dict(
        state=outcome.state,
        energy=outcome.energy,
        trials_run=outcome.trials_run,
        per_trial_energies=outcome.per_trial_energies,
    )
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_non_unit_bloch_vector_fails(round_case):
    edges, sol, bfv, _ = round_case
    bloch = bfv.state.bloch.copy()
    bloch[0] *= 1.0 + 1e-6
    bad = _outcome(bfv, state=SimpleNamespace(bloch=bloch))
    assert checks.check_rounding(edges, sol.value, bad, checks.BFV_XY)


def test_wrong_best_energy_fails(round_case):
    edges, sol, bfv, _ = round_case
    shifted = bfv.energy + 1e-6
    bad = _outcome(bfv, energy=shifted, per_trial_energies=bfv.per_trial_energies[:-1] + (shifted,))
    assert checks.check_rounding(edges, sol.value, bad, checks.BFV_XY)


def test_mean_below_guarantee_fails(round_case):
    edges, sol, _, axis = round_case
    e = np.asarray(axis.per_trial_energies)
    low = tuple(0.5 * sol.value + 1e-3 * (e - e.mean()))
    bad = _outcome(axis, per_trial_energies=low, energy=max(low))
    assert checks.check_rounding(edges, sol.value, bad, checks.AXIS_R2)


# -------------------------------------------------------------- constants


def test_euler_integral_matches_closed_forms():
    z = np.array([0.0, 0.3, 0.81, 0.999])
    np.testing.assert_allclose(
        checks.hyp2f1_euler(1, z[1:]), np.arcsin(np.sqrt(z[1:])) / np.sqrt(z[1:]), atol=1e-13
    )
    assert checks.hyp2f1_euler(1, 0.0)[0] == pytest.approx(1.0, abs=1e-14)
    for r, gauss in ((1, math.pi / 2), (2, 4 / math.pi), (3, 3 * math.pi / 8)):
        assert checks.hyp2f1_euler(r, 1.0)[0] == pytest.approx(gauss, abs=1e-13)
        assert checks.projection_expectation(r, 1.0)[0] == pytest.approx(1.0, abs=1e-13)


def test_goemans_williamson_constant():
    assert checks.goemans_williamson() == pytest.approx(0.8785672057848516, abs=1e-12)


@pytest.fixture(scope="module")
def constants_case():
    steps = (0.01,)
    rows = cli.reproduce_constants(steps=steps)
    refs = {
        (s, r, step): checks.grid_minimum(s, r, step)
        for step in steps
        for s in ("bfv", "axis")
        for r in (1, 2, 3)
    }
    return rows, refs, checks.goemans_williamson()


def test_constants_checks_pass_on_program_output(constants_case):
    assert checks.check_constants(*constants_case) == []


@pytest.mark.parametrize("k", range(6))
def test_shifted_curve_minimum_fails(constants_case, k):
    rows, refs, gw = constants_case
    shifted = [dict(row) for row in rows]
    shifted[k]["ratio"] += 1e-7
    assert checks.check_constants(shifted, refs, gw)
    moved = [dict(row) for row in rows]
    moved[k]["t_star"] = abs(moved[k]["t_star"]) - 0.05
    assert checks.check_constants(moved, refs, gw)


def test_constant_outside_band_fails(constants_case):
    rows, refs, gw = constants_case
    refs = dict(refs)
    bad = [dict(row) for row in rows]
    for row in bad:
        if (row["scheme"], row["r"]) == ("bfv", 3):
            row["ratio"] = 0.4995
            refs[("bfv", 3, row["step"])] = (row["t_star"], 0.4995)
    assert checks.check_constants(bad, refs, gw)
