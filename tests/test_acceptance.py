"""Acceptance criteria for the package, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion (a failed assertion fails the test, so a criterion's line prints
only when it actually holds at the stated tolerance).
"""

import math
import time
from functools import reduce

import numpy as np
import pytest

from conftest import brute_force_max_cut, random_instance

from heisopt import (
    Edge,
    Instance,
    SolverConfig,
    best_product_state,
    bfv_round,
    caratheodory_split,
    edge_opt,
    edge_opt_prod,
    exact_max_eigenvalue,
    gw_axis_round,
    is_family_uniform,
    reduce_instance,
    solve_moment_sdp,
)
from heisopt.cli import main, reproduce_constants
from heisopt.moment_sdp import GAP_TOLERANCE
from heisopt.pauli import SX, SY, SZ, adjoint_rotation, build_dense, fano_compose, FanoForm
from heisopt.ratio_numerics import approx_ratio_axis, approx_ratio_bfv, bfv_expectation

REFERENCE_CONSTANTS = {
    ("bfv", 1): 0.878,
    ("bfv", 2): 0.649,
    ("bfv", 3): 0.498,
    ("axis", 1): 0.878,
    ("axis", 2): 0.609,
    ("axis", 3): 0.462,
}


def report(num, text):
    print(f"\ncriterion {num}: PASS - {text}")


def test_criterion_1_constants_reproduction():
    """Reference 3-decimal constants come back from the 0.01 grid in < 5 s.

    The reference values are truncations (floor at the third decimal), not
    roundings: every grid minimum lies in [value, value + 1e-3). The
    companion xfail test documents that a symmetric +/-5e-4 band around the
    reference values cannot be met by any correct implementation.
    """
    t0 = time.perf_counter()
    rows = reproduce_constants(steps=(0.01,))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"constants took {elapsed:.2f}s"
    assert len(rows) == 6
    for row in rows:
        reference = REFERENCE_CONSTANTS[(row["scheme"], row["r"])]
        value = row["ratio"]
        assert reference <= value < reference + 1e-3, (row, reference)
        assert math.floor(value * 1000) / 1000 == reference
    report(1, f"all six constants truncate to the reference values ({elapsed:.2f}s)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the reference constants are truncated to 3 decimals, so every exact "
        "grid minimum exceeds them by 5.7e-4 to 9.2e-4; since refining the "
        "grid only lowers the minimum toward the continuum value, which still "
        "exceeds reference + 5e-4, no correct implementation can land inside "
        "a symmetric +/-5e-4 band around the reference numbers"
    ),
)
def test_criterion_1_literal_tolerance_band():
    rows = reproduce_constants(steps=(0.01,))
    for row in rows:
        reference = REFERENCE_CONSTANTS[(row["scheme"], row["r"])]
        assert abs(row["ratio"] - reference) <= 5e-4


def test_criterion_2_closed_form_oracle_equivalence(rng):
    XX, YY, ZZ = np.kron(SX, SX), np.kron(SY, SY), np.kron(SZ, SZ)
    eig_failures = 0
    prod_exceed = 0
    prod_matches = 0
    trials = 1000
    for k in range(trials):
        a, b, g = (float(x) for x in rng.uniform(-1, 1, 3))
        lam = float(np.linalg.eigvalsh(a * XX + b * YY + g * ZZ)[-1])
        if abs(edge_opt(a, b, g) - lam) > 1e-9:
            eig_failures += 1
        # product search over the same matrix: the instance coefficients
        # are negated because an edge term is I - aXX - bYY - gZZ
        inst = Instance(n=2, edges=(Edge(0, 1, 1.0, -a, -b, -g),))
        found = best_product_state(inst, restarts=8, seed=k).energy - 1.0
        closed = edge_opt_prod(a, b, g)
        if found > closed + 1e-9:
            prod_exceed += 1
        if abs(found - closed) <= 1e-6:
            prod_matches += 1
    assert eig_failures == 0
    assert prod_exceed == 0
    assert prod_matches >= 0.99 * trials
    report(
        2,
        f"eigenvalue closed form held on {trials - eig_failures}/{trials}; "
        f"product search matched its closed form on {prod_matches}/{trials}",
    )


def test_criterion_3_single_edge_ratios():
    want = {(0, 0, 1): 1.0, (1, 1, 0): 2.0 / 3.0, (1, 1, 1): 0.5}
    got = {}
    for tag, target in want.items():
        inst = Instance(n=2, edges=(Edge(0, 1, 1.0, *map(float, tag)),))
        lam = exact_max_eigenvalue(inst).lambda_max
        prod = best_product_state(inst, restarts=20).energy
        ratio = prod / lam
        got[tag] = ratio
        assert abs(ratio - target) < 1e-6, (tag, ratio, target)
    report(3, "true product ratios 1, 2/3, 1/2 reproduced within 1e-6")


def _criterion_4_instances(rng, count=200):
    for k in range(count):
        style = ("family", "corner", "arbitrary")[k % 3]
        yield k, random_instance(rng, n=int(rng.integers(2, 11)), coeffs=style)


def test_criterion_4_relaxation_soundness(rng):
    t0 = time.perf_counter()
    count = 200
    violations = bound_violations = open_gaps = converged = 0
    for k, inst in _criterion_4_instances(rng, count):
        sol = solve_moment_sdp(inst, SolverConfig(seed=k))
        lam = exact_max_eigenvalue(inst).lambda_max
        gap = sol.diagnostics.upper_bound - sol.value
        rounding = 1e-12 * (1.0 + abs(lam))
        if sol.diagnostics.converged:
            # a converged solve's certified gap is the value's slack; value +
            # gap is the bound, which may miss lambda_max by rounding only
            converged += 1
            if gap > GAP_TOLERANCE * max(1.0, abs(sol.value - inst.offset)):
                open_gaps += 1
            slack = gap + rounding
        else:
            slack = 1e-5 * (1.0 + abs(lam))
        if sol.value < lam - slack:
            violations += 1
        if sol.diagnostics.upper_bound < lam - rounding:
            bound_violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert bound_violations == 0
    assert open_gaps == 0
    assert elapsed < 600.0
    report(
        4,
        f"SDP value and dual bound dominated lambda_max on {count}/{count} instances; "
        f"{converged} converged with a gap within {GAP_TOLERANCE:g} ({elapsed:.0f}s)",
    )


def test_criterion_4_slow_instances_close_their_gap(rng):
    # a relative-gain stop rule called these converged at gaps of 1.2e-6 to 8.6e-6
    slow = {29, 83, 98, 136}
    for k, inst in _criterion_4_instances(rng, max(slow) + 1):
        if k not in slow:
            continue
        sol = solve_moment_sdp(inst, SolverConfig(seed=k))
        assert sol.diagnostics.converged
        gap = sol.diagnostics.upper_bound - sol.value
        assert gap <= 1e-7 * max(1.0, abs(sol.value - inst.offset)), (k, gap)


def test_criterion_5_rounding_guarantees(rng):
    consts = {
        "bfv": {r: approx_ratio_bfv(r).minimum[1] for r in (1, 2, 3)},
        "axis": {r: approx_ratio_axis(r).minimum[1] for r in (1, 2, 3)},
    }
    trials = 500
    count = 50
    mean_failures = {"bfv": 0, "axis": 0}
    best_hits = {"bfv": 0, "axis": 0}
    for k in range(count):
        inst = random_instance(rng, n=int(rng.integers(3, 11)), coeffs="family")
        r = is_family_uniform(inst).r
        sol = solve_moment_sdp(inst, SolverConfig(seed=k))
        for scheme, rounder in (("bfv", bfv_round), ("axis", gw_axis_round)):
            out = rounder(inst, sol, trials=trials, seed=k)
            ratios = np.asarray(out.per_trial_energies) / sol.value
            mean = float(ratios.mean())
            sigma = float(ratios.std(ddof=1))
            const = consts[scheme][r]
            if mean < const - 3.0 * sigma / math.sqrt(trials):
                mean_failures[scheme] += 1
            if ratios.max() >= const:
                best_hits[scheme] += 1
    assert mean_failures["bfv"] == 0
    assert mean_failures["axis"] == 0
    assert best_hits["bfv"] >= 0.95 * count
    assert best_hits["axis"] >= 0.95 * count
    report(
        5,
        f"mean ratio within 3 sigma of theory on {count}/{count} instances; "
        f"best-of-trials cleared theory on {best_hits['bfv']}/{count} (bfv) "
        f"and {best_hits['axis']}/{count} (axis)",
    )


def test_criterion_6_max_cut_consistency(rng):
    # dyadic weights (k/8) make both sides exactly representable sums
    for k in range(20):
        n = int(rng.integers(3, 13))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < 0.4
        if not keep.any():
            keep[int(rng.integers(len(pairs)))] = True
        edges = tuple(
            Edge(i, j, float(rng.integers(1, 9)) / 8.0, 0.0, 0.0, 1.0)
            for (i, j), kp in zip(pairs, keep)
            if kp
        )
        inst = Instance(n=n, edges=edges)
        lam = exact_max_eigenvalue(inst).lambda_max
        cut = brute_force_max_cut(n, [(e.i, e.j, e.w) for e in edges])
        assert lam == 2.0 * cut, (n, lam, cut)
    report(6, "lambda_max equaled twice the brute-force max cut exactly on 20/20 graphs")


def test_criterion_7_gw_bfv_identity():
    worst = 0.0
    for t1000 in range(-1000, 1001):
        t = t1000 / 1000.0
        worst = max(worst, abs(bfv_expectation(1, t) - 2.0 * math.asin(t) / math.pi))
    assert worst < 1e-12
    for r in (1, 2, 3):
        assert abs(bfv_expectation(r, 1.0) - 1.0) < 1e-12
    report(7, f"F(1,t) matched 2*arcsin(t)/pi within {worst:.1e}; F(r,1)=1 for r=1,2,3")


def test_criterion_8_reduction_correctness(rng):
    for k in range(20):
        n = int(rng.integers(2, 9))
        A = rng.uniform(-1, 1, (3, 3))
        M = (A + A.T) / 2.0
        kappa = float(rng.uniform(-1, 2))
        term = fano_compose(FanoForm(kappa=kappa, m=M, r=np.zeros(3), s=np.zeros(3)))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < 0.6
        if not keep.any():
            keep[0] = True
        edges = tuple(
            Edge(i, j, float(rng.uniform(0.2, 1.0)), 0, 0, 0)
            for (i, j), kp in zip(pairs, keep)
            if kp
        )
        inst = Instance(n=n, edges=edges)
        red, U, mode = reduce_instance(inst, term=term)

        # SU(2) conjugation relations
        assert np.abs(U.u @ U.u.conj().T - np.eye(2)).max() < 1e-9
        O = adjoint_rotation(U)
        e0 = red.edges[0]
        scale = e0.w / edges[0].w
        M_red = -scale * np.diag([e0.alpha, e0.beta, e0.gamma])
        assert np.abs(O @ M @ O.T - M_red).max() < 1e-9
        # per-edge conjugation: U x U maps the original term onto the reduced
        # one up to the identity shift folded into the instance offset
        UU = np.kron(U.u, U.u)
        red_term = fano_compose(FanoForm(kappa=scale, m=M_red, r=np.zeros(3), s=np.zeros(3)))
        shift = kappa - scale
        assert np.abs(UU @ term @ UU.conj().T - (red_term + shift * np.eye(4))).max() < 1e-9

        # spectrum preservation on the full Hamiltonian, built here from
        # explicit matrix-unit embeddings so it does not share code paths
        # with the library
        dim = 2**n
        units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for q, unit in enumerate(units):
            unit[q // 2, q % 2] = 1.0
        # row index of a 4x4 two-site operator splits as (row_i, row_j)
        T = term.reshape(2, 2, 2, 2)
        H_orig = np.zeros((dim, dim), dtype=complex)
        for e in edges:
            for r0, r1, c0, c1 in np.ndindex(2, 2, 2, 2):
                ops = [np.eye(2, dtype=complex)] * n
                ops[e.i] = units[2 * r0 + c0]
                ops[e.j] = units[2 * r1 + c1]
                H_orig += e.w * T[r0, r1, c0, c1] * reduce(np.kron, ops)
        H_red = build_dense(red).entries
        ev0 = np.linalg.eigvalsh(H_orig)
        ev1 = np.linalg.eigvalsh(H_red)
        assert np.abs(ev0 - ev1).max() < 1e-8, (k, n, mode)
    report(8, "conjugation relations within 1e-9 and spectra within 1e-8 on 20/20 reductions")


def test_criterion_9_caratheodory_exactness(rng):
    count = 100_000
    triples = rng.uniform(-1, 1, (count, 3))
    worst = 0.0
    for a, b, g in triples:
        dec = caratheodory_split(float(a), float(b), float(g))
        assert len(dec.terms) <= 4
        weights = [lam for lam, _ in dec.terms]
        assert all(lam > 0 for lam in weights)
        assert abs(sum(weights) - 1.0) < 1e-12
        back = dec.compose()
        err = max(abs(back[0] - a), abs(back[1] - b), abs(back[2] - g))
        worst = max(worst, err)
        assert err < 1e-12
    report(9, f"{count} random triples decomposed exactly (worst error {worst:.1e})")


def test_criterion_10_determinism(tmp_path):
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "random_gnp", "--n", "7", "--p", "0.5", "--seed", "11", "--out", str(inst_path)]) == 0
    for scheme in ("bfv", "axis"):
        for extra in ([], ["--oracle", "on"]):
            a = tmp_path / f"{scheme}{len(extra)}a.json"
            b = tmp_path / f"{scheme}{len(extra)}b.json"
            args = ["pipeline", str(inst_path), "--scheme", scheme, "--trials", "60", "--seed", "2", *extra]
            assert main([*args, "--out", str(a)]) == 0
            assert main([*args, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), (scheme, extra)
    report(10, "byte-identical reports for repeated runs across schemes and oracle flags")
