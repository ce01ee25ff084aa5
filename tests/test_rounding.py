import numpy as np
import pytest

from conftest import dense_reference, random_instance

from heisopt import (
    Edge,
    Instance,
    MomentSolution,
    SolverConfig,
    bfv_expectation,
    bfv_round,
    caratheodory_split,
    exact_max_eigenvalue,
    generate,
    gw_axis_round,
    is_family_uniform,
    product_energy,
    rounding,
    solve_moment_sdp,
    split_instance,
)
from heisopt._backend import DOMAIN_ROUNDING, rng_for


def antipodal_solution(n, axes=(0, 1, 2)):
    """Two-qubit solution with v_{1,k} = -v_{0,k} on the given axes."""
    V = np.zeros((n, 3, 3 * n))
    for i in range(n):
        for k in range(3):
            V[i, k, k] = -1.0 if (i == 1 and k in axes) else 1.0
    return MomentSolution(vectors=V, value=0.0)


def test_caratheodory_corner_fixed_points():
    dec = caratheodory_split(1, 1, 1)
    assert dec.terms == ((1.0, (1.0, 1.0, 1.0)),)
    dec = caratheodory_split(-1, -1, -1)
    assert dec.terms == ((1.0, (-1.0, -1.0, -1.0)),)


def test_caratheodory_center():
    dec = caratheodory_split(0, 0, 0)
    assert len(dec.terms) == 2
    weights = sorted(lam for lam, _ in dec.terms)
    assert weights == [0.5, 0.5]
    corners = {c for _, c in dec.terms}
    assert corners == {(1.0, 1.0, 1.0), (-1.0, -1.0, -1.0)}


def test_caratheodory_documented_example():
    dec = caratheodory_split(0.5, -0.5, 0)
    assert len(dec.terms) == 4
    as_set = {(lam, c) for lam, c in dec.terms}
    want = {
        (0.25, (-1.0, -1.0, -1.0)),
        (0.25, (1.0, -1.0, -1.0)),
        (0.25, (1.0, -1.0, 1.0)),
        (0.25, (1.0, 1.0, 1.0)),
    }
    assert as_set == want


def test_caratheodory_random_triples(rng):
    # exactness, simplex weights, term count; the acceptance suite scales
    # this to 1e5 triples
    for _ in range(5000):
        a, b, g = (float(x) for x in rng.uniform(-1, 1, 3))
        dec = caratheodory_split(a, b, g)
        assert 1 <= len(dec.terms) <= 4
        weights = [lam for lam, _ in dec.terms]
        assert all(lam > 0 for lam in weights)
        assert abs(sum(weights) - 1.0) < 1e-12
        back = dec.compose()
        assert max(abs(x - y) for x, y in zip(back, (a, b, g))) < 1e-12
        for _, corner in dec.terms:
            assert set(corner) <= {-1.0, 1.0}


def test_caratheodory_rejects_out_of_range():
    with pytest.raises(ValueError):
        caratheodory_split(1.5, 0, 0)
    with pytest.raises(ValueError):
        caratheodory_split(float("nan"), 0, 0)


def test_split_instance_preserves_hamiltonian(rng):
    for _ in range(10):
        inst = random_instance(rng, n=int(rng.integers(2, 7)))
        split = split_instance(inst)
        assert split.m <= 4 * inst.m
        for e in split.edges:
            assert set(e.coeffs) <= {-1.0, 1.0}
        H0 = dense_reference(inst)
        H1 = dense_reference(split)
        assert np.abs(H0 - H1).max() < 1e-10


def test_split_instance_spectrum_unchanged(rng):
    inst = random_instance(rng, n=6)
    split = split_instance(inst)
    ev0 = np.linalg.eigvalsh(dense_reference(inst))
    ev1 = np.linalg.eigvalsh(dense_reference(split))
    assert np.abs(ev0 - ev1).max() < 1e-10


def test_split_single_edge_example():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 0.5, -0.5, 0),))
    split = split_instance(inst)
    assert split.m == 4
    assert all(e.w == pytest.approx(0.25) for e in split.edges)


def test_bfv_rejects_non_family_uniform():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 0.5, 0, 0),))
    sol = antipodal_solution(2)
    with pytest.raises(ValueError):
        bfv_round(inst, sol, trials=1, seed=0)


def test_bfv_antipodal_z_edge_deterministic():
    # antipodal rank-1 vectors force y_1 = -y_0, energy 2, every trial
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 0, 0, 1),))
    sol = antipodal_solution(2, axes=(2,))
    out = bfv_round(inst, sol, trials=50, seed=0)
    assert out.trials_run == 50
    assert all(e == pytest.approx(2.0, abs=1e-12) for e in out.per_trial_energies)
    assert out.energy == pytest.approx(2.0, abs=1e-12)


def test_bfv_antipodal_f111_deterministic():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 1),))
    sol = antipodal_solution(2)
    out = bfv_round(inst, sol, trials=50, seed=0)
    assert all(e == pytest.approx(2.0, abs=1e-12) for e in out.per_trial_energies)


def test_axis_antipodal_z_edge_deterministic():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 0, 0, 1),))
    sol = antipodal_solution(2, axes=(2,))
    out = gw_axis_round(inst, sol, trials=50, seed=0)
    assert all(e == pytest.approx(2.0, abs=1e-12) for e in out.per_trial_energies)


def test_outcome_invariants(rng):
    inst = random_instance(rng, n=5, coeffs="family")
    sol = solve_moment_sdp(inst, SolverConfig(restarts=2))
    for rounder in (bfv_round, gw_axis_round):
        out = rounder(inst, sol, trials=30, seed=4)
        assert out.energy == max(out.per_trial_energies)
        assert out.trials_run == 30
        assert out.seed == 4
        # best state's energy is reproduced by the stored bloch vectors
        from heisopt import product_energy

        assert product_energy(inst, out.state) == pytest.approx(out.energy, abs=1e-10)


def test_rounded_energy_never_exceeds_lambda_max(rng):
    for _ in range(10):
        inst = random_instance(rng, n=int(rng.integers(2, 8)), coeffs="family")
        sol = solve_moment_sdp(inst, SolverConfig(restarts=2))
        lam = exact_max_eigenvalue(inst).lambda_max
        for rounder in (bfv_round, gw_axis_round):
            out = rounder(inst, sol, trials=25, seed=1)
            assert max(out.per_trial_energies) <= lam + 1e-8


def test_bloch_vector_structure(rng):
    inst = random_instance(rng, n=4, coeffs="family")
    sol = solve_moment_sdp(inst, SolverConfig(restarts=2))
    from heisopt import is_family_uniform

    tag = is_family_uniform(inst)
    out = bfv_round(inst, sol, trials=5, seed=0)
    bloch = out.state.bloch
    active = list(tag.active_axes)
    inactive = [a for a in range(3) if a not in active]
    assert np.allclose(np.linalg.norm(bloch[:, active], axis=1), 1.0, atol=1e-12)
    if inactive:
        assert np.all(bloch[:, inactive] == 0.0)

    out2 = gw_axis_round(inst, sol, trials=5, seed=0)
    b2 = out2.state.bloch
    nonzero = np.abs(b2) > 0
    assert np.all(nonzero.sum(axis=1) == 1)  # single axis per qubit
    assert set(np.abs(b2[nonzero]).tolist()) == {1.0}


def test_axis_rounding_mixed_signs_z_family(rng):
    # mixed-sign pure-Z edges: output is Z-diagonal and XX/YY contribute 0;
    # anti-correlated edges should be cut, correlated ones uncut
    inst = Instance(
        n=3,
        edges=(Edge(0, 1, 1.0, 0, 0, 1), Edge(1, 2, 1.0, 0, 0, -1)),
    )
    sol = solve_moment_sdp(inst, SolverConfig(restarts=3))
    out = gw_axis_round(inst, sol, trials=100, seed=0)
    assert np.all(out.state.bloch[:, :2] == 0.0)
    assert out.energy == pytest.approx(4.0, abs=1e-9)  # both edges satisfied


def test_bfv_rank1_matches_axis_signs(rng):
    # same seed stream: projection rounding at r=1 must produce the same
    # sign pattern as hyperplane rounding
    inst = random_instance(rng, n=6, coeffs="family")
    inst = Instance(
        n=inst.n,
        edges=tuple(Edge(e.i, e.j, e.w, 0.0, 0.0, 1.0) for e in inst.edges),
    )
    sol = solve_moment_sdp(inst, SolverConfig(restarts=2))
    a = bfv_round(inst, sol, trials=40, seed=9)
    b = gw_axis_round(inst, sol, trials=40, seed=9)
    assert a.per_trial_energies == b.per_trial_energies
    assert np.array_equal(a.state.bloch, b.state.bloch)


def test_trials_deterministic_and_thread_invariant(rng):
    inst = random_instance(rng, n=5, coeffs="family")
    sol = solve_moment_sdp(inst, SolverConfig(restarts=2))
    for rounder in (bfv_round, gw_axis_round):
        o1 = rounder(inst, sol, trials=20, seed=7, threads=1)
        o2 = rounder(inst, sol, trials=20, seed=7, threads=4)
        assert o1.per_trial_energies == o2.per_trial_energies
        assert np.array_equal(o1.state.bloch, o2.state.bloch)


def test_five_cycle_f111_best_ratio():
    inst = Instance(
        n=5, edges=tuple(Edge(i, (i + 1) % 5, 1.0, 1, 1, 1) if i < 4 else Edge(0, 4, 1.0, 1, 1, 1) for i in range(5))
    )
    sol = solve_moment_sdp(inst)
    out = bfv_round(inst, sol, trials=200, seed=0)
    assert out.energy / sol.value >= 0.498


def test_triangle_f001_axis_hits_optimum():
    edges = tuple(Edge(i, j, 1.0, 0, 0, 1) for i in range(3) for j in range(i + 1, 3))
    inst = Instance(n=3, edges=edges)
    sol = solve_moment_sdp(inst)
    assert sol.value == pytest.approx(4.5, abs=1e-6)
    out = gw_axis_round(inst, sol, trials=200, seed=0)
    assert out.energy == pytest.approx(4.0, abs=1e-9)  # optimum reached
    mean_ratio = np.mean(out.per_trial_energies) / 4.5
    assert mean_ratio >= 0.878


# ------------------------------------------------- batched against one trial


def random_triads(n, rng):
    """A feasible relaxation point: one random orthonormal triad per qubit."""
    V = np.empty((n, 3, 3 * n))
    for i in range(n):
        Q, _ = np.linalg.qr(rng.standard_normal((3 * n, 3)))
        V[i] = Q.T
    return MomentSolution(vectors=V, value=0.0)


def edge_energy(inst, bloch):
    return inst.offset + sum(
        e.w * (1.0 - sum(c * bloch[e.i, k] * bloch[e.j, k] for k, c in enumerate(e.coeffs)))
        for e in inst.edges
    )


def axis_star(inst, sol):
    """The axis scheme's chosen axis, scored edge by edge; the lowest of near-ties wins."""
    scores = np.array([
        -sum(e.w * e.coeffs[a] * sol.vectors[e.i, a] @ sol.vectors[e.j, a] for e in inst.edges)
        for a in range(3)
    ])
    return int(np.flatnonzero(scores >= scores.max() - 1e-12 * abs(scores.max()))[0])


def one_trial_loop(inst, sol, scheme, trials, seed, skip_first=None):
    """Each trial on its own: its own stream, one projection, one energy.

    Trial `skip_first` throws its first draw away, as a redraw would.
    Returns the per-trial energies and Bloch vectors.
    """
    if scheme == "bfv":
        active = list(is_family_uniform(inst).active_axes)
        X = np.concatenate([sol.vectors[:, k, :] for k in active], axis=1)
        X /= np.sqrt(len(active))
        r = len(active)
    else:
        a_star = axis_star(inst, sol)
        X = sol.vectors[:, a_star, :]
        r = 1
    energies, blochs = [], []
    for t in range(trials):
        rng = rng_for(seed, DOMAIN_ROUNDING, t)
        if t == skip_first:
            rng.standard_normal((r, X.shape[1]))
        Y = rng.standard_normal((r, X.shape[1])) @ X.T
        bloch = np.zeros((inst.n, 3))
        if scheme == "bfv":
            bloch[:, active] = (Y / np.linalg.norm(Y, axis=0)).T
        else:
            bloch[:, a_star] = np.where(Y[0] < 0.0, -1.0, 1.0)
        energies.append(edge_energy(inst, bloch))
        blochs.append(bloch)
    return np.array(energies), blochs


ROUNDERS = {"bfv": bfv_round, "axis": gw_axis_round}


@pytest.fixture(scope="module")
def xy_loop():
    """An XY instance at n=24, a random feasible point, and the one-trial
    loop run one trial past each scheme's block size."""
    rng = np.random.default_rng(77)
    base = random_instance(rng, n=24, p=0.3)
    inst = Instance(n=24, edges=tuple(Edge(e.i, e.j, e.w, 1, 1, 0) for e in base.edges))
    sol = random_triads(24, rng)
    # a trial's draw is r x r*72 floats on r axes of 24 triads of width 72
    block = {"bfv": rounding._block_trials(2 * 2 * 72, inst.m), "axis": rounding._block_trials(72, inst.m)}
    loops = {s: one_trial_loop(inst, sol, s, block[s] + 1, seed=5) for s in ROUNDERS}
    return inst, sol, block, loops


@pytest.mark.parametrize("family", [(1, 1, 0), (1, 1, 1)])
@pytest.mark.parametrize("kind, params", [("cycle", {}), ("complete", {}), ("random_gnp", {"p": 0.3})])
def test_axis_ties_go_to_the_lowest_axis(kind, params, family):
    # on a uniform XY or XYZ instance the active axes share one relaxation
    # block, so their scores are equal in exact arithmetic and differ, if at
    # all, in the last bits; the axis scheme must round on axis 0
    for n in (6, 7, 9):
        for seed in (1, 2, 7):
            inst = generate(kind, seed=seed, n=n, family=family, weights="uniform", **params)
            sol = solve_moment_sdp(inst, SolverConfig(seed=seed))
            out = gw_axis_round(inst, sol, trials=4, seed=0)
            assert np.flatnonzero(out.state.bloch.any(axis=0)).tolist() == [0], (n, seed)


@pytest.mark.parametrize("scheme", ["bfv", "axis"])
@pytest.mark.parametrize("count", ["one", "block-1", "block", "block+1"])
def test_batched_matches_one_trial_loop(xy_loop, scheme, count):
    inst, sol, block, loops = xy_loop
    trials = {"one": 1, "block-1": -1, "block": 0, "block+1": 1}[count]
    if count != "one":
        trials += block[scheme]
    assert 1 < block[scheme] < 5000  # several blocks at n=24, none trivial
    out = ROUNDERS[scheme](inst, sol, trials=trials, seed=5)
    want, blochs = loops[scheme][0][:trials], loops[scheme][1]
    got = np.array(out.per_trial_energies)
    assert got.shape == (trials,)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    best = int(np.argmax(want))
    assert int(np.argmax(got)) == best
    assert np.allclose(out.state.bloch, blochs[best], rtol=0, atol=1e-12)


def test_equal_axis_patterns_score_bitwise_equal(monkeypatch):
    # blocks of 7 trials and a last block of 1 to 6: every sign pattern
    # recurs at many positions, and in blocks of every size
    rng = np.random.default_rng(3)
    inst = random_instance(rng, n=6, p=0.9)
    sol = random_triads(6, rng)
    monkeypatch.setattr(rounding, "_BLOCK_BYTES", 7 * 8 * max(3 * 6, 3 * inst.m))
    assert rounding._block_trials(18, inst.m) == 7
    longest = 7 * 40 + 6
    _, blochs = one_trial_loop(inst, sol, "axis", longest, seed=2)
    groups = {}
    for t, b in enumerate(blochs):
        signs = b.sum(axis=1)
        groups.setdefault(tuple(signs * signs[0]), []).append(t)  # B and -B score alike
    outs = [gw_axis_round(inst, sol, trials=7 * 40 + k, seed=2) for k in range(1, 7)]
    for out in outs:
        trials = out.trials_run
        for members in groups.values():
            values = {out.per_trial_energies[t] for t in members if t < trials}
            assert len(values) <= 1, members
        # a trial scores the same in a last block of any size
        assert out.per_trial_energies == outs[-1].per_trial_energies[:trials]
        # the first trial of the best pattern wins
        best = out.per_trial_energies.index(out.energy)
        assert np.array_equal(out.state.bloch, blochs[best])


@pytest.mark.parametrize("scheme", ["bfv", "axis"])
def test_zero_first_draw_redraws_from_own_stream(monkeypatch, scheme):
    rng = np.random.default_rng(8)
    base = random_instance(rng, n=6, p=0.6)
    inst = Instance(n=6, edges=tuple(Edge(e.i, e.j, e.w, 1, 1, 0) for e in base.edges))
    sol = random_triads(6, rng)
    real = rounding.trial_streams

    class FirstDrawZero:
        """at(index) of the real streams, with trial 3's first draw read as zero."""

        def __init__(self, at):
            self.at, self.first = at, True

        def __call__(self, index):
            self.gen = self.at(index)
            return self if index == 3 else self.gen

        def standard_normal(self, size, out=None):
            x = self.gen.standard_normal(size, out=out)
            if self.first:
                self.first = False
                x[...] = 0.0
            return x

    plain = ROUNDERS[scheme](inst, sol, trials=10, seed=1)
    monkeypatch.setattr(rounding, "trial_streams", lambda seed, domain: FirstDrawZero(real(seed, domain)))
    out = ROUNDERS[scheme](inst, sol, trials=10, seed=1)
    want, _ = one_trial_loop(inst, sol, scheme, 10, seed=1, skip_first=3)
    got = np.array(out.per_trial_energies)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert got[3] != plain.per_trial_energies[3]  # trial 3 used its second draw
    assert np.delete(got, 3).tolist() == np.delete(plain.per_trial_energies, 3).tolist()


@pytest.fixture(scope="module")
def expectation_inputs():
    """G(16, 0.4) with random weights in three families and with arbitrary
    coefficients, each with its solved relaxation."""
    rng = np.random.default_rng(16)
    inputs = {}
    for name, coeffs in (("xy", (1, 1, 0)), ("xyz", (1, 1, 1)), ("z", (0, 0, 1)), ("arbitrary", None)):
        inst = random_instance(rng, n=16, p=0.4)
        if coeffs is not None:
            inst = Instance(n=16, edges=tuple(Edge(e.i, e.j, e.w, *coeffs) for e in inst.edges))
        inputs[name] = (inst, solve_moment_sdp(inst))
    return inputs


@pytest.mark.parametrize(
    "scheme, name",
    [(s, f) for f in ("xy", "xyz", "z") for s in ("bfv", "axis")] + [("axis", "arbitrary")],
)
def test_trial_mean_matches_closed_form_expectation(expectation_inputs, scheme, name):
    # E = offset + sum_e w_e (1 - c_e F(r, <x_i, x_j>)), x_i qubit i's Gram
    # vectors on the rounded axes scaled to norm 1, c_e the edge's common
    # coefficient there: the rank-r projection expectation, at r = 1 the
    # Goemans-Williamson one
    inst, sol = expectation_inputs[name]
    if scheme == "bfv":
        axes = list(is_family_uniform(inst).active_axes)
    else:
        axes = [axis_star(inst, sol)]
    r = len(axes)
    expected = inst.offset
    for e in inst.edges:
        t = sum(sol.vectors[e.i, a] @ sol.vectors[e.j, a] for a in axes) / r
        # clipped: antiparallel Gram vectors can give t a few ulps below -1
        expected += e.w * (1.0 - e.coeffs[axes[0]] * bfv_expectation(r, min(1.0, max(-1.0, t))))
    trials = 20000
    out = ROUNDERS[scheme](inst, sol, trials=trials, seed=11)
    e = out.trial_energies
    z = (e.mean() - expected) / (e.std(ddof=1) / np.sqrt(trials))
    assert abs(z) <= 4.0, z


@pytest.mark.parametrize("family", [(1, 1, 0), (1, 1, 1), (0, 0, 1), (1, 0, 1)])
@pytest.mark.parametrize("scheme", ["bfv", "axis"])
def test_outcome_is_the_best_state_on_the_drawn_axes(family, scheme):
    # scored on r axes, the best trial's energy is its (n, 3) state's energy,
    # and the state is a unit vector on the drawn axes and zero off them
    rng = np.random.default_rng(21)
    base = random_instance(rng, n=8, p=0.5)
    inst = Instance(n=8, edges=tuple(Edge(e.i, e.j, e.w, *family) for e in base.edges))
    sol = random_triads(8, rng)
    axes = list(is_family_uniform(inst).active_axes) if scheme == "bfv" else [axis_star(inst, sol)]
    out = ROUNDERS[scheme](inst, sol, trials=60, seed=3)
    bloch = out.state.bloch
    assert out.energy == pytest.approx(product_energy(inst, out.state), rel=1e-12)
    assert np.all(np.delete(bloch, axes, axis=1) == 0.0)
    assert np.allclose(np.linalg.norm(bloch, axis=1), 1.0, rtol=0, atol=1e-12)


def test_infeasible_solution_refused():
    # qubit 1's vectors all zero: every projection of qubit 1 is zero, so
    # projection rounding would redraw forever
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 0),))
    V = antipodal_solution(2).vectors.copy()
    V[1] = 0.0
    sol = MomentSolution(vectors=V, value=0.0)
    for rounder in (bfv_round, gw_axis_round):
        with pytest.raises(ValueError, match="not feasible"):
            rounder(inst, sol, trials=10)


def test_non_finite_solution_refused():
    # a NaN vector gives the axis scheme NaN scores; it must still refuse the
    # point as infeasible rather than fail picking an axis
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 0),))
    V = antipodal_solution(2).vectors.copy()
    V[1, 0, 0] = np.nan
    sol = MomentSolution(vectors=V, value=0.0)
    for rounder in (bfv_round, gw_axis_round):
        with pytest.raises(ValueError, match="not feasible"):
            rounder(inst, sol, trials=10)


def test_per_trial_energies_held_as_one_array(rng):
    inst = random_instance(rng, n=5, p=0.8)
    out = gw_axis_round(inst, random_triads(5, rng), trials=40, seed=3)
    e = out.trial_energies
    assert e.dtype == np.float64 and e.shape == (40,)
    assert not e.flags.writeable
    assert isinstance(out.per_trial_energies, tuple)
    assert out.per_trial_energies == tuple(e.tolist())
