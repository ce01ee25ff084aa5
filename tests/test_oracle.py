import numpy as np
import pytest

from conftest import dense_reference, random_instance

from heisopt import (
    Edge,
    Instance,
    OracleLimitError,
    best_product_state,
    edge_opt,
    edge_opt_prod,
    exact_max_eigenvalue,
    product_energy,
)
from heisopt import _backend, _kernels, oracle


def test_known_single_edge_values():
    f111 = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 1),))
    assert exact_max_eigenvalue(f111).lambda_max == pytest.approx(4.0, abs=1e-12)
    f001 = Instance(n=2, edges=(Edge(0, 1, 1.0, 0, 0, 1),))
    assert exact_max_eigenvalue(f001).lambda_max == pytest.approx(2.0, abs=1e-12)
    f110 = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 0),))
    assert exact_max_eigenvalue(f110).lambda_max == pytest.approx(3.0, abs=1e-12)
    # a negative offset puts lambda_max below zero
    shifted = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 1),), offset=-10.0)
    assert exact_max_eigenvalue(shifted).lambda_max == pytest.approx(-6.0, abs=1e-12)


def test_triangle_f001_is_twice_max_cut():
    edges = tuple(Edge(i, j, 1.0, 0, 0, 1) for i in range(3) for j in range(i + 1, 3))
    inst = Instance(n=3, edges=edges)
    res = exact_max_eigenvalue(inst)
    assert res.lambda_max == pytest.approx(4.0, abs=1e-12)  # max cut 2
    assert res.residual == 0.0  # diagonal fast path is exact


def test_matches_kron_reference(rng):
    for coeffs in ("arbitrary",) * 30 + ("zz",) * 10:
        inst = random_instance(rng, n=int(rng.integers(2, 10)), coeffs=coeffs)
        res = exact_max_eigenvalue(inst)
        want = float(np.linalg.eigvalsh(dense_reference(inst))[-1])
        assert res.lambda_max == pytest.approx(want, abs=1e-10)
        if coeffs == "zz":
            assert res.method == "diagonal"


def test_residual_certificate(rng):
    for _ in range(20):
        inst = random_instance(rng, n=int(rng.integers(2, 8)))
        res = exact_max_eigenvalue(inst)
        assert res.residual < 1e-8 * (1.0 + abs(res.lambda_max))


def test_size_limits():
    big = Instance(n=21, edges=(Edge(0, 20, 1.0, 1, 1, 1),))
    with pytest.raises(OracleLimitError):
        exact_max_eigenvalue(big)
    mid = Instance(n=15, edges=(Edge(0, 14, 1.0, 1, 1, 1),))
    res = exact_max_eigenvalue(mid)
    assert res.method == "lanczos"
    assert res.lambda_max == pytest.approx(4.0, abs=1e-6)


def test_lanczos_on_disjoint_mixed_edges_at_16_qubits(rng):
    # disjoint edges commute, so lambda_max is the sum of the edges' maxima
    edges, want = [], 0.0
    for e in range(8):
        w = float(rng.uniform(0.1, 1.0))
        a, b, g = (float(x) for x in rng.uniform(-1, 1, 3))
        edges.append(Edge(2 * e, 2 * e + 1, w, a, b, g))
        want += w * (1.0 + edge_opt(-a, -b, -g))
    res = exact_max_eigenvalue(Instance(n=16, edges=tuple(edges)))
    assert res.method == "lanczos"
    assert res.lambda_max == pytest.approx(want, abs=1e-9)


def test_diagonal_fast_path_larger_than_dense_limit():
    # pure-Z instance at n=16 takes the diagonal scan and stays exact
    edges = tuple(Edge(i, i + 1, 0.625, 0, 0, 1) for i in range(15))
    inst = Instance(n=16, edges=edges)
    res = exact_max_eigenvalue(inst)
    assert res.method == "diagonal"
    assert res.residual == 0.0
    assert res.lambda_max == pytest.approx(2 * 0.625 * 15, abs=1e-12)  # path is bipartite


def test_zero_weight_flip_edge_takes_diagonal_route():
    # the route follows the operator: an XX or YY edge of weight 0 adds no
    # flip term, so the Hamiltonian is still diagonal
    zz = tuple(Edge(i, i + 1, 0.625, 0, 0, 1) for i in range(9))
    inst = Instance(n=10, edges=zz + (Edge(0, 9, 0.0, 1, 0, 0), Edge(2, 5, 0.0, 0.5, -1, 0)))
    res = exact_max_eigenvalue(inst)
    assert res.method == "diagonal"
    assert res.lambda_max == exact_max_eigenvalue(Instance(n=10, edges=zz)).lambda_max


def _matvec(inst, psi):
    ei, ej, _, wc3 = inst.arrays()
    diag = _kernels.zz_diagonal(inst.n, ei, ej, -wc3[:, 2], inst.identity_coeff)
    out = np.empty_like(psi)
    _kernels.apply_edges(psi, out, diag, _kernels.flip_table(inst.n, ei, ej, wc3))
    return out


@pytest.mark.parametrize(
    "n, pairs",
    [
        (2, [(0, 1)]),  # the smallest state: every pair-view axis but 1 and 3 has size 1
        (6, [(0, 1), (2, 3), (4, 5)]),  # adjacent qubits: the middle axis has size 1
        (6, [(0, 5)]),  # the outermost pair: the first and last axes have size 1
        (7, [(1, 4), (1, 4), (0, 6), (2, 3), (5, 6)]),  # a parallel edge
        (8, [(i, j) for i in range(8) for j in range(i + 1, 8)]),  # every pair
    ],
)
def test_apply_edges_matches_kron_reference(monkeypatch, rng, n, pairs):
    # coefficients cycle through general edges, ZZ-only edges and edges
    # without a ZZ term
    kinds = [(None, None, None), (0.0, 0.0, None), (None, None, 0.0)]
    edges = []
    for e, (i, j) in enumerate(pairs):
        a, b, g = (float(x) if k is None else k for k, x in zip(kinds[e % 3], rng.uniform(-1, 1, 3)))
        edges.append(Edge(i, j, float(rng.uniform(0.1, 1.0)), a, b, g))
    inst = Instance(n=n, edges=tuple(edges), offset=-0.375)
    H = dense_reference(inst)
    assert np.abs(H.imag).max() == 0.0
    # the default chunk holds every row here; budgets for 4 rows and 1 row
    # make the later chunks XOR their columns
    for budget in (_kernels._FLIP_CHUNK_BYTES, 16 * len(pairs) * 4, 1):
        monkeypatch.setattr(_kernels, "_FLIP_CHUNK_BYTES", budget)
        for _ in range(3):
            psi = rng.standard_normal(1 << n)
            want = H.real @ psi
            assert np.abs(_matvec(inst, psi) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def _zz_cases():
    rng = np.random.default_rng(25)
    yield Instance(n=1, edges=())
    yield Instance(n=2, edges=(Edge(0, 1, 0.75, 0, 0, -1),), offset=0.5)
    for n in (3, 6, 10):
        # a parallel edge, the outermost pair and a zero ZZ weight ride on
        # random ZZ edges
        edges = list(random_instance(rng, n=n, coeffs="zz", p=0.4).edges)
        edges += [edges[0], Edge(0, n - 1, float(rng.uniform(0.1, 1.0)), 0, 0, -0.5), Edge(1, 2, 0.0, 0, 0, 1)]
        yield Instance(n=n, edges=tuple(edges), offset=-1.25)


@pytest.mark.parametrize("inst", list(_zz_cases()), ids=lambda inst: f"n{inst.n}m{inst.m}")
def test_zz_diagonal_matches_kron_reference_and_is_palindromic(inst):
    ei, ej, _, wc3 = inst.arrays()
    d = _kernels.zz_diagonal(inst.n, ei, ej, -wc3[:, 2], inst.identity_coeff)
    want = np.diag(dense_reference(inst)).real
    assert np.abs(d - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    # flipping every qubit leaves each ZZ term unchanged, bit for bit
    assert np.array_equal(d, d[::-1])


def test_diag_extreme_matches_dense_diagonal(rng):
    for _ in range(20):
        inst = random_instance(rng, n=int(rng.integers(2, 10)), coeffs="zz")
        ei, ej, _, wc3 = inst.arrays()
        best, arg = _kernels.diag_extreme(inst.n, ei, ej, -wc3[:, 2], inst.identity_coeff)
        dense = np.diag(dense_reference(inst)).real
        top = np.flatnonzero(dense >= dense.max() - 1e-12)
        assert best == pytest.approx(dense.max(), abs=1e-12)
        # flipping every qubit leaves a ZZ energy unchanged, so the maximum is
        # attained at least twice; both scans return its first basis state
        assert top.size >= 2
        assert arg == top[0]


def test_lanczos_refuses_before_allocating(monkeypatch):
    inst = Instance(n=12, edges=(Edge(0, 11, 1.0, 1, 1, 1),))
    calls = []
    monkeypatch.setattr(_backend, "available_bytes", lambda: 1 << 20)
    monkeypatch.setattr(_kernels, "apply_edges", lambda *args: calls.append(1))
    with pytest.raises(OracleLimitError) as err:
        exact_max_eigenvalue(inst)
    # 60 basis vectors, 4 more and one flip-table row of 2^12 doubles
    assert str(65 * 8 * 4096) in str(err.value) and str(1 << 20) in str(err.value)
    assert calls == []
    # the diagonal route holds one vector and is not refused
    zz = Instance(n=12, edges=(Edge(0, 11, 1.0, 0, 0, 1),))
    assert exact_max_eigenvalue(zz).method == "diagonal"


def _mixed_gnp(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = tuple(
        Edge(i, j, float(rng.uniform(0.1, 1.0)), *(float(x) for x in rng.uniform(-1, 1, 3)))
        for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    return Instance(n, edges)


def _counted_lanczos(monkeypatch, inst):
    calls = []
    apply_edges = _kernels.apply_edges
    monkeypatch.setattr(_kernels, "apply_edges", lambda *args: calls.append(1) or apply_edges(*args))
    res = exact_max_eigenvalue(inst)
    monkeypatch.setattr(_kernels, "apply_edges", apply_edges)
    assert res.method == "lanczos"
    assert res.residual <= oracle._TOL * (1.0 + abs(res.lambda_max))
    want = float(np.linalg.eigvalsh(dense_reference(inst))[-1])
    assert res.lambda_max == pytest.approx(want, abs=1e-9)
    return res, len(calls)


def test_lanczos_stops_on_its_ritz_residual(monkeypatch):
    # filling the basis before every test took two bases of 60 vectors plus
    # one matvec each, 122 matvecs, on this instance
    _, calls = _counted_lanczos(monkeypatch, _mixed_gnp(10, 0.5, 1))
    assert calls < 122


def test_lanczos_accepts_only_a_true_residual(monkeypatch):
    # an estimate that always passes: every check forms a Ritz vector, whose
    # true residual fails until the run has converged
    inst = _mixed_gnp(10, 0.5, 1)
    _, calls = _counted_lanczos(monkeypatch, inst)
    monkeypatch.setattr(oracle, "_ESTIMATE_MARGIN", np.inf)
    _, eager = _counted_lanczos(monkeypatch, inst)
    # each rejected Ritz vector cost one matvec
    assert eager > calls


def test_available_bytes_reads_meminfo():
    avail = _backend.available_bytes()
    assert avail is None or avail > 0


def test_best_product_single_edges(rng):
    f111 = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 1),))
    assert best_product_state(f111).energy == pytest.approx(2.0, abs=1e-9)
    f110 = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 0),))
    assert best_product_state(f110).energy == pytest.approx(2.0, abs=1e-9)
    f001 = Instance(n=2, edges=(Edge(0, 1, 1.0, 0, 0, 1),))
    assert best_product_state(f001).energy == pytest.approx(2.0, abs=1e-9)


def test_best_product_never_exceeds_lambda_max(rng):
    for _ in range(40):
        inst = random_instance(rng, n=int(rng.integers(2, 9)))
        lam = exact_max_eigenvalue(inst).lambda_max
        ps = best_product_state(inst, restarts=10)
        assert ps.energy <= lam + 1e-8


def test_best_product_tight_on_z_instances(rng):
    # for pure-Z (diagonal) instances the optimum is a basis state, which is
    # a product state, so the search must reach lambda_max
    for _ in range(15):
        n = int(rng.integers(2, 8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < 0.5
        if not keep.any():
            keep[0] = True
        edges = tuple(
            Edge(i, j, float(rng.uniform(0.1, 1)), 0, 0, 1)
            for (i, j), k in zip(pairs, keep)
            if k
        )
        inst = Instance(n=n, edges=edges)
        lam = exact_max_eigenvalue(inst).lambda_max
        ps = best_product_state(inst)
        assert ps.energy == pytest.approx(lam, abs=1e-8)


def test_best_product_energy_is_consistent(rng):
    for _ in range(20):
        inst = random_instance(rng)
        ps = best_product_state(inst, restarts=5)
        assert ps.energy == pytest.approx(product_energy(inst, ps.state), abs=1e-10)
        norms = np.linalg.norm(ps.state.bloch, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)


def test_best_product_matches_closed_form(rng):
    for k in range(300):
        a, b, g = (float(x) for x in rng.uniform(-1, 1, 3))
        inst = Instance(n=2, edges=(Edge(0, 1, 1.0, -a, -b, -g),))
        found = best_product_state(inst, restarts=8, seed=k).energy - 1.0
        closed = edge_opt_prod(a, b, g)
        assert found <= closed + 1e-9
        assert abs(found - closed) < 1e-6


def test_restarts_deterministic():
    inst = Instance(n=4, edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(2, 3, 1.0, 1, 1, 1)))
    a = best_product_state(inst, restarts=7, seed=3)
    b = best_product_state(inst, restarts=7, seed=3)
    assert a.energy == b.energy
    assert np.array_equal(a.state.bloch, b.state.bloch)
    assert a.restarts_used == 7
