import numpy as np
import pytest

from heisopt import edge_opt, edge_opt_prod, edge_opt_states, product_ratio_bound
from heisopt.pauli import SX, SY, SZ

XX = np.kron(SX, SX)
YY = np.kron(SY, SY)
ZZ = np.kron(SZ, SZ)


def lemma_matrix(a, b, g):
    return a * XX + b * YY + g * ZZ


def test_edge_opt_matches_dense(rng):
    for _ in range(1000):
        a, b, g = (float(x) for x in rng.uniform(-1, 1, 3))
        lam = float(np.linalg.eigvalsh(lemma_matrix(a, b, g))[-1])
        assert abs(edge_opt(a, b, g) - lam) < 1e-9


def test_edge_opt_prod_matches_bloch_search(rng):
    # max over product states of tr(M rho1 x rho2) for M = aXX+bYY+gZZ, that
    # is max sum_a M_a u_a v_a over unit Bloch vectors u, v: alternate the
    # optimal u for fixed v and the optimal v for fixed u, from 20 random
    # starts per triple, all triples and starts at once. A start whose
    # update has norm 0 stops there.
    triples, restarts = 1000, 20
    M = rng.uniform(-1, 1, (triples, 1, 3))
    u = rng.standard_normal((triples, restarts, 3))
    v = rng.standard_normal((triples, restarts, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    live = np.ones((triples, restarts, 1), dtype=bool)
    for _ in range(200):
        # energy = sum_a M_a u_a v_a; optimal u given v is sign-matched
        c = M * v
        nu = np.linalg.norm(c, axis=-1, keepdims=True)
        live &= nu != 0
        u = np.where(live, c / np.where(live, nu, 1.0), u)
        c = M * u
        nv = np.linalg.norm(c, axis=-1, keepdims=True)
        live &= nv != 0
        v = np.where(live, c / np.where(live, nv, 1.0), v)
    found = np.sum(M * u * v, axis=-1).max(axis=1)
    closed = np.array([edge_opt_prod(*(float(x) for x in m)) for m in M[:, 0]])
    exceed = int(np.sum(found > closed + 1e-9))
    off = int(np.sum(np.abs(found - closed) > 1e-6))
    assert exceed == 0
    assert off <= 10  # restart-limited search may miss in <= 1% of cases


def test_known_family_values():
    assert edge_opt(1, 1, 1) == pytest.approx(1.0)  # Psi+ gives a+b-g, Phis give 1
    assert edge_opt(0, 0, 1) == pytest.approx(1.0)
    assert edge_opt(1, 1, 0) == pytest.approx(2.0)
    assert edge_opt_prod(1, 1, 1) == pytest.approx(1.0)
    assert edge_opt_prod(0.3, -0.7, 0.5) == pytest.approx(0.7)


def test_product_ratio_bound_family_values():
    # Bound for the edge term I - aXX - bYY - gZZ: 2/(1+r) on {0,1} tags.
    assert product_ratio_bound(0, 0, 1) == pytest.approx(1.0)
    assert product_ratio_bound(1, 1, 0) == pytest.approx(2.0 / 3.0)
    assert product_ratio_bound(1, 1, 1) == pytest.approx(0.5)


def test_product_ratio_bound_interval(rng):
    for _ in range(500):
        a, b, g = (float(x) for x in rng.uniform(-1, 1, 3))
        bound = product_ratio_bound(a, b, g)
        assert 0.0 < bound <= 1.0 + 1e-12


def test_edge_opt_states_achieve_closed_forms(rng):
    for _ in range(1000):
        a, b, g = (float(x) for x in rng.uniform(-1, 1, 3))
        res = edge_opt_states(a, b, g)
        M = lemma_matrix(a, b, g)

        psi = np.asarray(res.achieving_entangled, dtype=complex)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        val = float(np.real(psi.conj() @ M @ psi))
        assert abs(val - res.opt) < 1e-12

        q1, q2 = (np.asarray(q, dtype=complex) for q in res.achieving_product)
        phi = np.kron(q1, q2)
        phi /= np.linalg.norm(phi)
        val_p = float(np.real(phi.conj() @ M @ phi))
        assert abs(val_p - res.opt_prod) < 1e-12


def test_edge_opt_states_reports_consistent_values(rng):
    for _ in range(200):
        a, b, g = (float(x) for x in rng.uniform(-1, 1, 3))
        res = edge_opt_states(a, b, g)
        assert res.opt == pytest.approx(edge_opt(a, b, g), abs=1e-15)
        assert res.opt_prod == pytest.approx(edge_opt_prod(a, b, g), abs=1e-15)
        assert res.ratio_bound == pytest.approx(product_ratio_bound(a, b, g), abs=1e-15)
