import tracemalloc

import numpy as np
import pytest

from conftest import dense_reference, product_density, random_instance

from heisopt import (
    Edge,
    FanoForm,
    Instance,
    ProductState,
    SingleQubitUnitary,
    adjoint_rotation,
    build_dense,
    fano_compose,
    fano_decompose,
    product_energy,
    product_state_vector,
    reduce_instance,
    su2_lift,
)
from heisopt import _kernels
from heisopt.pauli import SX, SY, SZ, DenseHermitian


def test_build_dense_matches_kron_reference(rng):
    from conftest import random_instance

    for _ in range(25):
        inst = random_instance(rng, n=int(rng.integers(2, 7)))
        H = build_dense(inst).entries
        R = dense_reference(inst)
        assert np.abs(H - R).max() < 1e-12


def test_build_dense_single_edge_f111():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 1),))
    H = build_dense(inst).entries
    vals = np.linalg.eigvalsh(H)
    assert vals[-1] == pytest.approx(4.0, abs=1e-12)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)


def test_build_dense_respects_offset():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 0, 0, 1),), offset=2.5)
    H = build_dense(inst).entries
    H0 = build_dense(Instance(n=2, edges=inst.edges)).entries
    assert np.allclose(H, H0 + 2.5 * np.eye(4))


def test_build_dense_size_limit():
    inst = Instance(n=15, edges=(Edge(0, 14, 1.0, 0, 0, 1),))
    with pytest.raises(ValueError):
        build_dense(inst)


def test_build_dense_holds_about_one_matrix(rng):
    # the Hermitian check must not add matrix-sized temporaries to the build
    from conftest import random_instance

    inst = random_instance(rng, n=10)
    tracemalloc.start()
    try:
        H = build_dense(inst).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * H.nbytes


def test_dense_hermitian_checks_every_row_block():
    H = np.eye(1024, dtype=complex)
    DenseHermitian(H)
    H[-1, -1] = 1 + 1e-9j  # only the last row block holds this entry
    with pytest.raises(ValueError, match="not Hermitian"):
        DenseHermitian(H)
    with pytest.raises(ValueError, match="power of two"):
        DenseHermitian(np.eye(3))


def test_product_energy_matches_density_trace(rng):
    from conftest import random_instance

    for _ in range(1000):
        inst = random_instance(rng, n=int(rng.integers(2, 6)))
        bloch = rng.standard_normal((inst.n, 3))
        bloch /= np.linalg.norm(bloch, axis=1)[:, None]
        ps = ProductState(bloch=bloch)
        H = build_dense(inst).entries
        want = float(np.real(np.trace(H @ product_density(bloch))))
        assert product_energy(inst, ps) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("axes", [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]])
def test_product_energy_kernel_on_axis_subsets(rng, axes):
    # components on `axes` score as the (n, 3) state that is zero off them
    inst = random_instance(rng, n=9)
    ei, ej, _, wc3 = inst.arrays()
    B = rng.standard_normal((6, inst.n, len(axes)))
    full = np.zeros((6, inst.n, 3))
    full[..., axes] = B
    want = _kernels.product_energy_kernel(full, ei, ej, wc3, inst.identity_coeff)
    got = _kernels.product_energy_kernel(B, ei, ej, wc3[:, axes], inst.identity_coeff)
    assert got.shape == (6,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    for k in range(6):
        one = _kernels.product_energy_kernel(B[k], ei, ej, wc3[:, axes], inst.identity_coeff)
        assert one == pytest.approx(want[k], rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_energy_kernel_with_no_edges_is_wsum(d):
    none = np.empty(0, dtype=np.int64)
    B = np.ones((4, 3, d))
    assert _kernels.product_energy_kernel(B, none, none, np.empty((0, d)), 2.5).tolist() == [2.5] * 4
    assert _kernels.product_energy_kernel(B[0], none, none, np.empty((0, d)), 2.5) == 2.5


def test_product_energy_mixed_states_allowed():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 1),))
    ps = ProductState(bloch=np.zeros((2, 3)))  # maximally mixed
    assert product_energy(inst, ps) == pytest.approx(1.0)


def test_product_state_vector_matches_density(rng):
    for _ in range(100):
        bloch = rng.standard_normal((3, 3))
        bloch /= np.linalg.norm(bloch, axis=1)[:, None]
        psi = product_state_vector(ProductState(bloch=bloch))
        rho = product_density(bloch)
        assert np.abs(np.outer(psi, psi.conj()) - rho).max() < 1e-12


def test_product_state_vector_requires_pure():
    with pytest.raises(ValueError):
        product_state_vector(ProductState(bloch=np.zeros((1, 3))))


def test_fano_round_trip(rng):
    for _ in range(200):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = (A + A.conj().T) / 2
        f = fano_decompose(H)
        back = fano_compose(f)
        assert np.abs(back - H).max() < 1e-12


def test_fano_decompose_heisenberg_term():
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 0.3, -0.4, 0.5),))
    f = fano_decompose(build_dense(inst).entries)
    assert f.kappa == pytest.approx(1.0)
    assert np.allclose(f.m, np.diag([-0.3, 0.4, -0.5]), atol=1e-12)
    assert np.allclose(f.r, 0) and np.allclose(f.s, 0)


def test_su2_lift_known_rotations():
    assert np.allclose(su2_lift(np.eye(3)).u, np.eye(2))
    # pi rotation about Z maps (x,y,z) -> (-x,-y,z); lift is i*Z up to sign
    u = su2_lift(np.diag([-1.0, -1.0, 1.0])).u
    assert np.allclose(u, 1j * SZ) or np.allclose(u, -1j * SZ)
    # x<->z, y->-y is a pi rotation about (x+z)/sqrt(2); lift ~ i*Hadamard
    O = np.array([[0.0, 0, 1], [0, -1, 0], [1, 0, 0]])
    u = su2_lift(O).u
    had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(u, 1j * had) or np.allclose(u, -1j * had)


def test_su2_lift_round_trip(rng):
    for _ in range(300):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        U = su2_lift(Q)
        back = adjoint_rotation(U)
        assert np.abs(back - Q).max() < 1e-9


def test_adjoint_rotation_conjugation(rng):
    # U sigma_a U^dag must equal sum_b O[b,a] sigma_b
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        U = su2_lift(Q)
        O = adjoint_rotation(U)
        for a, sig in enumerate((SX, SY, SZ)):
            lhs = U.u @ sig @ U.u.conj().T
            rhs = O[0, a] * SX + O[1, a] * SY + O[2, a] * SZ
            assert np.abs(lhs - rhs).max() < 1e-9


def test_single_qubit_unitary_validation():
    with pytest.raises(ValueError):
        SingleQubitUnitary(u=np.array([[1.0, 1.0], [0.0, 1.0]]))  # not unitary
    with pytest.raises(ValueError):
        SingleQubitUnitary(u=1j * np.eye(2))  # det -1, not special


def test_reduce_instance_diagonal_family_is_identity():
    inst = Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 0), Edge(1, 2, 2.0, 1, 1, 0)))
    red, U, mode = reduce_instance(inst)
    assert mode == "projection"
    assert np.allclose(U.u, np.eye(2))
    assert red.edges == inst.edges
    assert red.offset == inst.offset


def test_reduce_instance_preserves_spectrum(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        M = rng.uniform(-1, 1, (3, 3))
        M = (M + M.T) / 2
        term = fano_compose(FanoForm(kappa=float(rng.uniform(-1, 2)), m=M, r=np.zeros(3), s=np.zeros(3)))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < 0.6
        if not keep.any():
            keep[0] = True
        edges = tuple(
            Edge(i, j, float(rng.uniform(0.2, 1.0)), 0, 0, 0)
            for (i, j), k in zip(pairs, keep)
            if k
        )
        inst = Instance(n=n, edges=edges)
        red, U, mode = reduce_instance(inst, term=term)

        dim = 2**n
        Horig = np.zeros((dim, dim), dtype=complex)
        # expand term onto qubits (i, j) with identities elsewhere; the row
        # index of the 4x4 splits as (row_i, row_j)
        T = term.reshape(2, 2, 2, 2)
        for e in edges:
            for r0, r1, c0, c1 in np.ndindex(2, 2, 2, 2):
                opsm = [np.eye(2, dtype=complex)] * n
                E0 = np.zeros((2, 2), dtype=complex)
                E0[r0, c0] = 1
                E1 = np.zeros((2, 2), dtype=complex)
                E1[r1, c1] = 1
                opsm[e.i] = E0
                opsm[e.j] = E1
                acc = np.array([[1.0 + 0j]])
                for op in opsm:
                    acc = np.kron(acc, op)
                Horig += e.w * T[r0, r1, c0, c1] * acc
        Hred = build_dense(red).entries
        ev0 = np.linalg.eigvalsh(Horig)
        ev1 = np.linalg.eigvalsh(Hred)
        assert np.abs(ev0 - ev1).max() < 1e-8


def test_reduce_instance_rejects_local_fields():
    term = fano_compose(
        FanoForm(kappa=0.0, m=np.zeros((3, 3)), r=np.array([1.0, 0, 0]), s=np.zeros(3))
    )
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 0, 0, 0),))
    with pytest.raises(ValueError):
        reduce_instance(inst, term=term)


def test_reduce_instance_rejects_asymmetric_correlation():
    M = np.array([[0.0, 0.8, 0], [-0.8, 0, 0], [0, 0, 0.1]])
    term = fano_compose(FanoForm(kappa=0.0, m=M, r=np.zeros(3), s=np.zeros(3)))
    inst = Instance(n=2, edges=(Edge(0, 1, 1.0, 0, 0, 0),))
    with pytest.raises(ValueError):
        reduce_instance(inst, term=term)


_TWO = Instance(n=2, edges=(Edge(0, 1, 1.0, 1, 1, 0),))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: DenseHermitian(np.zeros((2, 4))), "expected a square matrix"),
        (lambda: ProductState(np.zeros((2, 2))), r"expected shape \(n, 3\)"),
        (lambda: ProductState([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), "norm <= 1"),
        # a NaN norm compares False with every bound; inf is above it
        (lambda: ProductState(np.full((2, 3), np.nan)), "finite with norm <= 1"),
        (lambda: ProductState([[0.0, np.nan, 0.0], [0.0, 0.0, 1.0]]), "finite with norm <= 1"),
        (lambda: ProductState([[np.inf, 0.0, 0.0], [0.0, 0.0, 1.0]]), "finite with norm <= 1"),
        (lambda: product_energy(_TWO, ProductState(np.zeros((3, 3)))), "state has 3 qubits, instance has 2"),
        (lambda: fano_decompose(np.eye(2)), "expected a 4x4 matrix"),
        (lambda: fano_decompose(np.triu(np.ones((4, 4)))), "not Hermitian within 1e-9"),
        (lambda: SingleQubitUnitary(np.eye(3)), "expected 2x2"),
        (lambda: su2_lift(2.0 * np.eye(3)), "not orthogonal"),
        (lambda: su2_lift(-np.eye(3)), r"not special orthogonal \(det != 1\)"),
        (lambda: reduce_instance(Instance(n=2, edges=())), "no edges to reduce"),
        (
            lambda: reduce_instance(Instance(n=3, edges=(Edge(0, 1, 1.0, 1, 1, 1), Edge(1, 2, 1.0, 1, 1, 0)))),
            "different coefficient triples",
        ),
    ],
)
def test_pauli_refusals_name_their_fault(call, match):
    with pytest.raises(ValueError, match=match):
        call()
