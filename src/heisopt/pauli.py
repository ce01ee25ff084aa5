"""Pauli algebra: dense Hamiltonians, product-state energies, Fano forms,
SU(2) lifts of rotations, and the one-sided local-unitary reduction.

Computational-basis convention everywhere: qubit i occupies bit (n-1-i) of
the basis index (qubit 0 is the leftmost tensor factor), and bit value 0 is
the Z = +1 eigenstate. With it, every edge term

    w * (I - alpha XX - beta YY - gamma ZZ)

is a real symmetric matrix (Y x Y has real entries).

build_dense writes out the oracle's matrix-free operator
(_kernels.zz_diagonal and flip_table) into a 2^n x 2^n matrix, so one module
says how an edge becomes matrix entries. Every two-qubit Pauli expansion
(Fano forms, the reduction's shared term) contracts one table,
_PAULI2[a, b] = sigma_a x sigma_b with sigma_0 = I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import instance as _inst
from ._kernels import flip_table, product_energy_kernel, zz_diagonal

__all__ = [
    "I2",
    "SX",
    "SY",
    "SZ",
    "PAULIS",
    "DenseHermitian",
    "ProductState",
    "FanoForm",
    "SingleQubitUnitary",
    "build_dense",
    "product_energy",
    "product_state_vector",
    "fano_decompose",
    "fano_compose",
    "su2_lift",
    "adjoint_rotation",
    "reduce_instance",
]

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)

_SIGMA = np.stack((I2, SX, SY, SZ))
# _PAULI2[a, b] = kron(_SIGMA[a], _SIGMA[b])
_PAULI2 = np.einsum("aij,bkl->abikjl", _SIGMA, _SIGMA).reshape(4, 4, 4, 4)

# largest n build_dense accepts: its 2^n x 2^n complex matrix is 4 GiB at 14
DENSE_LIMIT = 14


@dataclass(frozen=True, eq=False)
class DenseHermitian:
    """A 2^n x 2^n Hermitian matrix."""

    entries: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", H)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {H.shape}")
        d = H.shape[0]
        if d & (d - 1) or d == 0:
            raise ValueError(f"dimension {d} is not a power of two")
        # row blocks of about 1 MiB, so the check adds no matrix-sized temporaries
        step = max(1, (1 << 16) // d)
        for a in range(0, d, step):
            if np.abs(H[a : a + step] - H[:, a : a + step].conj().T).max() > 1e-12:
                raise ValueError("matrix is not Hermitian within 1e-12")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class ProductState:
    """One Bloch vector per qubit; pure iff every norm is 1."""

    bloch: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(np.atleast_2d(np.asarray(self.bloch, dtype=float)))
        object.__setattr__(self, "bloch", b)
        if b.ndim != 2 or b.shape[1] != 3:
            raise ValueError(f"expected shape (n, 3), got {b.shape}")
        norms = np.linalg.norm(b, axis=1)
        if norms.max(initial=0.0) > 1 + 1e-9:
            raise ValueError("Bloch vectors must have norm <= 1")

    @property
    def n(self) -> int:
        return self.bloch.shape[0]

    def is_pure(self) -> bool:
        return bool(np.abs(np.linalg.norm(self.bloch, axis=1) - 1.0).max() <= 1e-9)


def build_dense(inst: _inst.Instance) -> DenseHermitian:
    """Full 2^n matrix of the instance Hamiltonian (offset included), n <= DENSE_LIMIT."""
    if inst.n > DENSE_LIMIT:
        raise ValueError(f"n={inst.n} exceeds the dense-size guard {DENSE_LIMIT}")
    n = inst.n
    ei, ej, _, wc3 = inst.arrays()
    s = np.arange(1 << n)
    H = np.zeros((s.size, s.size), dtype=complex)
    H[s, s] = zz_diagonal(n, ei, ej, -wc3[:, 2], inst.identity_coeff)
    cols, vals = flip_table(n, ei, ej, wc3)
    for mask, val in zip(cols[:, 0].tolist(), vals):
        H[s, s ^ mask] += val
    return DenseHermitian(H)


def product_energy(inst: _inst.Instance, ps: ProductState) -> float:
    """sum_e w*(1 - alpha r_i1 r_j1 - beta r_i2 r_j2 - gamma r_i3 r_j3) + offset.

    Equals tr(H rho_prod) for the product state with these Bloch vectors.
    """
    if ps.n != inst.n:
        raise ValueError(f"state has {ps.n} qubits, instance has {inst.n}")
    ei, ej, _, wc3 = inst.arrays()
    return float(product_energy_kernel(ps.bloch, ei, ej, wc3, inst.identity_coeff))


def product_state_vector(ps: ProductState) -> np.ndarray:
    """State vector of a pure product state (qubit 0 leftmost)."""
    if not ps.is_pure():
        raise ValueError("state vector is defined for pure states only")
    psi = np.ones(1, dtype=complex)
    for x, y, z in ps.bloch:
        theta = np.arccos(np.clip(z, -1.0, 1.0))
        phi = np.arctan2(y, x) if (x != 0.0 or y != 0.0) else 0.0
        q = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        psi = np.kron(psi, q)
    return psi


# -------------------------------------------------------------------- Fano form


@dataclass(frozen=True, eq=False)
class FanoForm:
    """Pauli-basis coefficients of a two-qubit Hermitian term.

    Reconstruction: kappa*I + sum_ab m[a,b] sigma_a x sigma_b
    + sum_a r[a] sigma_a x I + sum_b s[b] I x sigma_b.
    """

    kappa: float
    m: np.ndarray
    r: np.ndarray
    s: np.ndarray


def _as_4x4(H) -> np.ndarray:
    A = np.asarray(getattr(H, "entries", H), dtype=complex)
    if A.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {A.shape}")
    if np.abs(A - A.conj().T).max() > 1e-9:
        raise ValueError("matrix is not Hermitian within 1e-9")
    return A


def fano_decompose(H4) -> FanoForm:
    """Normalized Pauli-basis overlaps of a 4x4 Hermitian matrix."""
    c = np.einsum("abij,ji->ab", _PAULI2, _as_4x4(H4)).real / 4
    return FanoForm(float(c[0, 0]), c[1:, 1:], c[1:, 0], c[0, 1:])


def fano_compose(f: FanoForm) -> np.ndarray:
    c = np.empty((4, 4))
    c[0, 0], c[1:, 0], c[0, 1:], c[1:, 1:] = f.kappa, f.r, f.s, f.m
    return np.einsum("ab,abij->ij", c, _PAULI2)


# ------------------------------------------------------------------ SU(2) lift


@dataclass(frozen=True, eq=False)
class SingleQubitUnitary:
    """2x2 special unitary."""

    u: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.u, dtype=complex)
        object.__setattr__(self, "u", U)
        if U.shape != (2, 2):
            raise ValueError(f"expected 2x2, got {U.shape}")
        if np.abs(U.conj().T @ U - np.eye(2)).max() > 1e-12:
            raise ValueError("not unitary within 1e-12")
        if abs(np.linalg.det(U) - 1) > 1e-12:
            raise ValueError("determinant differs from 1 beyond 1e-12")


def su2_lift(O) -> SingleQubitUnitary:
    """SU(2) element U with U sigma_a U^dag = sum_b O[b,a] sigma_b.

    Axis-angle extraction: angle from the trace, axis from the antisymmetric
    part, with the near-pi angle recovered from the symmetric part instead.
    The global sign is canonicalized so the largest-magnitude entry has
    positive real part (positive imaginary part when its real part vanishes).
    """
    O = np.asarray(O, dtype=float)
    if O.shape != (3, 3) or np.abs(O.T @ O - np.eye(3)).max() > 1e-9:
        raise ValueError("not orthogonal within 1e-9")
    if abs(np.linalg.det(O) - 1) > 1e-9:
        raise ValueError("not special orthogonal (det != 1)")
    theta = np.arccos(np.clip((O.trace() - 1) / 2, -1.0, 1.0))
    if theta < 1e-8:
        U = np.eye(2, dtype=complex)
    else:
        if np.pi - theta < 1e-4:
            # (O + I)/2 = n n^T at angle pi; read the axis off its biggest column
            K = (O + np.eye(3)) / 2
            col = int(np.argmax(np.diag(K)))
            axis = K[:, col] / np.sqrt(K[col, col])
        else:
            axis = np.array(
                [O[2, 1] - O[1, 2], O[0, 2] - O[2, 0], O[1, 0] - O[0, 1]]
            ) / (2 * np.sin(theta))
        axis = axis / np.linalg.norm(axis)
        ns = axis[0] * SX + axis[1] * SY + axis[2] * SZ
        U = np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * ns
    v = U.flat[int(np.argmax(np.abs(U)))]
    if (abs(v.real) > 1e-12 and v.real < 0) or (abs(v.real) <= 1e-12 and v.imag < 0):
        U = -U
    return SingleQubitUnitary(U)


def adjoint_rotation(u: SingleQubitUnitary) -> np.ndarray:
    """The SO(3) matrix O with U sigma_a U^dag = sum_b O[b,a] sigma_b."""
    U = np.asarray(getattr(u, "u", u), dtype=complex)
    # O[b, a] = tr(sigma_b U sigma_a U^dag) / 2
    return np.einsum("bij,jk,akl,il->ba", _SIGMA[1:], U, _SIGMA[1:], U.conj()).real / 2


# ---------------------------------------------------------- unitary reduction


def reduce_instance(inst: _inst.Instance, term=None):
    """Diagonalize the shared edge term by one local unitary applied everywhere.

    The correlation matrix M is taken in the Heisenberg convention
    (term = kappa*I - sum_ab M[a,b] sigma_a x sigma_b); it must be symmetric
    and the term must have no single-qubit components. Returns
    (reduced Instance, U, mode): the reduced edges carry the eigenvalues of M
    (rescaled into [-1,1] with the scale pushed into weights), conjugating
    every qubit by U maps the original Hamiltonian onto the reduced one, and
    the identity mismatch sum_e w*(kappa - scale) is folded into the reduced
    instance's offset so the two spectra are identical. mode is "projection"
    when the eigenvalues are all 0/1 within 1e-9, else "symmetric".

    term: optional shared 4x4 Hermitian edge term. Default None builds it
    from the instance's own coefficients, which must then be identical on
    every edge. An explicit term supersedes the per-edge coefficients
    (needed for correlation matrices that are not diagonal, which the edge
    data model cannot express); topology and weights still come from inst.
    """
    if not inst.edges:
        raise ValueError("instance has no edges to reduce")
    if term is None:
        shared = inst.edges[0].coeffs
        if any(e.coeffs != shared for e in inst.edges):
            raise ValueError("edges carry different coefficient triples")
        term = fano_compose(FanoForm(1.0, -np.diag(shared), np.zeros(3), np.zeros(3)))
    f = fano_decompose(term)
    if max(np.abs(f.r).max(), np.abs(f.s).max()) > 1e-9:
        raise ValueError("term has single-qubit components (r or s nonzero)")
    M = -f.m
    if np.abs(M - M.T).max() > 1e-9:
        raise ValueError("asymmetric correlation matrix")
    M = (M + M.T) / 2
    off_diag = np.abs(M - np.diag(np.diag(M))).max()
    if off_diag < 1e-12:
        # already diagonal: keep the axis layout so such instances pass through
        O = np.eye(3)
        d = np.diag(M).copy()
    else:
        vals, vecs = np.linalg.eigh(M)
        d = vals[::-1].copy()
        O = vecs[:, ::-1].copy()
        if np.linalg.det(O) < 0:
            O[:, 2] = -O[:, 2]
    scale = max(1.0, float(np.abs(d).max()))
    coeffs = np.clip(d / scale, -1.0, 1.0) + 0.0  # drop negative zeros
    edges = tuple(
        _inst.Edge(e.i, e.j, e.w * scale, float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))
        for e in inst.edges
    )
    wsum = sum(e.w for e in inst.edges)
    reduced = _inst.Instance(
        inst.n, edges, label=inst.label, offset=inst.offset + wsum * (f.kappa - scale)
    )
    mode = "projection" if np.minimum(np.abs(d), np.abs(d - 1)).max() < 1e-9 else "symmetric"
    return reduced, su2_lift(O.T), mode
