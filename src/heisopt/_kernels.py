"""Hot numerical kernels, vectorized with numpy.

The block coordinate ascents loop in Python over greedy colour classes, not
over qubits: a class is an independent set, so one batched update of all its
qubits is an exact block maximization.

Shared array conventions:
  V    (n, 3, 3n) float64, V[i, k] is the Gram vector of Pauli axis k on qubit i
  B    (n, 3) float64 Bloch vectors; product_energy_kernel also takes a leading
       trial axis, B (b, n, 3)
  ei, ej (m,) int64 edge endpoints, ei < ej; wc3 (m, 3) float64,
       wc3[e, k] = w_e * coeff_k(e)   (coeff = alpha, beta, gamma);
       the edge table of instance.Instance.arrays
  A    (3, n, n) float64 dense coupling, A[k, i, j] = A[k, j, i] = sum of
       -wc3[e, k] over the edges e between i and j (colour_classes)

Both ascents update in place and take A and its colour classes from
Instance.incidence, which calls colour_classes. The relaxation ascends one
V and stops on its dual gap (sdp_dual_bound). The product search takes a
leading restart axis, B (R, n, 3): its restarts sweep in lock-step, each
stops once a sweep gains less than tol and is frozen from then on; its
energy is wsum + 1/2 sum_k <W_k, A_k W_k>, one matmul.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- objectives


def sdp_objective_kernel(V, ei, ej, wc3, wsum):
    """sum_e w*(1 - alpha<v_i1,v_j1> - beta<v_i2,v_j2> - gamma<v_i3,v_j3>)."""
    if ei.shape[0] == 0:
        return wsum
    return wsum - np.einsum("ek,ekd,ekd->", wc3, V[ei], V[ej])


def product_energy_kernel(B, ei, ej, wc3, wsum):
    """Energy of Bloch vectors B (..., n, 3): one value per leading index.

    Each state's edge terms are summed as one contiguous row, so a state's
    energy does not depend on where it sits in a batch or on the batch size.
    """
    lead = B.shape[:-2]
    if ei.shape[0] == 0:
        return np.full(lead, wsum)
    # gather scalars from the flattened (..., 3n) rows: faster than gathering
    # (n, 3) rows, and the product comes out C-contiguous, (..., 3m)
    F = B.reshape(lead + (-1,))
    k = np.arange(3)
    P = np.take(F, (3 * ei[:, None] + k).ravel(), axis=-1)
    P *= np.take(F, (3 * ej[:, None] + k).ravel(), axis=-1)
    P *= wc3.ravel()
    return wsum - P.sum(axis=-1)


# ------------------------------------------------------------ colour classes
#
# Qubits that share no edge do not see each other's block, so updating a whole
# independent set at once is still an exact block maximization. Both ascents
# sweep over greedy colour classes; per class, the couplings of every member
# (in every still-active restart, for the product search) come out of one
# matmul with the class's rows of the dense coupling A.


def colour_classes(n, ei, ej, wc3):
    """Coupling A (3, n, n) and greedy colour classes [(I, A[:, I])].

    A[k, i, j] sums -w_e * coeff_k(e) over the edges e between i and j
    (parallel edges add up, in edge order). Qubits with an edge, of any
    weight, are coloured in index order, each with the smallest colour none
    of its neighbours holds, so the classes are deterministic; I lists a
    class's qubits in index order.
    """
    flat = np.concatenate([ei * n + ej, ej * n + ei])
    weights = -np.concatenate([wc3, wc3])
    A = np.stack([np.bincount(flat, weights[:, k], n * n) for k in range(3)]).reshape(3, n, n)
    adj = np.zeros((n, n), dtype=bool)
    adj[ei, ej] = adj[ej, ei] = True
    colour = np.full(n, -1)
    for i in np.flatnonzero(adj.any(axis=1)):
        taken = set(colour[adj[i]].tolist())
        c = 0
        while c in taken:
            c += 1
        colour[i] = c
    classes = [np.flatnonzero(colour == c) for c in range(colour.max() + 1)]
    return A, [(I, np.ascontiguousarray(A[:, I])) for I in classes]


# ------------------------------------------------------- SDP coordinate ascent
#
# Block update for qubit i: maximize tr(Vi^T C) over 3n x 3 orthonormal frames
# Vi, with C the coupling matrix of its neighbours' vectors. Solved by the
# thin SVD C = U S W^T: Vi = U W^T (orthogonal Procrustes). U is orthonormal
# even where C is rank-deficient.
#
# One class update covers every member of the class with one matmul and one
# stacked SVD. The ascent stops on its own certificate: every BOUND_EVERY
# sweeps, and at max_sweeps, it evaluates sdp_dual_bound and stops once the
# relative gap is at most gap_tol.

BOUND_EVERY = 10


def sdp_sweeps(V, A, classes, wsum, max_sweeps, gap_tol):
    """Ascend V (n, 3, 3n) in place until its dual gap closes or max_sweeps.

    The gap is (bound - value) / max(1, |value|). Returns (value, bound,
    sweeps, converged, monotone) at the final V; monotone is False if a bound
    evaluation saw the value fall. The sweeps work on a copy in (3, n, 3n)
    layout, so that the couplings of a class on axis k are the matmul
    A[k, I] @ W[k].
    """
    W = V.transpose(1, 0, 2).copy()
    value = -np.inf
    monotone = True
    sweeps = 0
    while True:
        for I, AI in classes:
            # couplings (|I|, 3n, 3); a zero matrix has singular values 0
            U, sv, Vt = np.linalg.svd((AI @ W).transpose(1, 2, 0), full_matrices=False)
            T = (U @ Vt).transpose(2, 0, 1)  # new triads (3, |I|, 3n)
            live = sv.any(axis=1)
            if live.all():
                W[:, I] = T
            else:
                # a qubit with a zero coupling keeps its triad
                W[:, I[live]] = T[:, live]
        sweeps += 1
        if sweeps % BOUND_EVERY and sweeps < max_sweeps:
            continue
        new, bound = sdp_dual_bound(W.transpose(1, 0, 2), A, wsum)
        monotone &= new >= value - 1e-8 * (1.0 + abs(value))
        value = new
        converged = (bound - value) / max(1.0, abs(value)) <= gap_tol
        if converged or sweeps >= max_sweeps:
            V[:] = W.transpose(1, 0, 2)
            return value, bound, sweeps, converged, monotone


# ------------------------------------------------------------- SDP dual bound
#
# With C the 3n x 3n coupling, C[(i,k),(j,k)] = A[k, i, j] / 2, the relaxation
# is max wsum + <C, X> over PSD X whose 3x3 diagonal blocks are I. For any
# symmetric 3x3 blocks Lambda_i and S = blkdiag(Lambda) - C, every such X has
# <C, X> = sum_i tr Lambda_i - <S, X> <= sum_i tr Lambda_i + 3n max(0, -lambda_min(S)),
# since tr X = 3n. Lambda_i = sym((C V)_i V_i^T) makes sum_i tr Lambda_i the
# objective at V, so the bound meets the objective at an optimum (Boumal,
# Voroninski & Bandeira 2016, arXiv:1606.04970).


def sdp_dual_bound(V, A, wsum):
    """(value, bound) at a feasible V (n, 3, 3n); bound caps the relaxation optimum."""
    n = V.shape[0]
    CV = 0.5 * (A @ V.transpose(1, 0, 2))  # (3, n, 3n): row (i, k) at [k, i]
    M = np.einsum("kid,ild->ikl", CV, V)
    Lam = 0.5 * (M + M.transpose(0, 2, 1))
    S = np.zeros((n, 3, n, 3))
    for k in range(3):
        S[:, k, :, k] = -0.5 * A[k]
    q = np.arange(n)
    S[q, :, q, :] += Lam
    mu = float(np.linalg.eigvalsh(S.reshape(3 * n, 3 * n))[0])
    value = wsum + float(np.einsum("ikk->", Lam))
    return value, value + 3 * n * max(0.0, -mu)


# ------------------------------------------------------ Bloch coordinate ascent
#
# Energy is linear in each Bloch vector with the others fixed, so the block
# optimum is the normalized coefficient vector.


def ascent_sweeps(B, A, classes, wsum, max_sweeps, tol):
    """Ascend every restart of B (R, n, 3) in place.

    Returns per-restart arrays (energy, sweeps, converged). The sweeps work
    on a copy in (3, n, R) layout, so that the local fields of a class on
    axis k are one matmul A[k, I] @ W[k] for all restarts.
    """
    R = B.shape[0]

    def energies(W):
        return wsum + 0.5 * np.einsum("knr,knr->r", W, A @ W)

    W = B.transpose(2, 1, 0).copy()
    energy = energies(W)
    sweeps = np.zeros(R, dtype=np.int64)
    converged = np.zeros(R, dtype=bool)
    act = np.arange(R)
    while act.size:
        for I, AI in classes:
            c = AI @ W  # (3, |I|, R)
            nc = np.sqrt(np.einsum("kir,kir->ir", c, c))
            live = nc > 0.0
            if live.all():
                W[:, I] = c / nc
            else:
                # a (qubit, restart) pair with a zero field keeps its vector
                q, r = np.nonzero(live)
                W[:, I[q], r] = c[:, q, r] / nc[q, r]
        new = energies(W)
        gain = new - energy[act]
        sweeps[act] += 1
        energy[act] = new
        done = gain < tol
        converged[act[done]] = True
        stop = done | (sweeps[act] >= max_sweeps)
        if stop.any():
            B[act[stop]] = W[:, :, stop].transpose(2, 1, 0)
            act, W = act[~stop], W[:, :, ~stop]
    return energy, sweeps, converged


# ---------------------------------------------------- matrix-free Hamiltonian
#
# Computational-basis convention: qubit i sits at bit (n-1-i); bit 0 means
# Z eigenvalue +1. XX flips both bits, YY flips with sign -(-1)^(bi+bj),
# ZZ is diagonal, so the whole operator is real.


def apply_edges(psi, out, mi, mj, wc3, ident):
    size = psi.shape[0]
    s = np.arange(size, dtype=np.int64)
    np.multiply(ident, psi, out=out)
    for e in range(mi.shape[0]):
        ma = int(mi[e])
        mb = int(mj[e])
        fxx = -wc3[e, 0]
        fyy = -wc3[e, 1]
        fzz = -wc3[e, 2]
        zz = np.where(((s & ma) == 0) == ((s & mb) == 0), 1.0, -1.0)
        if fzz != 0.0:
            out += fzz * zz * psi
        if fxx != 0.0 or fyy != 0.0:
            out[s ^ (ma | mb)] += (fxx - fyy * zz) * psi


# ------------------------------------------------------- diagonal extreme scan
#
# For instances with alpha = beta = 0 the Hamiltonian is diagonal; the
# maximum over basis states is exact (residual 0).


def diag_extreme(size, mi, mj, wz, base):
    s = np.arange(size, dtype=np.int64)
    val = np.full(size, base)
    for e in range(mi.shape[0]):
        zz = np.where(((s & int(mi[e])) == 0) == ((s & int(mj[e])) == 0), 1.0, -1.0)
        val += wz[e] * zz
    arg = int(np.argmax(val))
    return float(val[arg]), arg
