"""Hot numerical kernels, vectorized with numpy.

The block coordinate ascents loop in Python over greedy colour classes, not
over qubits: a class is an independent set, so one batched update of all its
qubits is an exact block maximization.

Shared array conventions:
  V    (n, 3, 3n) float64, V[i, k] is the Gram vector of Pauli axis k on qubit i
  B    (n, 3) float64 Bloch vectors; product_energy_kernel also takes a leading
       trial axis, B (b, n, 3)
  wc3  (m, 3) float64, wc3[e, k] = w_e * coeff_k(e)   (coeff = alpha, beta, gamma)
  fac  (2m, 3) float64 incidence factors, fac[p, k] = -w_e * coeff_k(e) for the
       edge behind incidence slot p (see instance.incidence)
  nptr (n+1,) int64 / nother (2m,) int64  CSR-style incidence lists
  A    (3, n, n) float64 dense coupling, A[k, i, j] = sum of fac[p, k] over the
       incidence slots p of qubit i whose other endpoint is j (colour_classes)

The two ascents take a leading restart axis instead: V (R, n, 3, 3n) and
B (R, n, 3), updated in place. All restarts sweep in lock-step; each stops on
its own rule and is frozen from then on. They take A and its colour classes
from colour_classes and evaluate their objective as
wsum + 1/2 sum_k <W_k, A_k W_k>, one matmul.
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
# in every still-active restart come out of one matmul with the class's rows
# of the dense coupling A.


def colour_classes(nptr, nother, fac):
    """Coupling A (3, n, n) and greedy colour classes [(I, A[:, I])].

    A[k, i, j] sums -w_e * coeff_k(e) over the edges e between i and j
    (parallel edges add up). Qubits with an edge are coloured in index
    order, each with the smallest colour none of its neighbours holds, so
    the classes are deterministic; I lists a class's qubits in index order.
    """
    n = nptr.shape[0] - 1
    deg = np.diff(nptr)
    flat = np.repeat(np.arange(n) * n, deg) + nother
    A = np.stack([np.bincount(flat, fac[:, k], n * n) for k in range(3)]).reshape(3, n, n)
    colour = np.full(n, -1)
    for i in np.flatnonzero(deg):
        taken = set(colour[nother[nptr[i] : nptr[i + 1]]].tolist())
        c = 0
        while c in taken:
            c += 1
        colour[i] = c
    classes = [np.flatnonzero(colour == c) for c in range(colour.max() + 1)]
    return A, [(I, np.ascontiguousarray(A[:, I])) for I in classes]


# ------------------------------------------------------- SDP coordinate ascent
#
# Block update for qubit i: maximize tr(Vi^T C) over 3n x 3 orthonormal frames
# Vi, with C the coupling matrix of its neighbours' vectors. Solved by thin
# QR of C followed by SVD of the 3x3 R factor (orthogonal Procrustes).
#
# Both ascents run every restart in lock-step: one class update covers every
# member of the class in every still-active restart with one matmul (and,
# for the relaxation, one stacked QR and one stacked SVD). After each sweep
# every restart applies its own stop rule; a stopped restart is written back
# and frozen, and later sweeps run on the remaining ones only.


def sdp_sweeps(V, A, classes, wsum, max_sweeps, tol):
    """Ascend every restart of V (R, n, 3, 3n) in place.

    Returns per-restart arrays (obj, sweeps, last_rel, converged, monotone).
    The sweeps work on a copy in (R, 3, n, 3n) layout, so that the couplings
    of a class on axis k are the matmul A[k, I] @ W[:, k].
    """
    R = V.shape[0]

    def objectives(W):
        return wsum + 0.5 * np.einsum("rknd,rknd->r", W, A @ W)

    W = V.transpose(0, 2, 1, 3).copy()
    obj = objectives(W)
    sweeps = np.zeros(R, dtype=np.int64)
    last_rel = np.full(R, np.inf)
    converged = np.zeros(R, dtype=bool)
    monotone = np.ones(R, dtype=bool)
    act = np.arange(R)
    while act.size:
        for I, AI in classes:
            # couplings (R, |I|, 3n, 3); QR of a zero matrix has R factor 0
            Q, Rf = np.linalg.qr((AI @ W).transpose(0, 2, 3, 1))
            U3, _, Vt3 = np.linalg.svd(Rf)
            T = (Q @ (U3 @ Vt3)).transpose(0, 1, 3, 2)  # new triads (R, |I|, 3, 3n)
            live = Rf.any(axis=(2, 3))
            if live.all():
                W[:, :, I] = T.transpose(0, 2, 1, 3)
            else:
                # a (restart, qubit) pair with a zero coupling keeps its triad
                r, q = np.nonzero(live)
                W[r, :, I[q]] = T[r, q]
        new = objectives(W)
        old = obj[act]
        sweeps[act] += 1
        monotone[act[new < old - 1e-8 * (1.0 + np.abs(old))]] = False
        rel = (new - old) / np.maximum(1.0, np.abs(new))
        last_rel[act] = rel
        obj[act] = new
        done = rel < tol
        converged[act[done]] = True
        stop = done | (sweeps[act] >= max_sweeps)
        if stop.any():
            V[act[stop]] = W[stop].transpose(0, 2, 1, 3)
            act, W = act[~stop], W[~stop]
    return obj, sweeps, last_rel, converged, monotone


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
    """Upper bound on the relaxation optimum, from any feasible V (n, 3, 3n)."""
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
    return wsum + float(np.einsum("ikk->", Lam)) + 3 * n * max(0.0, -mu)


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
