"""Hot numerical kernels, vectorized with numpy.

Sequential recurrences (block coordinate ascent, the 2F1 series) keep their
loop in Python.

Shared array conventions:
  V    (n, 3, 3n) float64, V[i, k] is the Gram vector of Pauli axis k on qubit i
  B    (n, 3) float64 Bloch vectors
  wc3  (m, 3) float64, wc3[e, k] = w_e * coeff_k(e)   (coeff = alpha, beta, gamma)
  fac  (2m, 3) float64 incidence factors, fac[p, k] = -w_e * coeff_k(e) for the
       edge behind incidence slot p (see instance.incidence)
  nptr (n+1,) int64 / nother (2m,) int64  CSR-style incidence lists

The two ascents take a leading restart axis instead: V (R, n, 3, 3n) and
B (R, n, 3), updated in place. All restarts sweep in lock-step; each stops on
its own rule and is frozen from then on.
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
    if ei.shape[0] == 0:
        return wsum
    return wsum - np.einsum("ek,ek->", wc3, B[ei] * B[ej])


# ------------------------------------------------------- SDP coordinate ascent
#
# Block update for qubit i: maximize tr(Vi^T C) over 3n x 3 orthonormal frames
# Vi, with C the coupling matrix gathered from the neighbors. Solved by thin
# QR of C followed by SVD of the 3x3 R factor (orthogonal Procrustes).
#
# Both ascents run every restart in lock-step: one pass over the qubits
# updates qubit i of all still-active restarts with one einsum (and, for the
# relaxation, one stacked QR and one stacked SVD). After each sweep every
# restart applies its own stop rule; a stopped restart is written back and
# frozen, and later sweeps run on the remaining ones only.


def _neighbourhoods(nptr, nother, fac):
    """(i, neighbour indices, incidence factors) for every qubit with an edge."""
    return [
        (i, nother[nptr[i] : nptr[i + 1]], fac[nptr[i] : nptr[i + 1]])
        for i in range(nptr.shape[0] - 1)
        if nptr[i + 1] > nptr[i]
    ]


def sdp_sweeps(V, nptr, nother, fac, ei, ej, wc3, wsum, max_sweeps, tol):
    """Ascend every restart of V (R, n, 3, 3n) in place.

    Returns per-restart arrays (obj, sweeps, last_rel, converged, monotone).
    The objective is evaluated restart by restart into two reused (m, 3, 3n)
    gather buffers: gathering V[:, ei] at once would hold an (R, m, 3, 3n)
    temporary, and fresh buffers per call cost more than the arithmetic.
    """
    R = V.shape[0]
    nbrs = _neighbourhoods(nptr, nother, fac)
    gi = np.empty((ei.shape[0],) + V.shape[2:])
    gj = np.empty_like(gi)
    wflat = wc3.ravel()

    def objectives(W):
        out = np.empty(W.shape[0])
        for r in range(W.shape[0]):
            # mode="clip" lets take write into out= without an extra buffer
            np.take(W[r], ei, axis=0, out=gi, mode="clip")
            np.take(W[r], ej, axis=0, out=gj, mode="clip")
            out[r] = wsum - wflat @ np.einsum("ekd,ekd->ek", gi, gj).ravel()
        return out

    obj = objectives(V)
    sweeps = np.zeros(R, dtype=np.int64)
    last_rel = np.full(R, np.inf)
    converged = np.zeros(R, dtype=bool)
    monotone = np.ones(R, dtype=bool)
    act = np.arange(R)
    W = V.copy()
    while act.size:
        for i, others, f in nbrs:
            C = np.einsum("pk,rpkd->rdk", f, W[:, others])
            # a zero coupling leaves that restart's triad as it is
            live = C.any(axis=(1, 2))
            sel = slice(None) if live.all() else live
            Q, Rf = np.linalg.qr(C[sel])
            U3, _, Vt3 = np.linalg.svd(Rf)
            W[sel, i] = (Q @ (U3 @ Vt3)).transpose(0, 2, 1)
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
            V[act[stop]] = W[stop]
            act, W = act[~stop], W[~stop]
    return obj, sweeps, last_rel, converged, monotone


# ------------------------------------------------------ Bloch coordinate ascent
#
# Energy is linear in each Bloch vector with the others fixed, so the block
# optimum is the normalized coefficient vector.


def ascent_sweeps(B, nptr, nother, fac, ei, ej, wc3, wsum, max_sweeps, tol):
    """Ascend every restart of B (R, n, 3) in place.

    Returns per-restart arrays (energy, sweeps, converged).
    """
    R = B.shape[0]
    nbrs = _neighbourhoods(nptr, nother, fac)

    def energies(W):
        return wsum - np.einsum("ek,rek->r", wc3, W[:, ei] * W[:, ej])

    energy = energies(B)
    sweeps = np.zeros(R, dtype=np.int64)
    converged = np.zeros(R, dtype=bool)
    act = np.arange(R)
    W = B.copy()
    while act.size:
        for i, others, f in nbrs:
            c = np.einsum("pk,rpk->rk", f, W[:, others])
            nc = np.sqrt(np.einsum("rk,rk->r", c, c))
            live = nc > 0.0
            sel = slice(None) if live.all() else live
            W[sel, i] = c[sel] / nc[sel, None]
        new = energies(W)
        gain = new - energy[act]
        sweeps[act] += 1
        energy[act] = new
        done = gain < tol
        converged[act[done]] = True
        stop = done | (sweeps[act] >= max_sweeps)
        if stop.any():
            B[act[stop]] = W[stop]
            act, W = act[~stop], W[~stop]
    return energy, sweeps, converged


# ------------------------------------------------------------ 2F1 half series
#
# 2F1(1/2,1/2;c;z) via the term recurrence T_{k+1} = T_k (k+1/2)^2 z /
# ((k+c)(k+1)), Kahan-compensated. The term ratio is < z, so the tail after
# T_k is bounded by T_k z/(1-z); the caller special-cases z = 1.


def hyp_series(c, z, tol, cap):
    s = 1.0
    comp = 0.0
    term = 1.0
    k = 0
    bound = 0.0
    if z <= 0.0:
        return s, bound, k
    while k < cap:
        term *= (k + 0.5) * (k + 0.5) * z / ((k + c) * (k + 1.0))
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        k += 1
        bound = term * z / (1.0 - z)
        if bound <= tol * max(1.0, abs(s)):
            break
    return s, bound, k


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
