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


def sdp_sweeps(V, nptr, nother, fac, ei, ej, wc3, wsum, max_sweeps, tol):
    n = V.shape[0]
    obj = sdp_objective_kernel(V, ei, ej, wc3, wsum)
    sweeps = 0
    last_rel = np.inf
    converged = False
    monotone = True
    while sweeps < max_sweeps:
        for i in range(n):
            sl = slice(nptr[i], nptr[i + 1])
            others = nother[sl]
            if others.shape[0] == 0:
                continue
            C = np.einsum("pk,pkd->dk", fac[sl], V[others])
            if not C.any():
                continue
            Q, R = np.linalg.qr(C)
            U3, _, Vt3 = np.linalg.svd(R)
            V[i] = (Q @ (U3 @ Vt3)).T
        new = sdp_objective_kernel(V, ei, ej, wc3, wsum)
        sweeps += 1
        if new < obj - 1e-8 * (1.0 + abs(obj)):
            monotone = False
        last_rel = (new - obj) / max(1.0, abs(new))
        obj = new
        if last_rel < tol:
            converged = True
            break
    return obj, sweeps, last_rel, converged, monotone


# ------------------------------------------------------ Bloch coordinate ascent
#
# Energy is linear in each Bloch vector with the others fixed, so the block
# optimum is the normalized coefficient vector.


def ascent_sweeps(B, nptr, nother, fac, ei, ej, wc3, wsum, max_sweeps, tol):
    n = B.shape[0]
    energy = product_energy_kernel(B, ei, ej, wc3, wsum)
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        for i in range(n):
            sl = slice(nptr[i], nptr[i + 1])
            others = nother[sl]
            if others.shape[0] == 0:
                continue
            c = np.einsum("pk,pk->k", fac[sl], B[others])
            nc = np.sqrt(c @ c)
            if nc > 0.0:
                B[i] = c / nc
        new = product_energy_kernel(B, ei, ej, wc3, wsum)
        sweeps += 1
        gain = new - energy
        energy = new
        if gain < tol:
            converged = True
            break
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
