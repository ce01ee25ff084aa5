"""Hot numerical kernels, vectorized with numpy.

The block coordinate ascents loop in Python over greedy colour classes, not
over qubits: a class is an independent set, so one batched update of all its
qubits is the same as updating them one by one.

Shared array conventions:
  U    (K, n, p) float64, the relaxation's state, updated in place: U[k, i]
       is qubit i's unit row in block k, one block per distinct nonzero
       axis coupling, at rank p
  W    (3, n, R) float64, the product search's state, updated in place:
       W[:, i, r] is restart r's Bloch vector for qubit i
  B    (..., n, d) float64 Bloch components on d axes, product_energy_kernel's
       input: d = 3 for a whole state, or the r axes a rounding scheme draws
  ei, ej (m,) int64 edge endpoints, ei < ej; wc3 (m, 3) float64,
       wc3[e, k] = w_e * coeff_k(e)   (coeff = alpha, beta, gamma);
       the edge table of instance.Instance.arrays
  wc   (m, d) float64 edge columns of B's axes, wc3[:, axes]
  A    (K, n, n) float64 dense coupling of K axes (colour_classes): the
       relaxation's K blocks, or all three axes for the product search;
       A[b, i, j] = A[b, j, i] = sum of -wc3[e, axes[b]] over edges (i, j)

The couplings of a class I are one matmul, A[:, I] @ U or A[:, I] @ W, and
one sweep driver (ascend) runs both ascents on one schedule; each caller
owns its stop rule: the relaxation its dual gap (rank_bound), the product
search the gain of its restarts' energies between checks.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- objectives


def product_energy_kernel(B, ei, ej, wc, wsum):
    """Energy of Bloch components B (..., n, d) on edge columns wc (m, d): one value per leading index.

    Axes left out of B and wc add nothing: a state that is zero off them
    scores the same as on all three. Each state's edge terms are summed as
    one contiguous row, so a state's energy does not depend on where it sits
    in a batch or on the batch size.
    """
    lead, d = B.shape[:-2], B.shape[-1]
    # gather scalars from the flattened (..., dn) rows: faster than gathering
    # (n, d) rows, and the product comes out C-contiguous, (..., dm)
    F = B.reshape(lead + (-1,))
    k = np.arange(d)
    P = np.take(F, (d * ei[:, None] + k).ravel(), axis=-1)
    P *= np.take(F, (d * ej[:, None] + k).ravel(), axis=-1)
    P *= wc.ravel()
    return wsum - P.sum(axis=-1)


# ------------------------------------------------------------ colour classes
#
# Qubits that share no edge do not see each other's block, so updating a whole
# independent set at once is the same as updating its qubits one by one. Both
# ascents sweep over greedy colour classes; per class, the couplings of every
# member (in every restart, for the product search) come out of one matmul
# with the class's rows of the dense coupling A.


def colour_classes(n, ei, ej, wc):
    """Coupling A (K, n, n) of edge columns wc (m, K), and greedy colour classes [(I, A[:, I])].

    A[k, i, j] sums -wc[e, k] over the edges e between i and j (parallel
    edges add up, in edge order). Qubits with an edge, of any weight, are
    coloured in index order, each with the smallest colour none of its
    neighbours holds, so the classes are deterministic and do not depend on
    wc; I lists a class's qubits in index order.
    """
    K = wc.shape[1]
    flat = np.concatenate([ei * n + ej, ej * n + ei])
    # one bincount: column k fills bins k n^2 .. (k + 1) n^2 - 1, each in edge order
    bins = (np.arange(K)[:, None] * (n * n) + flat).ravel()
    # an empty bincount is int64 whatever its weights; A is float64 in every case
    A = np.bincount(bins, -np.concatenate([wc, wc]).T.ravel(), K * n * n).astype(float, copy=False)
    A = A.reshape(K, n, n)
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


# One class update of either ascent (the mixing method's block step; Wang,
# Chang & Kolter 2017, arXiv:1706.00476). A qubit whose coupling is zero (in
# one restart of the search, or one block of the relaxation) keeps its vector.
#
# Over-relaxed, the step moves past the block optimum c^ = c / |c|: u <-
# normalise((1 + theta) c^ - theta u), the over-relaxation of Heisenberg-spin
# sweeps (Creutz 1987, Phys. Rev. D 36, 515), computed as normalise(c - beta u)
# with beta = theta |c| / (1 + theta). It is still an ascent for 0 <= theta <
# 1: with w = (1 + theta) c^ - theta u and u' = w / |w|, c^ = (|w| u' + theta
# u) / (1 + theta), so c^.u' - c^.u = (|w| - theta)(1 - u.u') / (1 + theta) >=
# 0, as |w| >= (1 + theta) - theta = 1 > theta. A class is an independent set,
# so each member's term |c| c^.u rises on its own. A zero coupling gives c -
# beta u = 0, and its vector stays.


def set_normalised(W, I, c, axis, theta):
    """W[:, I] = c, over-relaxed by theta against W[:, I], scaled to unit norm along `axis`.

    A zero c keeps W's value. c, a fresh coupling from the class's matmul,
    is overwritten.
    """
    nc = np.add.reduce(c * c, axis=axis, keepdims=True)
    np.sqrt(nc, out=nc)
    if theta:
        nc *= theta / (1.0 + theta)
        c -= nc * W[:, I]
        nc = np.add.reduce(c * c, axis=axis, keepdims=True)
        np.sqrt(nc, out=nc)
    if np.minimum.reduce(nc, axis=None, initial=np.inf) > 0.0:
        c /= nc
        W[:, I] = c
    else:
        W[:, I] = np.where(nc > 0.0, c / np.where(nc > 0.0, nc, 1.0), W[:, I])


# ----------------------------------------------------------- the sweep driver
#
# Both ascents are block coordinate ascents over the colour classes. The
# relaxation is one Max-Cut-type SDP per distinct coupling A_k: maximize
# 1/2 <A_k, Y> over PSD Y with unit diagonal, Y = U U^T for unit rows U (n, p).
# With the other rows fixed the objective is linear in row i, so the block
# optimum is the normalized coupling row (A_k U)_i; all K blocks of U (K, n,
# p) sweep in lock-step. The product search's energy is linear in each Bloch
# vector the same way, so its block optimum is the normalized field, taken
# over the axes instead of over the columns, every restart of W at once.
#
# ascend runs both on one schedule. Its sweeps step past the block optimum,
# over-relaxed by OVER_RELAX, which shortens the slow linear tail of the
# plain ascent several-fold; every BOUND_EVERY-th sweep, and the one at
# MAX_SWEEPS, is the plain block optimum, and the caller checks its stop rule
# after it, at a point one exact sweep has settled. That plain sweep also
# lets ZZ-only couplings, whose plain ascent lands on +-1 Bloch vectors in a
# few sweeps, stop at the second check rather than keep moving.
#
# The relaxation's check is its dual bound per block: lam_i = 1/2 u_i .
# (A_k U)_i makes sum(lam) the block's objective, and S_k = diag(lam) - A_k /
# 2 gives every feasible Y
# 1/2 <A_k, Y> = sum(lam) - <S_k, Y> <= sum(lam) + n max(0, -lambda_min(S_k)),
# since tr Y = n. The bound meets the objective at an optimum (Boumal,
# Voroninski & Bandeira 2016, arXiv:1606.04970).

BOUND_EVERY = 10
# theta of every sweep that ends at no check; 0 <= OVER_RELAX < 1
OVER_RELAX = 0.65
# the sweep cap of both ascents
MAX_SWEEPS = 10000


def ascend(X, classes, axis):
    """Ascend X in place on classes [(I, A[:, I])]; yield the sweep count after each plain sweep.

    X is the relaxation's U (K, n, p), normalised along axis 2, or the
    search's W (3, n, R), along axis 0. The plain sweeps are every
    BOUND_EVERY-th and the last, at MAX_SWEEPS; the caller checks its stop
    rule at each yield and stops iterating once it holds.
    """
    for sweeps in range(1, MAX_SWEEPS + 1):
        plain = sweeps % BOUND_EVERY == 0 or sweeps == MAX_SWEEPS
        theta = 0.0 if plain else OVER_RELAX
        for I, AI in classes:
            set_normalised(X, I, AI @ X, axis, theta)
        if plain:
            yield sweeps


def rank_bound(U, A, mult, wsum):
    """(value, bound) at unit rows U (K, n, p); block k counts mult[k] times."""
    n = U.shape[1]
    lam = 0.5 * np.einsum("kip,kip->ki", U, A @ U)
    S = lam[:, :, None] * np.eye(n) - 0.5 * A
    shift = n * np.maximum(0.0, -np.linalg.eigvalsh(S)[:, 0])
    blocks = lam.sum(axis=1)
    return wsum + float(mult @ blocks), wsum + float(mult @ (blocks + shift))


# ---------------------------------------------------- matrix-free Hamiltonian
#
# Computational-basis convention: qubit i sits at bit (n-1-i); bit 0 means
# Z eigenvalue +1. The operator is real. A state of 2^n amplitudes reshaped
# to pair_shape(n, i, j), (2^i, 2, 2^(j-i-1), 2, 2^(n-1-j)), holds qubits
# i < j on axes 1 and 3, where ZZ is the 2 x 2 sign zz = [[1, -1], [-1, 1]]
# broadcast over the other axes.
#
# The diagonal, the offset plus every edge's ZZ term, is built once
# (zz_diagonal), from the low bits up, as exact diagonalisation builds its
# basis-state diagonals bit by bit (Sandvik, below). Once qubits
# i+1..n-1 are in, d = diag[:2^(n-1-i)] holds their part. Qubit i's field
# h = sum of f s_j over its edges (i, j), s_j = +-1 the sign of qubit j, is
# summed on the last three axes of pair_shape(n, i, j) over the still unused
# block after d, and doubles the vector: d + h where qubit i's bit is 0, and
# d - h where it is 1. Flipping every qubit negates h bit for bit and leaves
# d unchanged, so d - h is d + h reversed, bit for bit: each step writes
# d + h in place and its reversed copy after it, and the diagonal is
# palindromic, diag[x] == diag[2^n - 1 - x]. The build reads and writes
# about sum_e 2^(n-1-i_e) + 2 * 2^n entries, against m * 2^n for adding each
# edge to the full vector, and holds only the 2^n vector.
#
# Every edge with an XX or YY term (flip_edges) is one flip term f: XX and YY
# both flip bits i and j, so row x of H gets vals[f, x] * psi[x ^ mask_f]
# (the bit-flip matvec of exact diagonalisation; Sandvik 2010,
# arXiv:1101.3281). With XX -> 1 and YY -> -zz, the value is c_y - c_x where
# bits i and j of x are equal and -c_x - c_y where they differ, for
# (c_x, c_y) = w (alpha, beta). flip_table precomputes vals, T x 2^n doubles
# or 8 bytes per (term, amplitude), and no column table: apply_edges runs
# over chunks of 2^c rows, whose two (T, 2^c) temporaries fit
# _FLIP_CHUNK_BYTES at any n. Row x0 + r of a chunk (r < 2^c) is x0 | r, so
# its column is x0 ^ (r ^ mask_f): one XOR of the first chunk's columns, then
# one np.take of psi, then a multiply-and-sum over the terms.

# zz on axes 1 and 3 of a pair view, broadcast over axes 0, 2 and 4
_ZZ = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, :, None]
# z on axis 1 of a pair view's last three axes, broadcast over axes 0 and 2
_SIGN = np.array([1.0, -1.0])[:, None]

# byte budget of apply_edges's per-chunk columns (int64) and gathered amplitudes
_FLIP_CHUNK_BYTES = 1 << 19


def pair_shape(n, i, j):
    """View shape that puts qubits i < j of an n-qubit state on axes 1 and 3."""
    return (1 << i, 2, 1 << (j - i - 1), 2, 1 << (n - 1 - j))


def zz_diagonal(n, ei, ej, fzz, base):
    """Diagonal base + sum_e fzz[e] zz_e of length 2^n, grown one qubit at a time.

    Qubit i's field on qubits i+1..n-1 doubles the diagonal of those qubits;
    the result is bitwise palindromic, diag[x] == diag[2^n - 1 - x].
    """
    diag = np.empty(1 << n)
    diag[0] = base
    up = [[] for _ in range(n)]
    for i, j, f in zip(ei.tolist(), ej.tolist(), fzz.tolist()):
        up[i].append((j, f))
    for i in range(n - 1, -1, -1):
        size = 1 << (n - 1 - i)
        d, h = diag[:size], diag[size : 2 * size]
        for e, (j, f) in enumerate(up[i]):
            view = h.reshape(pair_shape(n, i, j)[2:])
            if e:
                view += f * _SIGN
            else:
                view[...] = f * _SIGN
        if up[i]:
            d += h
        h[...] = d[::-1]
    return diag


def flip_edges(wc3):
    """Indices of the edges with a nonzero XX or YY term, in edge order."""
    return np.flatnonzero((wc3[:, 0] != 0.0) | (wc3[:, 1] != 0.0))


def flip_table(n, ei, ej, wc3):
    """(cols, vals): one flip term per edge of flip_edges, in edge order.

    vals (T, 2^n) float64 holds vals[f, x] = H[x, x ^ mask_f] from that edge,
    with mask_f the bits of its qubits; cols (T, R) int64 holds the columns
    x ^ mask_f of the first chunk of rows, x < R, so cols[f, 0] = mask_f.
    """
    terms = flip_edges(wc3)
    size = 1 << n
    # the largest power of two rows, at most 2^n, whose temporaries fit the budget
    fit = _FLIP_CHUNK_BYTES // (16 * max(1, terms.size))
    rows = min(size, 1 << max(0, fit.bit_length() - 1))
    masks = (1 << (n - 1 - ei[terms])) | (1 << (n - 1 - ej[terms]))
    vals = np.empty((terms.size, size))
    for f, e in enumerate(terms.tolist()):
        view = vals[f].reshape(pair_shape(n, int(ei[e]), int(ej[e])))
        view[...] = -wc3[e, 0] + wc3[e, 1] * _ZZ
    return np.arange(rows) ^ masks[:, None], vals


def apply_edges(psi, out, diag, table):
    """out = H psi, with H's diagonal diag and its off-diagonal flip_table."""
    first, vals = table
    rows = first.shape[1]
    cols = np.empty_like(first)
    gathered = np.empty(first.shape)
    for x0 in range(0, psi.size, rows):
        chunk = slice(x0, x0 + rows)
        psi.take(np.bitwise_xor(first, x0, out=cols) if x0 else first, out=gathered, mode="clip")
        np.einsum("fx,fx->x", gathered, vals[:, chunk], out=out[chunk])
        out[chunk] += diag[chunk] * psi[chunk]


# ------------------------------------------------------- diagonal extreme scan
#
# When flip_edges is empty (no edge has a nonzero XX or YY term) the
# Hamiltonian is diagonal; the maximum over basis states is exact (residual 0).
# The diagonal is palindromic, so a maximum at x >= 2^(n-1) repeats at
# 2^n - 1 - x < 2^(n-1): the first half holds the first maximum.


def diag_extreme(n, ei, ej, fzz, base):
    """(max, first argmax) of zz_diagonal(n, ei, ej, fzz, base), from its first half."""
    val = zz_diagonal(n, ei, ej, fzz, base)[: 1 << (n - 1)]
    arg = int(np.argmax(val))
    return float(val[arg]), arg
