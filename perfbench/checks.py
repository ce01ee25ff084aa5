"""Reference checks, computed apart from the program.

Every check returns a list of failure messages; an empty list is a pass.
The references are built here from first principles: the Hamiltonian from
bit operations, the relaxation objective and product energies from the
benchmark's own edge arrays, and the Gauss hypergeometric function from
quadrature of Euler's integral. Nothing is compared with a stored copy of
an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Worst-case constants of the paper (projection rounding: XY 0.649, XYZ
# 0.498; single-axis rounding on a rank-2 family: 0.609).
BFV_XY = 0.649
BFV_XYZ = 0.498
AXIS_R2 = 0.609


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------------ energies


def relaxation_value(edges, V: np.ndarray) -> float:
    """sum_e w (1 - sum_k c_k <v_ik, v_jk>) over the generated edge list."""
    dots = np.einsum("ekd,ekd->ek", V[edges.ei], V[edges.ej])
    return float(np.sum(edges.w * (1.0 - np.sum(edges.c * dots, axis=1))))


def product_energy(edges, bloch: np.ndarray) -> float:
    """<H> of the product state with the given Bloch vectors."""
    corr = bloch[edges.ei] * bloch[edges.ej]
    return float(np.sum(edges.w * (1.0 - np.sum(edges.c * corr, axis=1))))


def hamiltonian(edges) -> tuple[np.ndarray | None, np.ndarray]:
    """(off-diagonal part or None, diagonal) of H from bit operations.

    Qubit i sits at bit n-1-i and bit 0 is the Z = +1 state. On an edge,
    XX flips both bits with amplitude 1 and YY flips them with amplitude
    -z_i z_j, so H is real.
    """
    size = 1 << edges.n
    s = np.arange(size, dtype=np.int64)
    diag = np.zeros(size)
    off = None
    for i, j, w, (a, b, g) in zip(edges.ei, edges.ej, edges.w, edges.c):
        bi = (s >> (edges.n - 1 - int(i))) & 1
        bj = (s >> (edges.n - 1 - int(j))) & 1
        zz = 1.0 - 2.0 * (bi ^ bj)
        diag += w * (1.0 - g * zz)
        if a != 0.0 or b != 0.0:
            if off is None:
                off = np.zeros((size, size))
            mask = (1 << (edges.n - 1 - int(i))) | (1 << (edges.n - 1 - int(j)))
            off[s ^ mask, s] += w * (-a + b * zz)
    return off, diag


def max_eigenvalue(edges) -> float:
    """lambda_max of the benchmark's own H: the diagonal's max, or eigvalsh."""
    off, diag = hamiltonian(edges)
    if off is None:
        return float(diag.max())
    off[np.diag_indices_from(off)] += diag
    return float(np.linalg.eigvalsh(off)[-1])


# ------------------------------------------------------------ pipeline report


def check_report(report, scheme: str, family: str) -> list[str]:
    """A pipeline report is consistent with itself and the paper's bound."""
    bad = []
    expect = report.rounded_energy / report.sdp_value
    if not _rel_close(report.certified_ratio, expect, 1e-12):
        bad.append(f"certified_ratio {report.certified_ratio!r} != rounded/sdp {expect!r}")
    if report.rounded_energy > report.sdp_value * (1.0 + 1e-12):
        bad.append(f"rounded {report.rounded_energy!r} above relaxation {report.sdp_value!r}")
    if scheme == "bfv" and family == "xyz" and not report.certified_ratio >= BFV_XYZ:
        bad.append(f"bfv certified_ratio {report.certified_ratio!r} below {BFV_XYZ}")
    return bad


def check_exact(report, lam_ref: float) -> list[str]:
    """lambda_max matches the reference and lies between the energies and the relaxation."""
    bad = []
    lam, tol = report.lambda_max, 1e-8
    if lam is None or not _rel_close(lam, lam_ref, tol):
        return [f"lambda_max {lam!r} != reference {lam_ref!r}"]
    slack = tol * max(1.0, abs(lam))
    if report.best_product_energy > lam + slack:
        bad.append(f"best product {report.best_product_energy!r} above lambda_max {lam!r}")
    if report.rounded_energy > lam + slack:
        bad.append(f"rounded {report.rounded_energy!r} above lambda_max {lam!r}")
    if lam > report.sdp_value + slack:
        bad.append(f"lambda_max {lam!r} above relaxation {report.sdp_value!r}")
    return bad


# ------------------------------------------------------------------ rounding


def check_solution(edges, sol) -> list[str]:
    """Triads are orthonormal and the reported value is their objective."""
    bad = []
    V = sol.vectors
    gram = np.einsum("ikd,ild->ikl", V, V)
    dev = float(np.abs(gram - np.eye(3)).max(initial=0.0))
    if dev > 1e-8:
        bad.append(f"triads deviate from orthonormal by {dev:.3g}")
    value = relaxation_value(edges, V)
    if not _rel_close(value, sol.value, 1e-9):
        bad.append(f"relaxation value {sol.value!r} != recomputed {value!r}")
    return bad


def check_rounding(edges, sdp_value: float, outcome, guarantee: float) -> list[str]:
    """Best energy is the returned state's; the mean meets the paper's bound."""
    bad = []
    bloch = outcome.state.bloch
    dev = float(np.abs(np.linalg.norm(bloch, axis=1) - 1.0).max(initial=0.0))
    if dev > 1e-9:
        bad.append(f"Bloch vectors deviate from unit norm by {dev:.3g}")
    energy = product_energy(edges, bloch)
    if not _rel_close(energy, outcome.energy, 1e-9):
        bad.append(f"best energy {outcome.energy!r} != recomputed {energy!r}")
    e = np.asarray(outcome.per_trial_energies)
    if e.size != outcome.trials_run or e.max() != outcome.energy:
        bad.append("per-trial energies disagree with the best energy or the trial count")
    floor = guarantee * sdp_value - 4.0 * e.std(ddof=1) / math.sqrt(e.size)
    if not e.mean() >= floor:
        bad.append(f"mean trial energy {e.mean():.6f} below {guarantee} x relaxation ({floor:.6f})")
    return bad


# ----------------------------------------------------------------- constants

# Gauss-Legendre nodes on theta in [0, pi/2] for Euler's integral after the
# substitution t = sin^2(theta).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(400)
_THETA = (_GL_X + 1.0) * (math.pi / 4.0)
_THETA_W = _GL_W * (math.pi / 4.0)
_SIN2 = np.sin(_THETA) ** 2
_COS = np.cos(_THETA)


def hyp2f1_euler(r: int, z) -> np.ndarray:
    """2F1(1/2, 1/2; r/2 + 1; z) for z in [0, 1] by Euler's integral.

    With c = r/2 + 1 and t = sin^2(theta):
    Gamma(c) / (Gamma(1/2) Gamma(c - 1/2)) * int_0^{pi/2} 2 cos^r / sqrt(1 - z sin^2).
    """
    c = r / 2.0 + 1.0
    pref = math.gamma(c) / (math.gamma(0.5) * math.gamma(c - 0.5))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    # 1 - z sin^2 written as cos^2 + (1 - z) sin^2, exact at z = 1.
    integrand = 2.0 * _COS**r / np.sqrt(_COS**2 + np.outer(1.0 - z, _SIN2))
    return pref * (integrand @ _THETA_W)


def projection_expectation(r: int, t) -> np.ndarray:
    """F(r, t) = g(r) t 2F1(1/2, 1/2; r/2 + 1; t^2), g(r) = 2/r (G((r+1)/2)/G(r/2))^2."""
    g = 2.0 / r * (math.gamma((r + 1) / 2.0) / math.gamma(r / 2.0)) ** 2
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return g * t * hyp2f1_euler(r, t * t)


def _grid(step: float) -> np.ndarray:
    return -1.0 + step * np.arange(int(math.floor(2.0 / step + 1e-9)) + 1)


def grid_minimum(scheme: str, r: int, step: float) -> tuple[float, float]:
    """(t, ratio) at the smallest positive ratio of the scheme's grid curve."""
    t = _grid(step)
    t = t[t <= 1.0]
    if scheme == "bfv":
        t = t[1.0 - r * t > 1e-12]
        ratio = (1.0 - projection_expectation(r, t)) / (1.0 - r * t)
    else:
        # (2/pi) arcsin(t) is the rank-1 projection expectation F(1, t).
        f = projection_expectation(1, t)
        tt = np.concatenate([t, t])
        num = np.concatenate([1.0 - f, 1.0 + f])
        den = np.concatenate([1.0 - r * t, 1.0 + r * t])
        keep = den > 1e-12
        t, ratio = tt[keep], num[keep] / den[keep]
    ratio = np.where(ratio > 0, ratio, np.inf)
    k = int(np.argmin(ratio))
    return float(t[k]), float(ratio[k])


def goemans_williamson() -> float:
    """min over theta of (2/pi) theta / (1 - cos theta), by golden section."""
    f = lambda th: (2.0 / math.pi) * th / (1.0 - math.cos(th))
    lo, hi = 1.0, 3.0
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        a, b = hi - phi * (hi - lo), lo + phi * (hi - lo)
        if f(a) < f(b):
            hi = b
        else:
            lo = a
    return f((lo + hi) / 2.0)


def check_constants(rows, refs: dict, gw: float) -> list[str]:
    """Each grid minimum matches the reference curve; the paper's bands hold.

    refs maps (scheme, r, step) to the reference (t, ratio) grid minimum.
    """
    bad = []
    if len(rows) != len(refs):
        bad.append(f"expected {len(refs)} rows, got {len(rows)}")
    for row in rows:
        key = (row["scheme"], row["r"], row["step"])
        ref = refs.get(key)
        if ref is None:
            bad.append(f"unexpected row {key}")
            continue
        t_ref, ratio_ref = ref
        if not abs(row["ratio"] - ratio_ref) <= 1e-9:
            bad.append(f"{key}: minimum {row['ratio']!r} != reference {ratio_ref!r}")
        # The two axis branches mirror each other under t -> -t, so a tie
        # between them may be reported on either side.
        t_star = abs(row["t_star"]) if row["scheme"] == "axis" else row["t_star"]
        t_ref = abs(t_ref) if row["scheme"] == "axis" else t_ref
        if not abs(t_star - t_ref) <= row["step"] / 2:
            bad.append(f"{key}: argmin {row['t_star']!r} != reference {ref[0]!r}")
        if row["r"] == 1 and not 0.0 <= row["ratio"] - gw <= row["step"] ** 2:
            bad.append(f"{key}: minimum {row['ratio']!r} is not the GW constant {gw!r}")
        if row["scheme"] == "bfv" and row["r"] == 2 and not 0.649 <= row["ratio"] < 0.650:
            bad.append(f"{key}: XY constant {row['ratio']!r} outside [0.649, 0.650)")
        if row["scheme"] == "bfv" and row["r"] == 3 and not 0.498 <= row["ratio"] < 0.499:
            bad.append(f"{key}: XYZ constant {row['ratio']!r} outside [0.498, 0.499)")
    return bad
