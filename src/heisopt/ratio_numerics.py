"""Special functions and the approximation-ratio grid minimizations.

The projection-rounding expectation per edge is

    F(r, t) = g(r) * t * 2F1(1/2, 1/2; r/2 + 1; t^2),

with g(r) = 2/r * (G((r+1)/2)/G(r/2))^2 hard-coded for the three ranks that
occur: g(1) = 2/pi, g(2) = pi/4, g(3) = 8/(3 pi). F is odd in t, F(1, t) =
(2/pi) arcsin(t), and F(r, 1) = 1 by the Gauss summation at z = 1.

With z = sin^2(theta), theta = atan2(sqrt z, sqrt(1 - z)), the 2F1 has
closed forms (DLMF 15.4, 19.2, 19.8):

  r = 1   theta / sin(theta)
  r = 2   (4/pi) (E - (1 - z) K) / z, with K and E the complete elliptic
          integrals of modulus sin(theta), from the arithmetic-geometric mean
  r = 3   (3/4) (sin cos + (2z - 1) theta) / sin^3, from
          F(3, t) = (2/pi) (t sqrt(1 - t^2) + (2t^2 - 1) arcsin t) / t^2

The r = 2 and r = 3 forms cancel as z -> 0, so for z <= 1/4 every rank sums
40 terms of the series instead (term ratio below z: truncation below 4^-40).
Against a 40-digit reference the result is within 5e-16 relative on
[0, 0.98] and 2e-15 on [0, 1).

Ratio curves, evaluated on the whole grid t = -1 + k*step at once:
  projection rounding   (1 - F(r, t)) / (1 - r t)       over t in [-1, 1/r)
  axis rounding         (1 - g F(1, t)) / (1 - r g t)   over g in {-1, +1},
                        t in [-1, 1] with r*g*t < 1
Each is minimized over its positive ratios: the first minimum wins, and the
axis branch g = +1 is scanned before g = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "RatioCurve",
    "hyp2f1_half",
    "bfv_expectation",
    "approx_ratio_bfv",
    "approx_ratio_axis",
    "curve_to_csv",
]

# 2F1(1/2,1/2;r/2+1;1) = Gamma(c)Gamma(r/2) / Gamma(c-1/2)^2, c = r/2+1
_GAUSS_AT_ONE = {1: math.pi / 2, 2: 4 / math.pi, 3: 3 * math.pi / 8}
_G = {1: 2 / math.pi, 2: math.pi / 4, 3: 8 / (3 * math.pi)}

_SERIES_TERMS = 40
# 100x the points of the paper's 1e-4 grid; a finer step is refused before
# anything is allocated
_MAX_GRID_POINTS = 1_000_000
# the points of a 0.1 grid; a coarser one misses the minima (a step of 2
# leaves t = -1 and 1 only)
_MIN_GRID_POINTS = 21


def _check_rank(r: int) -> None:
    if r not in (1, 2, 3):
        raise ValueError(f"rank must be 1, 2 or 3, got {r!r}")


def _hyp2f1(r: int, z: np.ndarray) -> np.ndarray:
    """2F1(1/2, 1/2; r/2 + 1; z) elementwise for z in [0, 1]."""
    out = np.empty_like(z)
    small = z <= 0.25
    # Horner form of the series, term ratio (k+1/2)^2 z / ((k+c)(k+1))
    c = r / 2 + 1.0
    zs = z[small]
    h = np.ones_like(zs)
    for k in range(_SERIES_TERMS - 1, -1, -1):
        h = 1.0 + (k + 0.5) ** 2 / ((k + c) * (k + 1.0)) * zs * h
    out[small] = h
    out[z == 1.0] = _GAUSS_AT_ONE[r]
    mid = ~small & (z < 1.0)
    z = z[mid]
    # z = sin^2(theta)
    sn, cs = np.sqrt(z), np.sqrt(1.0 - z)
    theta = np.arctan2(sn, cs)
    if r == 1:
        out[mid] = theta / sn
    elif r == 3:
        out[mid] = 0.75 * (sn * cs + (2.0 * z - 1.0) * theta) / (z * sn)
    else:
        # AGM of 1 and cos(theta), d_n = (a_{n-1} - b_{n-1}) / 2: with its
        # limit M, K = pi / (2 M) and E = K (1 - z/2 - sum_{n>=1} 2^(n-1) d_n^2),
        # so (4/pi)(E - (1 - z) K) / z = (1 - 2 sum / z) / M
        a, b, tail, w = 1.0, cs, 0.0, 0.5
        d = np.ones_like(z)
        while (d > 1e-14 * a).any():
            d = (a - b) / 2
            a, b = (a + b) / 2, np.sqrt(a * b)
            w *= 2
            tail += w * d * d
        out[mid] = (1.0 - 2.0 * tail / z) / a
    return out


def _expectation(r: int, t: np.ndarray) -> np.ndarray:
    """F(r, t) elementwise, computed on |t| so that it is exactly odd.

    |t| is clamped to 1, so a value rounded just past +-1 gets F(r, +-1).
    """
    a = np.minimum(np.abs(t), 1.0)
    f = 2.0 * np.arcsin(a) / np.pi if r == 1 else _G[r] * a * _hyp2f1(r, a * a)
    return np.copysign(f, t)


def hyp2f1_half(r: int, z: float) -> float:
    """2F1(1/2, 1/2; r/2 + 1; z) for z in [0, 1], to relative accuracy 1e-14."""
    _check_rank(r)
    z = float(z)
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z={z} outside [0, 1]")
    return float(_hyp2f1(r, np.array([z]))[0])


def bfv_expectation(r: int, t: float) -> float:
    """F(r, t) = g(r) * t * 2F1(1/2, 1/2; r/2+1; t^2); odd in t, F(r, 1) = 1."""
    _check_rank(r)
    t = float(t)
    if not abs(t) <= 1.0:
        raise ValueError(f"t={t} outside [-1, 1]")
    return float(_expectation(r, np.array([t]))[0])


@dataclass(frozen=True)
class RatioCurve:
    """Sampled ratio curve with its grid minimum.

    samples holds (t, ratio) pairs over the valid grid; for the axis scheme
    they cover the g=+1 branch (the g=-1 branch is its mirror image under
    t -> -t) while the minimum is taken over both branches, with the
    minimizing branch in `gamma` (None for the projection scheme).
    """

    r: int
    samples: tuple[tuple[float, float], ...]
    minimum: tuple[float, float]
    step: float
    gamma: int | None = None


def _grid(step: float) -> np.ndarray:
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    points = 2.0 / step + 1e-9
    if not points < _MAX_GRID_POINTS:
        raise ValueError(f"step {step!r} gives more than {_MAX_GRID_POINTS} grid points")
    count = int(math.floor(points)) + 1
    if count < _MIN_GRID_POINTS:
        raise ValueError(f"step {step!r} gives {count} grid points, fewer than {_MIN_GRID_POINTS}")
    return -1.0 + np.arange(count) * step


def approx_ratio_bfv(r: int, step: float = 0.01) -> RatioCurve:
    """Minimize (1 - F(r,t)) / (1 - r t) over the grid t in [-1, 1/r)."""
    _check_rank(r)
    t = _grid(step)
    t = t[(t <= 1.0) & (1.0 - r * t > 1e-12)]
    ratio = (1.0 - _expectation(r, t)) / (1.0 - r * t)
    # the first smallest positive ratio; t = -1 always gives one
    k = int(np.argmin(np.where(ratio > 0, ratio, np.inf)))
    return RatioCurve(
        r=r,
        samples=tuple(zip(t.tolist(), ratio.tolist())),
        minimum=(float(t[k]), float(ratio[k])),
        step=step,
    )


def approx_ratio_axis(r: int, step: float = 0.01) -> RatioCurve:
    """Minimize (1 - g F(1,t)) / (1 - r g t) over g in {-1,+1} and the t grid."""
    _check_rank(r)
    t = _grid(step)
    t = t[t <= 1.0]
    f = _expectation(1, t)
    # g = +1 last, so that its arrays are the ones kept for the samples; it
    # wins ties (<=), as if it were scanned first
    best = None
    for g in (-1, 1):
        keep = 1.0 - (r * g) * t > 1e-12
        tg = t[keep]
        ratio = (1.0 - g * f[keep]) / (1.0 - (r * g) * tg)
        k = int(np.argmin(np.where(ratio > 0, ratio, np.inf)))
        if ratio[k] > 0 and (best is None or ratio[k] <= best[1]):
            best = (float(tg[k]), float(ratio[k]), g)
    t_star, ratio_star, g_star = best
    return RatioCurve(
        r=r,
        samples=tuple(zip(tg.tolist(), ratio.tolist())),
        minimum=(t_star, ratio_star),
        step=step,
        gamma=g_star,
    )


def curve_to_csv(curve: RatioCurve) -> str:
    """Two-column CSV (t, ratio) of the sampled grid."""
    lines = ["t,ratio"]
    for t, ratio in curve.samples:
        lines.append(f"{t:.17g},{ratio:.17g}")
    return "\n".join(lines) + "\n"
