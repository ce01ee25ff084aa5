import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import heisopt
from heisopt import (
    RatioCurve,
    approx_ratio_axis,
    approx_ratio_bfv,
    bfv_expectation,
    curve_to_csv,
    hyp2f1_half,
    ratio_numerics,
)
from heisopt.cli import reproduce_constants


def hyp2f1_brute(c, z, terms=400000):
    """Direct series sum with rational term recursion, float accumulation."""
    s = 0.0
    term = 1.0
    for k in range(terms):
        s += term
        term *= (k + 0.5) * (k + 0.5) * z / ((k + c) * (k + 1.0))
        if term < 1e-19 * max(1.0, abs(s)):
            break
    return s


# the ends of the domain, the switch from the series to the closed forms at
# z = 1/4 (and its neighbouring floats), and the largest z checked
_FIXED_Z = (
    0.0,
    1e-24,
    1e-16,
    1e-8,
    math.nextafter(0.25, 0.0),
    0.25,
    math.nextafter(0.25, 1.0),
    0.98,
)


def test_hyp2f1_against_direct_series(rng):
    for r in (1, 2, 3):
        c = r / 2.0 + 1.0
        for z in (*_FIXED_Z, *rng.uniform(0, 0.98, 200)):
            got = hyp2f1_half(r, float(z))
            want = hyp2f1_brute(c, float(z))
            assert got == pytest.approx(want, rel=1e-13)


def test_hyp2f1_gauss_point():
    # closed forms of 2F1(1/2,1/2;c;1) for c = 3/2, 2, 5/2
    assert hyp2f1_half(1, 1.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert hyp2f1_half(2, 1.0) == pytest.approx(4 / math.pi, abs=1e-15)
    assert hyp2f1_half(3, 1.0) == pytest.approx(3 * math.pi / 8, abs=1e-15)


def test_hyp2f1_domain():
    with pytest.raises(ValueError):
        hyp2f1_half(4, 0.5)
    with pytest.raises(ValueError):
        hyp2f1_half(1, 1.5)
    for r in (1, 2, 3):
        assert hyp2f1_half(r, 0.0) == 1.0
        assert bfv_expectation(r, 0.0) == 0.0
    with pytest.raises(ValueError):
        bfv_expectation(2, math.nan)


def test_bfv_expectation_odd_in_t(rng):
    for r in (1, 2, 3):
        for t in rng.uniform(0, 1, 100):
            t = float(t)
            assert bfv_expectation(r, t) == pytest.approx(-bfv_expectation(r, -t), abs=1e-15)


def test_bfv_expectation_arcsin_identity(rng):
    # rank 1 reduces to the hyperplane-rounding correlation 2*arcsin(t)/pi
    for t in np.arange(-1000, 1001) / 1000.0:
        t = float(t)
        want = 2.0 * math.asin(t) / math.pi
        assert abs(bfv_expectation(1, t) - want) < 1e-12


def test_bfv_expectation_boundary_is_one():
    for r in (1, 2, 3):
        assert abs(bfv_expectation(r, 1.0) - 1.0) < 1e-12
        assert abs(bfv_expectation(r, -1.0) + 1.0) < 1e-12


def test_expectation_clamps_just_outside_the_unit_interval():
    # a correlation rounded one ulp past +-1 used to give NaN (rank 1),
    # a denormal (rank 2) or -2/3 (rank 3)
    over = 1.0 + 2.0**-52
    for r in (1, 2, 3):
        got = ratio_numerics._expectation(r, np.array([-over, over]))
        want = ratio_numerics._expectation(r, np.array([-1.0, 1.0]))
        assert got.tobytes() == want.tobytes()


def test_bfv_expectation_monotone(rng):
    for r in (1, 2, 3):
        ts = np.sort(rng.uniform(-1, 1, 200))
        vals = [bfv_expectation(r, float(t)) for t in ts]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


def test_ratio_minima_at_default_step():
    # three decimals, truncated, of each scheme/rank minimum
    assert math.floor(approx_ratio_bfv(1).minimum[1] * 1000) == 878
    assert math.floor(approx_ratio_bfv(2).minimum[1] * 1000) == 649
    assert math.floor(approx_ratio_bfv(3).minimum[1] * 1000) == 498
    assert math.floor(approx_ratio_axis(1).minimum[1] * 1000) == 878
    assert math.floor(approx_ratio_axis(2).minimum[1] * 1000) == 609
    assert math.floor(approx_ratio_axis(3).minimum[1] * 1000) == 462


def test_rank1_schemes_agree():
    b = approx_ratio_bfv(1).minimum[1]
    a = approx_ratio_axis(1).minimum[1]
    assert b == pytest.approx(a, abs=1e-12)


def test_grid_refinement_stability():
    # 3-decimal constants must not move by 5e-4 when refining the grid
    for fn in (approx_ratio_bfv, approx_ratio_axis):
        for r in (1, 2, 3):
            coarse = fn(r, step=0.01).minimum[1]
            fine = fn(r, step=1e-4).minimum[1]
            assert abs(coarse - fine) < 5e-4


def test_curve_samples_respect_domain():
    for r in (1, 2, 3):
        curve = approx_ratio_bfv(r, step=0.01)
        ts = np.array([t for t, _ in curve.samples])
        assert ts.min() >= -1.0
        assert ts.max() < 1.0 / r  # ratio undefined past the pole
        t_star, ratio = curve.minimum
        ratios = np.array([v for _, v in curve.samples])
        assert ratio == pytest.approx(ratios.min())


def test_axis_minimum_lies_on_a_branch():
    for r in (1, 2, 3):
        curve = approx_ratio_axis(r, step=0.01)
        t_star, ratio = curve.minimum
        g = curve.gamma
        assert g in (1.0, -1.0)
        num = 1.0 - g * 2.0 * math.asin(t_star) / math.pi
        den = 1.0 - r * g * t_star
        assert ratio == pytest.approx(num / den, abs=1e-15)


def test_curve_to_csv_round_trip():
    curve = approx_ratio_bfv(2, step=0.1)
    text = curve_to_csv(curve)
    lines = text.strip().splitlines()
    assert lines[0] == "t,ratio"
    assert len(lines) == 1 + len(curve.samples)
    t0, r0 = lines[1].split(",")
    assert float(t0) == curve.samples[0][0]
    assert float(r0) == curve.samples[0][1]


def test_invalid_rank_rejected():
    for fn in (approx_ratio_bfv, approx_ratio_axis):
        with pytest.raises(ValueError):
            fn(0)
        with pytest.raises(ValueError):
            fn(4)


def test_grid_step_rejected_before_allocation(monkeypatch):
    for fn in (approx_ratio_bfv, approx_ratio_axis):
        for step in (0.0, -0.01, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                fn(2, step=step)
    limit = ratio_numerics._MAX_GRID_POINTS
    tracemalloc.start()
    try:
        for fn in (approx_ratio_bfv, approx_ratio_axis):
            # 2e12 points, and one point more than the limit
            for step in (1e-12, 2.0 / limit, 5e-324):
                with pytest.raises(ValueError, match="grid points"):
                    fn(2, step=step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the limit's grid alone would take 8 MB
    # the limit is on the point count: step 0.01 gives 201 points
    monkeypatch.setattr(ratio_numerics, "_MAX_GRID_POINTS", 201)
    assert len(approx_ratio_axis(1, step=0.01).samples) == 200
    monkeypatch.setattr(ratio_numerics, "_MAX_GRID_POINTS", 200)
    with pytest.raises(ValueError, match="grid points"):
        approx_ratio_axis(1, step=0.01)


def test_coarse_grid_step_rejected():
    # a step of 2 leaves t = -1 and 1 only; 0.1 (21 points) is the coarsest grid
    for fn in (approx_ratio_bfv, approx_ratio_axis):
        for step, count in ((2.0, 2), (1.0, 3), (0.5, 5), (0.1000001, 20)):
            with pytest.raises(ValueError, match=f"gives {count} grid points, fewer than 21"):
                fn(2, step=step)
        assert len(fn(1, step=0.1).samples) >= 20


# reproduce_constants() rows computed by the term-by-term series evaluation
# that the closed forms replaced: (scheme, r, step, ratio, t_star, gamma)
_PINNED_CONSTANTS = [
    ("bfv", 1, 0.01, 0.8785674481778719, -0.69, None),
    ("bfv", 2, 0.01, 0.6499147946638154, -0.88, None),
    ("bfv", 3, 0.01, 0.49877939596127974, -0.97, None),
    ("axis", 1, 0.01, 0.8785674481778719, -0.69, 1),
    ("axis", 2, 0.01, 0.6099245653619274, -0.85, 1),
    ("axis", 3, 0.01, 0.4628315073652014, 0.8900000000000001, -1),
    ("bfv", 1, 0.0001, 0.8785672063945755, -0.6892, None),
    ("bfv", 2, 0.0001, 0.649914753075266, -0.8797, None),
    ("bfv", 3, 0.0001, 0.49876742832485893, -0.966, None),
    ("axis", 1, 0.0001, 0.8785672063945755, -0.6892, 1),
    ("axis", 2, 0.0001, 0.6099182097568158, -0.853, 1),
    ("axis", 3, 0.0001, 0.4628301384014669, -0.8887, 1),
]


def test_constants_pinned():
    rows = reproduce_constants()
    assert [(row["scheme"], row["r"], row["step"]) for row in rows] == [
        pin[:3] for pin in _PINNED_CONSTANTS
    ]
    for row, (scheme, r, step, ratio, t_star, gamma) in zip(rows, _PINNED_CONSTANTS):
        assert row["ratio"] == pytest.approx(ratio, rel=0, abs=1e-13)
        assert row["t_star"] == t_star
        if scheme == "axis":
            assert approx_ratio_axis(r, step=step).gamma == gamma


def test_import_leaves_scipy_out():
    root = os.path.dirname(os.path.dirname(heisopt.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    code = "import sys, heisopt; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
