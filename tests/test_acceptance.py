"""Acceptance checks, one test per criterion.

Each test prints a single summary line before asserting, so a plain
`pytest -v` run shows one verdict per criterion and the printed detail
survives on failure.  Tolerances are pinned inline; none are derived
from the implementation under test.
"""

import math
import time

import numpy as np
import pytest

from abelode.cases import get_case, run_case
from abelode.core import build_equation, normalize
from abelode.equilibrium import GridSpec, continue_branch, real_roots
from abelode.finance import (
    MertonParams,
    omega_exact,
    omega_expansion,
    spread_coefficients,
    spread_curve,
    spread_normal_form,
)
from abelode.hypotheses import verify
from abelode.radau import (
    empirical_order,
    integrate,
    integrate_rhs,
    radau_tableau,
    stability_value,
    step,
)
from abelode.rate import rate_bound
from abelode.reduction import reduce_about, roundtrip_check
from oracles import bisect_scan_roots

CHECK_IDS = ("A1", "A2", "A3", "A4", "B1", "B2", "B3")


@pytest.fixture(scope="module")
def timed_runs():
    """Each case run once, wall-clock recorded, shared by later criteria."""
    out = {}
    for cid in (1, 2, 3):
        t0 = time.perf_counter()
        run = run_case(cid)
        out[cid] = (run, time.perf_counter() - t0)
    return out


def test_criterion_01_fast_plateau(timed_runs):
    run, elapsed = timed_runs[1]
    gap = abs(run.result.final_y - (math.sqrt(2.0) - 1.0))
    print(f"criterion 01: case 1 gap={gap:.3e} runtime={elapsed:.2f}s")
    assert gap <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_slow_entrainment_table(timed_runs):
    run20, elapsed20 = timed_runs[2]
    gap20 = run20.gap
    t0 = time.perf_counter()
    run2000 = run_case(2, x_max=2000.0)
    elapsed2000 = time.perf_counter() - t0
    gap2000 = run2000.gap
    print(f"criterion 02: case 2 gap(20)={gap20:.4e} gap(2000)={gap2000:.4e} "
          f"runtime={elapsed20 + elapsed2000:.2f}s")
    assert elapsed20 + elapsed2000 < 10.0
    assert 1.2e-2 <= gap20 <= 2.0e-2
    assert 2e-4 <= gap2000 <= 8e-4, (
        f"gap at x_max=2000 is {gap2000:.4e}; the equation pins it near "
        f"0.0005/|dF/dy(L)| = 1.618e-4, below the required band [2e-4, 8e-4]")


def test_criterion_03_saturating_plateau_and_decay(timed_runs):
    run, elapsed = timed_runs[3]
    gap = run.gap
    marks = list(np.linspace(10.0, 20.0, 21))
    res = integrate(get_case(3).equation, 0.0, 20.0, checkpoints=marks)
    xs = np.asarray(res.xs)
    ys = np.asarray(res.ys)
    picked_x, picked_gap = [], []
    for m in marks:
        i = int(np.argmin(np.abs(xs - m)))
        picked_x.append(xs[i])
        picked_gap.append(abs(ys[i] - 1.0))
    slope = float(np.polyfit(picked_x, np.log(picked_gap), 1)[0])
    print(f"criterion 03: case 3 gap={gap:.3e} log-gap slope={slope:.4f} "
          f"runtime={elapsed:.2f}s")
    assert gap <= 1e-7
    assert -1.2 <= slope <= -0.8
    assert elapsed < 1.0


def test_criterion_04_empirical_order():
    slope, errors = empirical_order(
        get_case(1).equation, 0.0, 2.0, (0.2, 0.1, 0.05, 0.025))
    print(f"criterion 04: observed order={slope:.3f} errors={errors}")
    assert 4.5 <= slope <= 5.5


def test_criterion_05_stability_function():
    rng = np.random.default_rng(20260819)
    zs = -rng.uniform(0.0, 50.0, 1000) + 1j * rng.uniform(-50.0, 50.0, 1000)
    worst_modulus = max(abs(stability_value(z)) for z in zs)
    stiff_value = abs(stability_value(-1e4))
    rng2 = np.random.default_rng(7)
    worst_step = 0.0
    for _ in range(20):
        z = -10.0 ** rng2.uniform(0.0, 4.0)
        res = step(lambda x: [0.0, z], 0.0, 1.0, 1.0)
        worst_step = max(worst_step, abs(res.y_next - stability_value(z).real))
    print(f"criterion 05: max|R|={worst_modulus:.6f} |R(-1e4)|={stiff_value:.2e} "
          f"step-vs-R={worst_step:.2e}")
    assert worst_modulus <= 1.0 + 1e-12
    assert stiff_value <= 1e-3
    assert worst_step <= 1e-10


def test_criterion_06_tableau_order_conditions():
    t = radau_tableau()
    b_res = max(abs(float(t.b @ (t.c ** (q - 1))) - 1.0 / q) for q in range(1, 6))
    c_res = max(float(np.max(np.abs(t.A @ (t.c ** (q - 1)) - t.c ** q / q)))
                for q in range(1, 4))
    same = np.array_equal(t.b, t.A[-1])
    print(f"criterion 06: quadrature residual={b_res:.2e} "
          f"stage residual={c_res:.2e} b==A[-1]: {same}")
    assert b_res <= 1e-13
    assert c_res <= 1e-13
    assert same


def test_criterion_07_trapping_and_monotonicity(timed_runs):
    flags = {cid: (timed_runs[cid][0].diagnostics.trapping_ok,
                   timed_runs[cid][0].diagnostics.monotone_ok)
             for cid in (1, 2, 3)}
    print(f"criterion 07: (trapping, monotone) per case: {flags}")
    for cid in (1, 2, 3):
        assert flags[cid] == (True, True), f"case {cid}"


def test_criterion_08_rate_bound_domination(timed_runs):
    margins = {}
    for cid in (1, 3):
        run, _ = timed_runs[cid]
        bound = rate_bound(run.nf, run.branch, run.result)
        deviation = np.abs(np.asarray(run.result.ys)
                           - run.branch.interp_E(np.asarray(run.result.xs)))
        margins[cid] = float((np.asarray(bound.bound) - deviation).min())
    print(f"criterion 08: min(bound - |y-E|) per case: {margins}")
    for cid in (1, 3):
        assert margins[cid] >= 0.0, f"case {cid}"


def test_criterion_09_hypothesis_reports(timed_runs):
    statuses = {cid: {k: timed_runs[cid][0].report[k].status for k in CHECK_IDS}
                for cid in (1, 2, 3)}
    neg = build_equation(["x/(x+1)", "-1", "-1", "1"], 1.0)
    neg_nf = normalize(neg)
    neg_branch = continue_branch(neg_nf, GridSpec(1.0, 1e17, 2001, "log"))
    neg_a4 = verify(neg_nf, neg_branch)["A4"]
    print(f"criterion 09: case1={statuses[1]} case2={statuses[2]} "
          f"case3={statuses[3]} negative-example A4={neg_a4.status}")
    for cid in (1, 3):
        assert all(v == "pass" for v in statuses[cid].values()), f"case {cid}"
    assert statuses[2]["A3"] == "inconclusive"
    assert timed_runs[2][0].report["A3"].witness["worst_x"] == 1.0
    assert not timed_runs[2][0].report.has_fail
    for key in ("A1", "A2", "A4", "B1", "B2"):
        assert statuses[2][key] == "pass", key
    assert neg_a4.status in ("fail", "inconclusive")
    if neg_a4.status == "fail":
        assert neg_a4.witness["worst_x"] > 1e6


def test_criterion_10_reduction_round_trip():
    equation = get_case(1).equation
    reduced = reduce_about(equation, 1.0)
    triple = tuple(reduced.c(k, 0.0) for k in (1, 2, 3))
    worst, _, _ = roundtrip_check(equation, 1.0, 0.0, 5.0)
    print(f"criterion 10: shifted coefficients={triple} round-trip worst={worst:.3e}")
    assert triple == (2.0, 4.0, 1.0)
    assert worst <= 1e-6


def test_criterion_11_finance_consistency():
    rng = np.random.default_rng(42)
    worst_dual = 0.0
    produced = 0
    while produced < 500:
        p = MertonParams(
            sigma0_sq=float(rng.uniform(0.5, 3.0)),
            mu=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)),
            r=float(rng.uniform(0.0, 0.02)),
            eta1=float(rng.uniform(-0.3, 0.5)),
            eta2=float(rng.uniform(-0.05, 0.5)),
        )
        x = float(rng.uniform(0.1, 10.0))
        if p.Q(x) < 0.2:
            continue
        produced += 1
        a3, a2, a1, a0 = spread_coefficients(p, x)
        for direct, ratio in zip(spread_normal_form(p, x),
                                 (a2 / a3, a1 / a3, a0 / a3)):
            worst_dual = max(worst_dual,
                             abs(direct - ratio) / max(1.0, abs(direct)))

    p_fix = MertonParams(sigma0_sq=1.2, mu=1.5, r=0.0)
    remainders = [abs(omega_exact(p_fix, 1.3, 0.2 * 2.0 ** (-j))
                      - omega_expansion(p_fix, 1.3, 0.2 * 2.0 ** (-j)))
                  for j in range(5)]
    ratios = [a / b for a, b in zip(remainders, remainders[1:])]

    curve = spread_curve(literal_case1=True)
    plateau_error = abs(curve.plateau_bp - 1e4 * (math.sqrt(2.0) - 1.0))
    xs = np.asarray(curve.xs)
    ss = np.asarray(curve.s)
    mask = (xs >= 2.0) & (xs <= 8.0)
    slope = float(np.polyfit(
        xs[mask],
        np.log(np.abs(curve.plateau_bp / 1e4 - ss[mask])), 1)[0])

    print(f"criterion 11: dual-formula dev={worst_dual:.2e} "
          f"remainder ratios={[f'{r:.1f}' for r in ratios]} "
          f"plateau err={plateau_error:.4f}bp decay slope={slope:.3f}")
    assert worst_dual <= 1e-12
    for ratio in ratios:
        assert 12.0 <= ratio <= 20.0
    assert plateau_error <= 0.01
    assert -1.76 <= slope <= -1.56


def test_criterion_12_root_finder_against_scan_oracle():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(200):
        while True:
            a3 = float(rng.uniform(-5.0, 5.0))
            if abs(a3) >= 0.3:
                break
        a0, a1, a2 = (float(v) for v in rng.uniform(-5.0, 5.0, 3))
        nf = normalize(build_equation([repr(a0), repr(a1), repr(a2), repr(a3)], 0.0))
        mine = real_roots(nf, 0.0)
        reference = bisect_scan_roots([a0 / a3, a1 / a3, a2 / a3, 1.0])
        assert len(mine) == len(reference)
        for a, b in zip(mine, sorted(reference)):
            worst = max(worst, abs(a - b))
    print(f"criterion 12: max root discrepancy over 200 cubics={worst:.2e}")
    assert worst <= 1e-9


def test_criterion_13_closed_form_cross_check():
    equation = build_equation(["1", "0", "-1"], 0.0)  # dy/dx = 1 - y^2
    result = integrate(equation, 0.0, 10.0)
    error = abs(result.final_y - math.tanh(10.0))
    print(f"criterion 13: |y(10) - tanh(10)| = {error:.3e}")
    assert result.completed
    assert error <= 1e-9
