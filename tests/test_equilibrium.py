import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abelode.core import build_equation, normalize
from abelode.equilibrium import (
    BranchPoint,
    GridSpec,
    ZeroEigenvalueError,
    branch_derivative,
    branch_limit,
    continue_branch,
    real_roots,
    smallest_positive_root,
)
from oracles import bisect_scan_roots


def monic_cubic(c0, c1, c2, x0=0.0):
    return normalize(build_equation([repr(c0), repr(c1), repr(c2), "1"], x0))


class TestGridSpec:
    def test_linear_endpoints_and_count(self):
        g = GridSpec(0.0, 20.0, 2001, "linear")
        xs = g.xs()
        assert len(xs) == 2001
        assert xs[0] == 0.0 and xs[-1] == 20.0
        assert np.all(np.diff(xs) > 0)

    def test_log_spacing(self):
        g = GridSpec(1.0, 100.0, 5, "log")
        assert np.allclose(g.xs(), [1.0, 10.0 ** 0.5, 10.0, 10.0 ** 1.5, 100.0])

    def test_invalid_spacing_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 11, "cubic")

    def test_log_needs_positive_start(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 10.0, 11, "log")


class TestRealRoots:
    def test_three_known_roots(self):
        nf = monic_cubic(-6.0, 11.0, -6.0)  # (y-1)(y-2)(y-3)
        roots = real_roots(nf, 0.0)
        assert len(roots) == 3
        assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)

    def test_roots_sorted_ascending(self):
        nf = monic_cubic(-6.0, 11.0, -6.0)
        roots = real_roots(nf, 0.0)
        assert roots == sorted(roots)

    def test_double_root_captured(self):
        nf = monic_cubic(2.0, -3.0, 0.0)  # (y-1)^2 (y+2)
        roots = real_roots(nf, 0.0)
        assert roots == pytest.approx([-2.0, 1.0], abs=1e-9)

    def test_single_real_root(self):
        nf = monic_cubic(-8.0, 0.0, 0.0)  # y^3 = 8
        roots = real_roots(nf, 0.0)
        assert roots == pytest.approx([2.0], abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(roots=st.lists(
        st.floats(-4, 4, allow_nan=False, allow_infinity=False),
        min_size=3, max_size=3))
    def test_recovers_prescribed_separated_roots(self, roots):
        r1, r2, r3 = sorted(roots)
        assume(r2 - r1 > 0.05 and r3 - r2 > 0.05)
        c2 = -(r1 + r2 + r3)
        c1 = r1 * r2 + r1 * r3 + r2 * r3
        c0 = -r1 * r2 * r3
        nf = monic_cubic(c0, c1, c2)
        found = real_roots(nf, 0.0)
        assert len(found) == 3
        for got, expected in zip(found, (r1, r2, r3)):
            assert got == pytest.approx(expected, abs=1e-9)

    def test_degenerate_tiny_constant_term_does_not_crash(self):
        # y^3 + y^2 - tiny: a near-double root at 0 next to -1
        nf = monic_cubic(-2.225073858507e-311, 0.0, 1.0)
        found = real_roots(nf, 0.0)
        assert len(found) >= 2
        assert found[0] == pytest.approx(-1.0, abs=1e-9)
        assert abs(found[-1]) < 1e-6

    def test_smallest_positive_root(self):
        nf = monic_cubic(1.0, -2.5, -1.0)  # roots near -1, 0.5, ~2 region
        sp = smallest_positive_root(nf, 0.0)
        roots = [r for r in real_roots(nf, 0.0) if r > 0]
        assert sp == min(roots)

    def test_no_positive_root_returns_none(self):
        nf = monic_cubic(6.0, 11.0, 6.0)  # roots -1, -2, -3
        assert smallest_positive_root(nf, 0.0) is None


class TestBranchContinuation:
    def test_constant_coefficients_give_flat_branch(self):
        nf = monic_cubic(1.0, -3.0, 1.0)
        branch = continue_branch(nf, GridSpec(0.0, 20.0, 2001, "linear"))
        target = math.sqrt(2.0) - 1.0
        assert np.max(np.abs(branch.values - target)) < 1e-12
        assert branch.ambiguous_count == 0
        assert branch.L == pytest.approx(target, abs=1e-9)

    def test_interp_matches_pointwise_root(self):
        eq = build_equation(["1 - 1/x", "-2", "-2", "1"], 1.0)
        nf = normalize(eq)
        branch = continue_branch(nf, GridSpec(1.0 + 1e-3, 50.0, 2001, "log"))
        for x in (2.0, 10.0):
            direct = smallest_positive_root(nf, x)
            assert branch.interp_E(x) == pytest.approx(direct, abs=1e-5)

    def test_known_interior_values(self):
        eq = build_equation(["1 - 1/x", "-2", "-2", "1"], 1.0)
        nf = normalize(eq)
        assert smallest_positive_root(nf, 2.0) == pytest.approx(0.21039176784345762, abs=1e-10)
        assert smallest_positive_root(nf, 10.0) == pytest.approx(0.3492991040274609, abs=1e-10)

    def test_covers(self):
        nf = monic_cubic(1.0, -3.0, 1.0)
        branch = continue_branch(nf, GridSpec(0.0, 20.0, 201, "linear"))
        assert branch.covers(0.0) and branch.covers(20.0)
        assert not branch.covers(20.1)

    def test_table_aligned_with_points_through_refinement(self):
        # E = 1 + x jumps 0.6 > 0.25 (1 + 1) from x = 0 to 0.6, so one
        # midpoint is inserted at 0.3; the table must follow the points
        nf = normalize(build_equation(["1 + x", "-1"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, 3.0, 6))
        assert len(branch.points) == 7
        assert branch.xs[1] == 0.3
        assert branch.leading.shape == (7,)
        assert branch.rows.shape == (7, 2)
        for i, point in enumerate(branch.points):
            an, row = nf.sample(point.x)
            assert branch.leading[i] == an
            assert branch.rows[i].tolist() == row

    def test_limit_none_when_tail_still_moving(self):
        eq = build_equation(["3 - 2*exp(-2*x)", "-4", "0", "1"], 0.0)
        nf = normalize(eq)
        short = continue_branch(nf, GridSpec(0.0, 2.0, 201, "linear"))
        assert branch_limit(short) is None

    def test_limit_found_on_long_grid(self):
        eq = build_equation(["3 - 2*exp(-2*x)", "-4", "0", "1"], 0.0)
        nf = normalize(eq)
        long = continue_branch(nf, GridSpec(0.0, 100.0, 2001, "linear"))
        assert branch_limit(long) == pytest.approx(1.0, abs=1e-7)


class TestBranchDerivative:
    def test_matches_implicit_formula(self):
        # a0 = 3 - 2 exp(-2x): dF/dx = 4 exp(-2x), so E' = -4 exp(-2x)/Lambda
        eq = build_equation(["3 - 2*exp(-2*x)", "-4", "0", "1"], 0.0)
        nf = normalize(eq)
        branch = continue_branch(nf, GridSpec(0.0, 20.0, 401, "linear"))
        for idx in (3, 50, 200):
            p = branch.points[idx]
            exact = -(4.0 * math.exp(-2.0 * p.x)) / p.Lambda
            # abs floor: deep in the tail the slope itself is ~1e-8 and the
            # finite difference only resolves it to ~1e-11
            assert branch_derivative(nf, p) == pytest.approx(exact, rel=1e-4, abs=1e-10)

    def test_flat_branch_has_zero_derivative(self):
        nf = monic_cubic(1.0, -3.0, 1.0)
        branch = continue_branch(nf, GridSpec(0.0, 20.0, 101, "linear"))
        assert branch_derivative(nf, branch.points[50]) == pytest.approx(0.0, abs=1e-9)

    def test_zero_eigenvalue_raises(self):
        nf = monic_cubic(1.0, -3.0, 1.0)
        with pytest.raises(ZeroEigenvalueError):
            branch_derivative(nf, BranchPoint(0.0, 1.0, 0.0))
