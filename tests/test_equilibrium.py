import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abelode.core import build_equation, eval_F, normalize
from abelode.equilibrium import (
    BranchError,
    BranchPoint,
    GridSpec,
    ZeroEigenvalueError,
    _isolate_roots,
    branch_derivative,
    branch_limit,
    branch_slopes,
    continue_branch,
    real_roots,
    smallest_positive_root,
)
from oracles import bisect_scan_roots


def monic_cubic(c0, c1, c2, x0=0.0):
    return normalize(build_equation([repr(c0), repr(c1), repr(c2), "1"], x0))


def _filler(degree, count=2000):
    """count random monic rows of the given degree, the same every call."""
    rng = np.random.default_rng(degree)
    return np.hstack([rng.uniform(-5.0, 5.0, (count, degree)), np.ones((count, 1))])


def _isolated_in_batch(row, position):
    """Roots of row isolated inside a 2001-row batch and isolated alone."""
    row = np.asarray(row, dtype=float)
    batch = np.insert(_filler(len(row) - 1), position, row, axis=0)
    in_batch = _isolate_roots(np.arange(len(batch)), batch)[position]
    alone = _isolate_roots([0.0], row[None, :])[0]
    return in_batch[~np.isnan(in_batch)], alone


@st.composite
def constructed_rows(draw):
    """A monic row of degree 1-5 built from its roots: separated simple
    roots (gaps >= 0.25), optionally a factor with complex roots, and a
    hard cluster: a double root (at a critical point), a triple root at 0
    (an exact zero at a partition point) or two roots 1e-9 apart.
    Returns (row, cluster centre or None, number of simple roots).

    Root positions are multiples of 1/64, so no root sits at a tiny
    nonzero abscissa where the scan oracle's sign products underflow."""
    cluster = draw(st.sampled_from([(), (0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1e-9)]))
    pair = draw(st.booleans())
    room = 5 - len(cluster) - 2 * pair
    n_simple = draw(st.integers(0 if cluster or pair else 1, room))
    slots = n_simple + (1 if cluster else 0)
    start = draw(st.integers(-256, 0))
    gaps = draw(st.lists(st.integers(16, 96), min_size=slots, max_size=slots))
    positions = list(np.cumsum([start] + gaps[1:]) / 64.0) if slots else []
    centre = None
    if cluster:
        at = draw(st.integers(0, slots - 1))
        if len(cluster) == 3:
            positions = [p - positions[at] for p in positions]
        centre = float(positions.pop(at))
    roots = [float(p) for p in positions] + [centre + c for c in cluster]
    row = np.polynomial.polynomial.polyfromroots(roots) if roots else np.ones(1)
    if pair:
        p, gap = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.25, 4.0))
        row = np.polynomial.polynomial.polymul(row, [p * p / 4.0 + gap, p, 1.0])
    assert row[-1] == 1.0
    return row.tolist(), centre, n_simple


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

    @pytest.mark.parametrize("x_start,x_end", [
        (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan),
    ])
    def test_non_finite_bounds_rejected(self, x_start, x_end):
        # (0, inf) used to pass and yield a NaN grid
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            GridSpec(x_start, x_end, 5)


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

    @pytest.mark.parametrize("a0, a3, problem", [
        # the real root is ~1e133, but lambda_0 = -1e200 / 1e-200 is -inf
        ("-1e200", "1e-200", "lambda_0 = -inf is not finite"),
        # finite, but the root bound 2 (1 + 1e308) is not
        ("-1e306", "1e-2", "lambda_0 = -1e+308 overflows root isolation"),
    ])
    def test_unusable_row_raises_branch_error(self, a0, a3, problem):
        nf = normalize(build_equation([a0, "0", "0", a3], 0.0))
        with pytest.raises(BranchError, match=re.escape(problem)) as caught:
            real_roots(nf, 0.0)
        assert caught.value.x == 0.0
        with pytest.raises(BranchError, match=re.escape(problem)):
            continue_branch(nf, GridSpec(0.0, 20.0, 2001))


class TestLockstepIsolation:
    """The lockstep kernel isolates each row exactly as it would alone, and
    agrees with the scan oracle where the roots are well conditioned.

    The oracle is asserted on rows built from their roots only: a random
    coefficient row can sit arbitrarily close to a multiple root, where
    float evaluation noise moves any root finder's answer by up to
    eps^(1/k), far beyond 1e-9.  Near a constructed cluster the same noise
    band (measured up to 1.4e-6 wide for a double root) holds only
    spurious sign changes, so within 0.1 of the cluster, less than half
    the gap to any simple root, the kernel need only report a root.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        coefficients=st.integers(1, 5).flatmap(
            lambda n: st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)),
        position=st.integers(0, 2000),
    )
    def test_random_row_same_in_batch_as_alone(self, coefficients, position):
        in_batch, alone = _isolated_in_batch(coefficients + [1.0], position)
        assert in_batch.tobytes() == alone.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(built=constructed_rows(), position=st.integers(0, 2000))
    def test_constructed_row_in_batch_and_against_oracle(self, built, position):
        row, centre, n_simple = built
        in_batch, alone = _isolated_in_batch(row, position)
        assert in_batch.tobytes() == alone.tobytes()

        def away(r):
            return centre is None or abs(r - centre) > 0.1

        reference = [r for r in bisect_scan_roots(row) if away(r)]
        mine = [r for r in alone.tolist() if away(r)]
        assert len(mine) == len(reference) == n_simple
        for got, expected in zip(mine, sorted(reference)):
            assert abs(got - expected) <= 1e-9
        if centre is not None:
            assert np.min(np.abs(alone - centre)) <= 0.1


    def test_scan_oracle_survives_underflowing_products(self):
        # the scan once tested signs by fa * fm < 0.0, which underflows to
        # -0.0 here and moved the bisection to a false root at 0.0004
        row = [-6.67522e-318, -3e-09, 3, -1e-09, 1]
        reference = bisect_scan_roots(row)
        alone = _isolate_roots([0.0], np.array([row]))[0]
        assert len(reference) == len(alone) == 2
        assert np.max(np.abs(np.array(reference) - alone)) <= 1e-9


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

    def test_second_stable_root_counts_as_ambiguous(self):
        # (y+1)(y-1)(y-2)(y-3)(y-4): dF/dy < 0 at 1 and 3, so every grid
        # point has two positive stable roots; the branch starts at 1
        nf = normalize(build_equation(["24", "-26", "-15", "25", "-9", "1"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, 10.0, 101))
        assert np.max(np.abs(branch.values - 1.0)) < 1e-12
        assert branch.ambiguous_count == 101
        assert branch.note.startswith("101 grid point(s) had a second positive stable root")

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

    def test_one_sided_differences_at_both_domain_edges(self):
        # x - x^2 < 0 just outside [0, 1]: the first point takes the forward
        # difference, the last the backward one (it used to raise)
        nf = normalize(build_equation(["3 + sqrt(x - x*x)", "-4 - sqrt(x - x*x)", "1"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, 1.0, 201))
        slopes, undefined = branch_slopes(nf, branch.xs, branch.values, branch.eigenvalues)
        assert not undefined.any()
        h = 1e-6
        first, last = branch.points[0], branch.points[-1]
        forward = (eval_F(nf, first.x + h, first.E) - eval_F(nf, first.x, first.E)) / h
        backward = (eval_F(nf, last.x, last.E) - eval_F(nf, last.x - h, last.E)) / h
        assert slopes[0] == -forward / first.Lambda
        assert slopes[-1] == -backward / last.Lambda
        assert branch_derivative(nf, last) == slopes[-1]

    def test_undefined_where_neither_side_evaluates(self):
        # sqrt(-(x - 1)^2) evaluates at x = 1 only
        nf = normalize(build_equation(["sqrt(0 - (x - 1)^2) - 1", "1"], 1.0))
        point = BranchPoint(1.0, 1.0, -1.0)
        slopes, undefined = branch_slopes(nf, [1.0, 2.0], [1.0, 1.0], [-1.0, 0.0])
        assert undefined.tolist() == [True, True]
        assert np.isnan(slopes).all()
        assert math.isnan(branch_derivative(nf, point))

    def test_slopes_are_nan_at_a_zero_eigenvalue(self):
        nf = monic_cubic(1.0, -3.0, 1.0)
        slopes, undefined = branch_slopes(nf, [0.0, 1.0], [1.0, 1.0], [0.0, -1.0])
        assert math.isnan(slopes[0]) and slopes[1] == 0.0
        assert not undefined.any()
