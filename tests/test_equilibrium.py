import math
import re
import sys
from fractions import Fraction
from functools import cache

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from abelode import equilibrium
from abelode.cases import get_case, run_case
from abelode.core import LeadingCoefficientError, NormalForm, build_equation, normalize
from abelode.equilibrium import (
    POSITIVE_THRESHOLD,
    BranchError,
    EquilibriumBranch,
    GridSpec,
    _branch_floor,
    _isolate_roots,
    _moves,
    branch_at,
    branch_limit,
    continue_branch,
    real_roots,
)
from abelode.expr import ExprDomainError
from oracles import (WalkError, bisect_scan_roots, exact_sign, polyroots_60, reference_bisect,
                     reference_isolate, reference_moves, reference_walk, slope_in_y)


def monic_cubic(c0, c1, c2, x0=0.0):
    return normalize(build_equation([repr(c0), repr(c1), repr(c2), "1"], x0))


def _smallest_positive_root(nf, x):
    """The smallest real root of F(x, .) above POSITIVE_THRESHOLD, or None."""
    return next((r for r in real_roots(nf, x) if r > POSITIVE_THRESHOLD), None)


def _filler(degree, count=2000):
    """count random monic rows of the given degree, the same every call."""
    rng = np.random.default_rng(degree)
    return np.hstack([rng.uniform(-5.0, 5.0, (count, degree)), np.ones((count, 1))])


def _isolated_in_batch(row, position, floor=-math.inf):
    """Roots of row isolated inside a 2001-row batch (the lockstep path) and
    isolated alone (the one-row path)."""
    row = np.asarray(row, dtype=float)
    batch = np.insert(_filler(len(row) - 1), position, row, axis=0)
    in_batch = _isolate_roots(np.arange(len(batch)), batch, floor)[position]
    alone = _isolate_roots([0.0], row[None, :], floor)[0]
    return in_batch[~np.isnan(in_batch)], alone


@st.composite
def run_batches(draw):
    """A batch of runs of repeated monic rows of one degree (1-5), each
    run 1-50 rows long, built from a row under test and neighbours that
    differ from it only by the sign of one zero coefficient or by one ulp
    in lambda_0; the row under test sits inside a run of its own."""
    degree = draw(st.integers(1, 5))
    coefficient = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))
    row = np.array(draw(st.lists(coefficient, min_size=degree, max_size=degree)) + [1.0])
    variants = [row]
    for k in np.flatnonzero(row == 0.0):
        flipped = row.copy()
        flipped[k] = -flipped[k]
        variants.append(flipped)
    for toward in (-np.inf, np.inf):
        nudged = row.copy()
        nudged[0] = np.nextafter(nudged[0], toward)
        variants.append(nudged)
    runs = draw(st.lists(st.tuples(st.integers(0, len(variants) - 1), st.integers(1, 50)),
                         min_size=1, max_size=8))
    runs.insert(draw(st.integers(0, len(runs))), (0, draw(st.integers(1, 50))))
    return np.vstack([np.tile(variants[v], (n, 1)) for v, n in runs])


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

    @pytest.mark.parametrize("x_start,x_end", [
        (-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)),
    ])
    def test_overflowing_span_rejected(self, x_start, x_end):
        # used to yield a grid that starts with nan and inf; numpy bounds
        # are refused without an overflow warning
        with pytest.raises(ValueError, match="^grid span overflows for "):
            GridSpec(x_start, x_end, 5)

    @pytest.mark.parametrize("x_start,x_end,name", [
        ("0", 1.0, "x_start"), (True, 2.0, "x_start"), (None, 1.0, "x_start"),
        (0.0, "1", "x_end"), (0.0, True, "x_end"), (0.0, 1j, "x_end"),
    ])
    def test_non_real_bounds_rejected(self, x_start, x_end, name):
        # "0" used to raise a TypeError from math.isfinite; True passed as 1.0
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            GridSpec(x_start, x_end, 5)

    @pytest.mark.parametrize("x_start,x_end", [
        (0, 2), (np.float64(0.5), np.float32(2.0)), (np.int64(-1), 2.0),
    ])
    def test_real_bounds_accepted(self, x_start, x_end):
        xs = GridSpec(x_start, x_end, 5).xs()
        assert xs[0] == x_start and xs[-1] == x_end

    @pytest.mark.parametrize("count", [2.5, "5", None, 5.0])
    def test_non_integer_count_rejected(self, count):
        # 2.5 used to construct and fail later inside np.linspace
        with pytest.raises(ValueError, match="grid count must be an integer"):
            GridSpec(0.0, 1.0, count)

    @pytest.mark.parametrize("a,b", [
        (1e150, 1e300),    # a * b overflows: sqrt(a * b) gave inf
        (1e-300, 1e-225),  # a * b underflows: it gave 0.0
        (1e-160, 1e-150),  # a * b is subnormal: it lost digits
        (2.0 ** -1074, 1.0),
    ])
    def test_log_midpoint_stays_in_the_cell(self, a, b):
        mid = GridSpec(1.0, 2.0, 2, "log").midpoint(a, b)
        assert a < mid < b
        with mpmath.workdps(50):
            exact = mpmath.sqrt(mpmath.mpf(a) * mpmath.mpf(b))
        assert abs(mid - exact) <= 2.0 * math.ulp(float(exact))

    @pytest.mark.parametrize("a,b", [(1.0, 10.0), (1e-150, 1e-157), (1e150, 1e157), (0.5, 3.0)])
    def test_log_midpoint_unchanged_where_the_product_is_normal(self, a, b):
        assert GridSpec(1.0, 2.0, 2, "log").midpoint(a, b) == math.sqrt(a * b)

    def test_branch_refines_through_a_midpoint_near_the_float_limit(self):
        # the last cell [1e299, 1e300] jumps; its midpoint used to be
        # sqrt(1e599) = inf, where the coefficient does not evaluate
        nf = normalize(build_equation(["1 + exp(log(x)/5 - 137)", "-1"], 1.0))
        branch = continue_branch(nf, GridSpec(1.0, 1e300, 301, "log"))
        assert branch.xs[-1] == 1e300
        assert branch.xs[-2] == pytest.approx(10.0 ** 299.5, rel=1e-15)
        assert np.all(np.isfinite(branch.values))

    @pytest.mark.parametrize("a,b", [
        (1e308, 1.7e308),     # a + b overflows: 0.5 * (a + b) gave inf
        (-1.7e308, -1e308),   # and -inf on the mirrored grid
        (1.5e308, sys.float_info.max),
        (-sys.float_info.max, -1.5e308),
    ])
    def test_linear_midpoint_stays_in_the_cell(self, a, b):
        mid = GridSpec(a, b, 3).midpoint(a, b)
        assert a < mid < b
        exact = (Fraction(a) + Fraction(b)) / 2
        assert abs(Fraction(mid) - exact) <= Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-3.0, 7.5), (0.1, 0.2), (1e307, 1e308),
                                     (-1e308, 1e308), (-0.0, 5e-324), (8.9e307, 8.9e307 + 2**971)])
    def test_linear_midpoint_unchanged_where_the_sum_is_finite(self, a, b):
        assert GridSpec(0.0, 1.0, 2).midpoint(a, b).hex() == (0.5 * (a + b)).hex()

    @pytest.mark.parametrize("x_start,x_end,sign", [(1e308, 1.7e308, ""), (-1.7e308, -1e308, "-")])
    def test_branch_refines_through_a_linear_midpoint_near_the_float_limit(self, x_start,
                                                                           x_end, sign):
        # E = |x| / 1e308 jumps from 1 to 1.7 across the one cell; its
        # midpoint was +-inf, where the coefficient does not evaluate
        nf = normalize(build_equation([f"{sign}x / 1e308", "-1"], x_start))
        branch = continue_branch(nf, GridSpec(x_start, x_end, 2))
        assert branch.refinements == 1
        assert branch.xs[1] == x_start / 2 + x_end / 2
        assert np.all(np.isfinite(branch.values))

    @pytest.mark.parametrize("coefficients, grid, message", [
        (["1", "1"], GridSpec(0.0, 2.0, 5),
         "no positive equilibrium at the first grid point at x=0.0"),
        (["1 - x", "-1"], GridSpec(0.0, 2.0, 5), "equilibrium branch vanished at x=1.0"),
        # lost at a midpoint, then at the grid point after one
        (["exp(x)", "-1"], GridSpec(0.0, 10.0, 21),
         "branch lost (jump beyond threshold) at x=2.25"),
        (["1 + 5*((x - 0.5) + abs(x - 0.5))", "-1"], GridSpec(0.0, 1.0, 2),
         "branch lost (jump beyond threshold) at x=1.0"),
    ])
    def test_continuation_errors_carry_a_python_float(self, coefficients, grid, message):
        # the grid stays an array in continue_branch: each x it puts into
        # an error is a float, printed as a float is
        nf = normalize(build_equation(coefficients, 0.0))
        with pytest.raises(BranchError) as caught:
            continue_branch(nf, grid)
        assert type(caught.value.x) is float
        assert str(caught.value) == message


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

    def test_exact_zero_at_a_bisection_midpoint_is_kept(self):
        # y^3 - y/4: the bracket between the critical points +-sqrt(1/12) is
        # cut at 0.0, where F is exactly 0
        assert real_roots(monic_cubic(0.0, -0.25, 0.0), 0.0)[1] == 0.0
        # (y - 1)(y - 2)(y - 3): the bracket between the critical points
        # 2 -+ sqrt(1/3) is bisected first at 2.0, where F is exactly 0
        assert real_roots(monic_cubic(-6.0, 11.0, -6.0), 0.0)[1] == 2.0

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
        sp = _smallest_positive_root(nf, 0.0)
        roots = [r for r in real_roots(nf, 0.0) if r > 0]
        assert sp == min(roots)

    def test_no_positive_root_returns_none(self):
        nf = monic_cubic(6.0, 11.0, 6.0)  # roots -1, -2, -3
        assert _smallest_positive_root(nf, 0.0) is None

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


def _extreme_rows(rng, count, top):
    """count monic rows of degree 1-5 whose coefficients have random signs
    and magnitudes 10^u, u uniform on [-300, top]; top None is
    308 - log10(2 n), about the largest lambda_k that _check_rows admits at
    degree n."""
    degrees = rng.integers(1, 6, count)
    return [np.append(rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(
        -300.0, 308.0 - np.log10(2 * n) if top is None else top, n), 1.0) for n in degrees]


def _scan_resolves(row, roots):
    """Whether the scan oracle can count the roots of row: its bound
    1 + max |c_k| exceeds max |c_k| in floats (below 2^53; above, a root sits
    on the scan's edge), F changes sign at each root (the oracle does not
    count even multiplicities), and the oracle's roots and these roots are
    each at least 1e-6 and two scan cells apart (two roots in one cell
    cancel)."""
    radius = 1.0 + np.max(np.abs(row[:-1]))
    if radius >= 2.0 ** 53:
        return False
    probes = np.concatenate([[-radius], 0.5 * (roots[1:] + roots[:-1]), [radius]])
    signs = np.sign(np.polynomial.polynomial.polyval(probes, row))
    if roots.size and not np.all(signs[1:] * signs[:-1] < 0.0):
        return False
    gap = max(1e-6, 4.0 * radius / 20000)
    return all(np.all(np.diff(r) >= gap) for r in (np.array(bisect_scan_roots(row)), roots))


class TestLockstepIsolation:
    """The lockstep kernel isolates each row exactly as it would alone, and
    agrees with the scan oracle where the roots are well conditioned.  A
    row alone takes the one-row path, so these tests compare the two paths.

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
        floored=st.booleans(),
    )
    def test_random_row_same_in_batch_as_alone(self, coefficients, position, floored):
        floor = _branch_floor(len(coefficients)) if floored else -math.inf
        in_batch, alone = _isolated_in_batch(coefficients + [1.0], position, floor)
        assert in_batch.tobytes() == alone.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(batch=run_batches())
    @example(batch=np.array([[0.0, 0.0, 0.0, 1.0]] * 3 + [[0.0, 0.0, -0.0, 1.0]] * 2))
    def test_runs_of_identical_rows_same_as_alone(self, batch):
        # each run of identical rows is isolated once; every row, whether
        # first in its run or not, gets the bytes it gets alone
        table = _isolate_roots(np.arange(len(batch)), batch)
        distinct = {row.tobytes(): row for row in batch}
        alone = {key: _isolate_roots([0.0], row[None, :])[0] for key, row in distinct.items()}
        assert table.shape[1] == max(a.size for a in alone.values())
        for row, got in zip(batch, table):
            assert got[~np.isnan(got)].tobytes() == alone[row.tobytes()].tobytes()

    @pytest.mark.parametrize("rows, expected", [
        # F(y) = y with lambda_0 = 0.0 and -0.0: roots -0.0 and 0.0
        ([[0.0, 1.0], [-0.0, 1.0]], [[-0.0], [0.0]]),
        ([[0.0, 0.0, 1.0], [0.0, -0.0, 1.0]], [[-0.0], [0.0]]),
        # y^3 with lambda_2 = 0.0 and -0.0, in runs
        ([[0.0, 0.0, 0.0, 1.0]] * 2 + [[0.0, 0.0, -0.0, 1.0]] * 3 + [[0.0, 0.0, 0.0, 1.0]],
         [[-0.0]] * 2 + [[0.0]] * 3 + [[-0.0]]),
    ])
    def test_rows_that_differ_by_the_sign_of_zero(self, rows, expected):
        table = _isolate_roots(np.arange(len(rows)), np.array(rows))
        assert table.tobytes() == np.array(expected).tobytes()
        assert np.signbit(table).tolist() == np.signbit(expected).tolist()

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_stacks_of_zero_one_and_many_identical_rows(self, n):
        row = np.polynomial.polynomial.polyfromroots([1.0, 2.0, 3.0])
        table = _isolate_roots(np.arange(n), np.tile(row, (n, 1)))
        assert table.shape == (n, 3 if n else 0)
        for roots in table:
            assert roots.tobytes() == table[0].tobytes()
            assert np.all(np.abs(roots - [1.0, 2.0, 3.0]) <= 1e-9)

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


    @pytest.mark.parametrize("top, min_resolved", [(103.0, 15), (None, 5)],
                             ids=["to-1e103", "to-row-limit"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extreme_magnitude_rows(self, seed, top, min_resolved):
        """Rows of degree 1-5 with |coefficients| from 1e-300 to 1e103, or
        to the largest that _check_rows admits, where bisection steps fall
        below an ulp and brackets reach 1e308: finite ascending roots, the
        same bytes in a batch as alone, and the scan oracle's root count
        wherever the scan can resolve the row (see _scan_resolves; it
        resolves fewer of the wider rows)."""
        rng = np.random.default_rng(seed)
        rows = _extreme_rows(rng, 80, top)
        filler = [_filler(degree) for degree in range(6)]
        resolved = 0
        for degree in range(1, 6):
            mine = [row for row in rows if len(row) == degree + 1]
            batch = np.vstack([filler[degree]] + mine)
            shuffle = rng.permutation(len(batch))
            table = _isolate_roots(np.arange(len(batch)), batch[shuffle])
            at = np.argsort(shuffle)[len(filler[degree]):]
            for row, in_batch in zip(mine, table[at]):
                alone = _isolate_roots([0.0], row[None, :])[0]
                assert np.all(np.isfinite(alone)) and np.all(np.diff(alone) > 0.0)
                assert in_batch[~np.isnan(in_batch)].tobytes() == alone.tobytes()
                if _scan_resolves(row, alone):
                    resolved += 1
                    assert len(bisect_scan_roots(row)) == alone.size
        assert resolved >= min_resolved

    @pytest.mark.parametrize("row, expected", [
        # brackets about 2.5e300 wide, where (hi - lo) / BISECT_TOL overflows
        ([-1.0, 1e300, 1.0], [-1e300, 1e-300]),
        # lambda_1 near the largest that _check_rows admits at degree 2
        ([-1.0, 4e307, 1.0], [-4e307, 2.5e-308]),
        ([1.0, -4e307, 1.0], [2.5e-308, 4e307]),
    ])
    def test_brackets_near_the_float_limit(self, row, expected):
        roots = _isolate_roots([0.0], np.array([row]))[0]
        assert roots.size == 2
        assert abs(roots[0] - expected[0]) <= 1e-12 * max(1.0, abs(expected[0]))
        assert abs(roots[1] - expected[1]) <= 1e-12 * max(1.0, abs(expected[1]))

    @pytest.mark.parametrize("row, expected", [
        # the root 5.99e43 lies 1.2e43 above its bracket's lower end 4.8e43,
        # less than an ulp of the upper end 5.4e59
        ([-2.3634082736362115e-103, 1.9132710242838285e-39, 7.902960887054518e-169,
          2.7073429657800934e+59, -5.991446672554555e+43, 1.0],
         [0.0, 4518679901102703.0, 5.991446672554555e+43]),
        # the root 5e-4 lies in the bracket [-7.6e14, 6.0e-4] across 0, whose
        # root-free side of 7.6e14 has an ulp of 0.125
        (list(np.polynomial.polynomial.polyfromroots([5e-4, 7e-4, 2e-3, -1e15, 3e15])),
         [-1e15, 5e-4, 7e-4, 2e-3, 3e15]),
    ])
    def test_root_far_below_the_precision_of_its_bracket(self, row, expected):
        # a midpoint rounded to the precision of the far bracket end cannot
        # reach a root nearer the other end than that end's ulp
        roots = _isolate_roots([0.0], np.array([row]))[0]
        assert roots.size == len(expected)
        assert np.all(np.abs(roots - expected) <= 1e-9 * np.maximum(1.0, np.abs(expected)))

    def test_one_distinct_row_takes_the_one_row_path(self, monkeypatch):
        # a stack with one distinct row never reaches the lockstep _bisect:
        # real_roots, a midpoint's isolation and case 1's constant table at
        # every level; case 2's 2,001 distinct rows do reach it
        class Lockstep(Exception):
            pass

        def refuse(*args):
            raise Lockstep

        monkeypatch.setattr(equilibrium, "_bisect", refuse)
        for cid in (1, 2, 3):
            case = get_case(cid)
            nf, grid = normalize(case.equation), case.branch_grid()
            for x in (grid.x_start, grid.x_end):
                assert real_roots(nf, x)
        case = get_case(1)
        continue_branch(normalize(case.equation), case.branch_grid())
        case = get_case(2)
        nf, grid = normalize(case.equation), case.branch_grid()
        xs = grid.xs()
        mid = grid.midpoint(xs[0], xs[1])
        assert _isolate_roots([mid], nf.sample_grid([mid])[1]).shape == (1, 3)
        with pytest.raises(Lockstep):
            continue_branch(nf, grid)

    def test_scan_oracle_survives_underflowing_products(self):
        # the scan once tested signs by fa * fm < 0.0, which underflows to
        # -0.0 here and moved the bisection to a false root at 0.0004
        row = [-6.67522e-318, -3e-09, 3, -1e-09, 1]
        reference = bisect_scan_roots(row)
        alone = _isolate_roots([0.0], np.array([row]))[0]
        assert len(reference) == len(alone) == 2
        assert np.max(np.abs(np.array(reference) - alone)) <= 1e-9


def _kernel_brackets(run):
    """Every bracket _bisect or _bisect_row was given while run() ran, one
    tuple per call: the rows of its brackets (K, n+1), lo, hi and flo as
    given, the roots it returned and the mask of those _predict or
    _predict_row certified (K = 1 on the one-row path)."""
    calls, masks = [], []
    bisect, predict = equilibrium._bisect, equilibrium._predict
    bisect_row, predict_row = equilibrium._bisect_row, equilibrium._predict_row

    def recording_predict(*args):
        root, certified, fixed = predict(*args)
        masks.append(certified.copy())
        return root, certified, fixed

    def recording_bisect(cols, dcols, lo, hi, flo):
        root, polish = bisect(cols, dcols, lo, hi, flo)
        calls.append((cols.T, lo, hi, flo, root.copy(), masks.pop()))
        return root, polish

    def recording_predict_row(*args):
        root, certified, fixed = predict_row(*args)
        masks.append(np.array([certified]))
        return root, certified, fixed

    def recording_bisect_row(row, drow, lo, hi, flo):
        root, polish = bisect_row(row, drow, lo, hi, flo)
        calls.append((np.array([row]), *np.array([[lo], [hi], [flo], [root]]), masks.pop()))
        return root, polish

    equilibrium._bisect, equilibrium._predict = recording_bisect, recording_predict
    equilibrium._bisect_row, equilibrium._predict_row = recording_bisect_row, recording_predict_row
    try:
        run()
    finally:
        equilibrium._bisect, equilibrium._predict = bisect, predict
        equilibrium._bisect_row, equilibrium._predict_row = bisect_row, predict_row
    return calls


def _seeded_rows():
    """200 monic rows of degree 1-5 with coefficients uniform on [-5, 5],
    then TestLockstepIsolation's extreme rows (seeds 0-2, both tops)."""
    rng = np.random.default_rng(37)
    rows = [np.append(rng.uniform(-5.0, 5.0, n), 1.0) for n in rng.integers(1, 6, 200)]
    for seed in (0, 1, 2):
        for top in (103.0, None):
            rows += _extreme_rows(np.random.default_rng(seed), 80, top)
    return rows


@cache
def _brackets(source):
    """_kernel_brackets of the full root table of case 1, 2 or 3 on its grid
    (every recursion level, no floor), or of the seeded rows, one stack per
    degree."""
    if source == "seeded":
        stacks = [np.vstack([row for row in _seeded_rows() if len(row) == n + 1])
                  for n in range(1, 6)]
        return _kernel_brackets(lambda: [_isolate_roots(np.arange(len(stack)), stack)
                                         for stack in stacks])
    case = get_case(source)
    nf, xs = normalize(case.equation), case.branch_grid().xs()
    return _kernel_brackets(lambda: _isolate_roots(xs, nf.sample_grid(xs)[1]))


#: the certificate's half width, and the most a certified root and the
#: sign steps' midpoint of the same bracket can differ: that midpoint is
#: within BISECT_TOL / 2 of a root, the certified root within 2^-41
HALF_WIDTH = Fraction(1, 2 ** 41)
CERTIFIED_FROM_BISECTED = 0.5e-12 + 2.0 ** -41


class TestCertifiedPrediction:
    """Newton's prediction in _bisect is kept only where a rounding-error
    bound proves a root within 2^-41 of it; every other bracket is bisected
    by the sign steps, bit for bit as before (tests/oracles.py keeps a
    frozen copy of them as reference_bisect)."""

    SOURCES = [1, 2, 3, "seeded"]

    @pytest.mark.parametrize("source", SOURCES)
    def test_certified_roots_bracket_an_exact_sign_change(self, source):
        # the exact polynomial of the sampled row changes sign strictly
        # between x - 2^-41 and x + 2^-41, and where mpmath's roots at 60
        # digits converge one of them lies within 2^-41 of x
        checked, polyroots = 0, {}
        for rows, _, _, _, roots, certified in _brackets(source):
            for row, x in zip(rows[certified].tolist(), roots[certified].tolist()):
                x = Fraction(x)
                assert exact_sign(row, x - HALF_WIDTH) * exact_sign(row, x + HALF_WIDTH) == -1
                key = tuple(row)
                if key not in polyroots:
                    polyroots[key] = polyroots_60(row)
                if polyroots[key] is not None:
                    with mpmath.workdps(60):
                        assert min(abs(mpmath.mpf(x.numerator) / x.denominator - root)
                                   for root in polyroots[key]) <= mpmath.mpf(2) ** -41
                checked += 1
        assert checked >= {1: 5, 2: 6000, 3: 1000, "seeded": 600}[source]

    @pytest.mark.parametrize("source", SOURCES)
    def test_against_the_frozen_sign_steps(self, source):
        # uncertified brackets are the frozen copy's bytes; certified roots
        # lie within CERTIFIED_FROM_BISECTED max(1, |r|) of its root r
        brackets = uncertified = 0
        for rows, lo, hi, flo, roots, certified in _brackets(source):
            with np.errstate(over="ignore", invalid="ignore"):
                reference = reference_bisect(rows, np.arange(len(rows)), lo, hi, flo)
            assert roots[~certified].tobytes() == reference[~certified].tobytes()
            r = reference[certified]
            assert np.all(np.abs(roots[certified] - r)
                          <= CERTIFIED_FROM_BISECTED * np.maximum(1.0, np.abs(r)))
            brackets += roots.size
            uncertified += np.count_nonzero(~certified)
        assert brackets >= {1: 5, 2: 6000, 3: 1000, "seeded": 2300}[source]
        if source == "seeded":
            assert uncertified > 0  # the sign steps still run on these rows

    @pytest.mark.parametrize("source", SOURCES)
    def test_every_bracket_through_the_sign_steps(self, source, monkeypatch):
        # with no prediction certified, every bracket, at every step count,
        # takes the sign steps and gives the frozen copy's bytes
        predict, predict_row = equilibrium._predict, equilibrium._predict_row

        def uncertified(*args):
            x, certified, fixed = predict(*args)
            return x, np.zeros_like(certified), fixed

        def uncertified_row(*args):
            x, _, fixed = predict_row(*args)
            return x, False, fixed

        monkeypatch.setattr(equilibrium, "_predict", uncertified)
        monkeypatch.setattr(equilibrium, "_predict_row", uncertified_row)
        brackets, binades = 0, set()
        # uncached: _brackets holds the brackets of the unpatched kernel
        for rows, lo, hi, flo, roots, certified in _brackets.__wrapped__(source):
            assert not certified.any()
            with np.errstate(over="ignore", invalid="ignore"):
                reference = reference_bisect(rows, np.arange(len(rows)), lo, hi, flo)
            assert roots.tobytes() == reference.tobytes()
            brackets += roots.size
            binades.update(np.frexp(hi - lo)[1].tolist())
        assert brackets >= {1: 5, 2: 6000, 3: 1000, "seeded": 2300}[source]
        # widths over hundreds of binades on the seeded rows, so their step
        # counts are mixed
        assert len(binades) >= {1: 2, 2: 2, 3: 3, "seeded": 500}[source]

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_cases_certify_every_bracket(self, cid, monkeypatch):
        # at every recursion level, in continuation and in real_roots, the
        # sign-step loop runs on no bracket of the bundled cases
        stepped = []
        monkeypatch.setattr(equilibrium, "_sign_steps",
                            lambda cols, *args: stepped.append(cols.shape[1]))
        case = get_case(cid)
        nf, grid = normalize(case.equation), case.branch_grid()
        continue_branch(nf, grid)
        for x in (grid.x_start, grid.x_end):
            real_roots(nf, x)
        assert stepped == []
        assert all(certified.all() for *_, certified in _brackets(cid))

    def test_one_row_refusals_take_the_lockstep_sign_steps(self, monkeypatch):
        # a stack of one distinct row hands each bracket the certificate
        # refuses to _sign_steps as a one-column stack, and the row gets the
        # bytes it gets beside another row in a lockstep batch
        sign_steps, stacks = equilibrium._sign_steps, []

        def recording(cols, lo, hi, flo):
            stacks.append((cols.shape[1], lo.shape, hi.shape, flo.shape))
            return sign_steps(cols, lo, hi, flo)

        monkeypatch.setattr(equilibrium, "_sign_steps", recording)
        # the first block of _seeded_rows' extreme rows
        rows, refused = _extreme_rows(np.random.default_rng(0), 80, 103.0), 0
        for i, row in enumerate(rows):
            stacks.clear()
            alone = _isolate_roots([0.0], row[None, :])[0]
            if not stacks:
                continue
            # at any level of the derivative recursion
            assert all(shapes == (1, (1,), (1,), (1,)) for shapes in stacks)
            other = next(r for r in rows[i + 1:] + rows[:i] if len(r) == len(row))
            in_batch = _isolate_roots([0.0, 1.0], np.vstack([row, other]))[0]
            assert in_batch[~np.isnan(in_batch)].tobytes() == alone.tobytes()
            refused += 1
        assert refused >= 5

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_seeded_rows_same_alone_as_in_a_shuffled_batch(self, degree):
        # certified and bisected brackets share one stack, and the Newton
        # loop's early end waits for all of them: each row still gets the
        # bytes it gets alone
        rows = [row for row in _seeded_rows() if len(row) == degree + 1]
        case_rows = normalize(get_case(2).equation).sample_grid(
            get_case(2).branch_grid().xs())[1]
        if degree == 3:
            rows += list(case_rows[::50])
        batch = np.vstack(rows)[np.random.default_rng(degree).permutation(len(rows))]
        table = _isolate_roots(np.arange(len(batch)), batch)
        for row, in_batch in zip(batch, table):
            alone = _isolate_roots([0.0], row[None, :])[0]
            assert in_batch[~np.isnan(in_batch)].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("row", [
        # F > 0 everywhere; the critical point's |F| was below the old
        # absolute threshold 1e-12 (1 + max |c_k|), and far exceeds the
        # rounding bound there
        [2.906851056804989e-116, -6.108402901089156e-223, 1.0],
        [4.246093795072795e-261, -4.712264628286275e-182, 1.0],
        # y^2 (y^2 - 1e80 y + 2.7e159) + 1 >= 1: F and the bound overflow
        # at both critical points past 0, and an inf bound proves nothing
        [1.0, 0.0, 2.7e159, -1e80, 1.0],
        # y^2 (y - 2^256)^2 + 1 >= 1: Horner gives F = 1 at the critical
        # point 2^256, where only the bound overflows
        [1.0, 0.0, 2.0 ** 512, -(2.0 ** 257), 1.0],
    ])
    def test_no_spurious_multiple_root(self, row):
        assert _isolate_roots([0.0], np.array([row])).shape == (1, 0)


def _kernel_bisect(cols, dcols, lo, hi, flo):
    """The kernel's bracket location alone (cut, certified prediction, sign
    steps), as reference_isolate takes it."""
    return equilibrium._bisect(cols, dcols, lo, hi, flo)[0]


def _assert_frozen(rows, floor=-math.inf):
    """The lockstep kernel gives the frozen row-major kernel's bytes."""
    rows = np.asarray(rows, dtype=float)
    table = _isolate_roots(np.arange(len(rows)), rows, floor)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        reference = reference_isolate(rows, _kernel_bisect, floor)
    assert table.shape == reference.shape
    assert table.tobytes() == reference.tobytes()


@st.composite
def coefficient_stacks(draw):
    """1-40 monic rows of one degree (1-5), coefficients on [-5, 5] with
    exact zeros of both signs, and the same rows repeated."""
    degree = draw(st.integers(1, 5))
    coefficient = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0]), st.floats(-5.0, 5.0))
    rows = draw(st.lists(st.lists(coefficient, min_size=degree, max_size=degree),
                         min_size=1, max_size=40))
    rows = np.array([row + [1.0] for row in rows])
    return rows[draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=60))]


@cache
def _case_table(cid, x_max=None):
    """The rows of case cid's branch grid and their full root table."""
    case = get_case(cid)
    xs = case.branch_grid(x_max).xs()
    rows = normalize(case.equation).sample_grid(xs)[1]
    return rows, _isolate_roots(xs, rows)


class TestFrozenKernel:
    """The column-major kernel (sort-free partition, candidates merged in
    ascending order, polish only where a prediction was not certified at a
    fixed point) gives the bytes of the frozen row-major copies in
    tests/oracles.py (reference_isolate, reference_moves)."""

    @settings(max_examples=80, deadline=None)
    @given(rows=coefficient_stacks(), floored=st.booleans())
    def test_generated_stacks(self, rows, floored):
        _assert_frozen(rows, _branch_floor(rows.shape[1] - 1) if floored else -math.inf)

    @settings(max_examples=40, deadline=None)
    @given(batch=run_batches())
    def test_runs_of_identical_rows(self, batch):
        _assert_frozen(batch)

    @settings(max_examples=40, deadline=None)
    @given(built=constructed_rows())
    def test_constructed_rows(self, built):
        row = built[0]
        _assert_frozen(np.vstack([_filler(len(row) - 1, 40), row]))

    @pytest.mark.parametrize("rows", [
        [[0.0, 1.0], [-0.0, 1.0]],
        [[0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]],
        [[0.0, 0.0, 0.0, 1.0]] * 2 + [[0.0, 0.0, -0.0, 1.0]] * 3 + [[0.0, -0.0, 0.0, 1.0]],
        [[-0.0, 0.0, -0.0, 0.0, 1.0], [0.0, -0.0, 0.0, -0.0, 1.0]],
    ])
    def test_rows_that_differ_by_the_sign_of_zero(self, rows):
        _assert_frozen(rows)

    @pytest.mark.parametrize("top", [103.0, None], ids=["to-1e103", "to-row-limit"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extreme_magnitude_rows(self, seed, top):
        rows = _extreme_rows(np.random.default_rng(seed), 80, top)
        for degree in range(1, 6):
            stack = [row for row in rows if len(row) == degree + 1]
            if stack:
                _assert_frozen(stack)
                _assert_frozen(stack, _branch_floor(degree))

    @pytest.mark.parametrize("cid, x_max", [(1, None), (2, None), (3, None), (2, 2e5)])
    def test_case_tables(self, cid, x_max):
        rows, _ = _case_table(cid, x_max)
        _assert_frozen(rows)
        _assert_frozen(rows, _branch_floor(rows.shape[1] - 1))

    @pytest.mark.parametrize("cid, x_max", [(1, None), (2, None), (3, None), (2, 2e5)])
    def test_moves_of_every_column(self, cid, x_max):
        # each root column's moves are the frozen whole-table moves' column,
        # on the full table and on a table whose columns change with the row
        _, table = _case_table(cid, x_max)
        shuffled = table[np.random.default_rng(cid).permutation(len(table))]
        for roots in (table, shuffled):
            move, jump = reference_moves(roots[:-1], roots[1:])
            for col in range(roots.shape[1]):
                got = _moves(roots.T[col, :-1], roots.T[:, 1:])
                assert got[0].tolist() == move[:, col].tolist()
                assert got[1].tolist() == jump[:, col].tolist()

    @pytest.mark.parametrize("source", [1, 2, 3, "seeded"])
    def test_critical_points_lie_within_the_derivative_bound(self, source):
        # the sort-free partition rests on this: the derivative level's
        # roots lie in [-R', R'] with R' <= R and none at or below -R, so
        # the critical points inside (-R, R) lead each ascending column
        if source == "seeded":
            stacks = [np.vstack([row for row in _seeded_rows() if len(row) == n + 1])
                      for n in range(2, 6)]
        else:
            stacks = [_case_table(source)[0]]
        for rows in stacks:
            deriv = rows[:, 1:] * np.arange(1.0, rows.shape[1])
            deriv = deriv / deriv[:, -1:]
            critical = _isolate_roots(np.arange(len(rows)), deriv)
            bound = 2.0 * (1.0 + np.max(np.abs(rows[:, :-1]), axis=1))
            inner = 2.0 * (1.0 + np.max(np.abs(deriv[:, :-1]), axis=1))
            assert np.all(inner <= bound)
            assert np.all(np.isnan(critical) | (np.abs(critical) <= inner[:, None]))
            assert np.all(np.isnan(critical) | (critical > -bound[:, None]))


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
            direct = _smallest_positive_root(nf, x)
            assert branch.interp_E(x) == pytest.approx(direct, abs=1e-5)

    def test_known_interior_values(self):
        eq = build_equation(["1 - 1/x", "-2", "-2", "1"], 1.0)
        nf = normalize(eq)
        assert _smallest_positive_root(nf, 2.0) == pytest.approx(0.21039176784345762, abs=1e-10)
        assert _smallest_positive_root(nf, 10.0) == pytest.approx(0.3492991040274609, abs=1e-10)

    def test_covers(self):
        nf = monic_cubic(1.0, -3.0, 1.0)
        branch = continue_branch(nf, GridSpec(0.0, 20.0, 201, "linear"))
        assert branch.covers(0.0) and branch.covers(20.0)
        assert not branch.covers(20.1)
        xs = np.array([-0.1, 0.0, 7.5, 20.0, 20.1, math.nan])
        mask = branch.covers(xs)
        assert mask.tolist() == ((xs >= branch.xs[0]) & (xs <= branch.xs[-1])).tolist()
        assert mask.tolist() == [False, True, True, True, False, False]

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

    @pytest.mark.parametrize("coefficients, grid, message, x", [
        pytest.param(["1", "1"], GridSpec(0.0, 2.0, 5),
                     "no positive equilibrium at the first grid point", 0.0, id="no-start"),
        # E = 1 - x reaches 0 at x = 1 with no positive root left
        pytest.param(["1 - x", "-1"], GridSpec(0.0, 2.0, 5),
                     "equilibrium branch vanished", 1.0, id="vanished"),
        # E = exp(x): the step from 2 to 2.5 is refined, and even its first
        # half, from 2 to the midpoint 2.25, jumps too far
        pytest.param(["exp(x)", "-1"], GridSpec(0.0, 10.0, 21),
                     "branch lost (jump beyond threshold)", 2.25, id="lost-at-midpoint"),
        # E = 1 up to x = 0.5, then 1 + 10 (x - 0.5): the midpoint 0.5 is
        # reached, the step from it to 1 is not
        pytest.param(["1 + 5*((x - 0.5) + abs(x - 0.5))", "-1"], GridSpec(0.0, 1.0, 2),
                     "branch lost (jump beyond threshold)", 1.0, id="lost-after-midpoint"),
    ])
    def test_error_paths(self, coefficients, grid, message, x):
        nf = normalize(build_equation(coefficients, 0.0))
        with pytest.raises(BranchError) as caught:
            continue_branch(nf, grid)
        assert str(caught.value) == f"{message} at x={x!r}"
        assert caught.value.x == x

    @pytest.mark.parametrize("coefficients,grid,error,message,x", [
        # a_n = x - 1 vanishes at 1 before a_0 = log(2 - x) fails at 2
        pytest.param(["log(2 - x)", "x - 1"], GridSpec(0.0, 2.0, 3), LeadingCoefficientError,
                     "leading coefficient a1 vanishes at x=1.0", 1.0, id="leading-first"),
        # a_0 = log(1 - x) fails at 1 before a_n = x - 2 vanishes at 2
        pytest.param(["log(1 - x)", "x - 2"], GridSpec(0.0, 2.0, 3), ExprDomainError,
                     "log(0.0) outside real domain at x=1.0", 1.0, id="a0-first"),
        # both fail at 2: a_n's zero check comes first
        pytest.param(["log(2 - x)", "2 - x"], GridSpec(0.0, 2.0, 3), LeadingCoefficientError,
                     "leading coefficient a1 vanishes at x=2.0", 2.0, id="same-point"),
        # a_3 vanishes at 3, the grid's middle point
        pytest.param(["1", "-3", "1", "x - 3"], GridSpec(2.0, 4.0, 3), LeadingCoefficientError,
                     "leading coefficient a3 vanishes at x=3.0", 3.0, id="inside-the-grid"),
    ])
    def test_raises_the_first_failing_samples_error(self, coefficients, grid, error, message, x):
        nf = NormalForm(build_equation(coefficients, grid.x_start))
        for call in (lambda: continue_branch(nf, grid), lambda: nf.sample(x)):
            with pytest.raises(error) as caught:
                call()
            assert str(caught.value) == message

    def test_moves_keeps_the_first_of_two_equally_near_roots(self):
        # exact float ties built into the table: each prev root lies 0.25
        # from two roots of its row; the first in ascending order is kept,
        # unless it is at or below POSITIVE_THRESHOLD (third row)
        prev = np.array([[1.0, np.nan], [0.5, 2.0], [0.25, np.nan]])
        nxt = np.array([[0.75, 1.25, np.nan], [0.25, 0.75, 2.0], [0.0, 0.5, np.nan]])
        # one call per root column of prev, stacked back into rows
        move, jump = (np.stack(a, axis=1) for a in zip(*(_moves(c, nxt.T) for c in prev.T)))
        assert move[0, 0] == 0 and move[1].tolist() == [0, 2] and move[2, 0] == 1
        assert not jump[0, 0] and not jump[1].any() and not jump[2, 0]

    def test_tie_goes_to_the_first_root(self):
        # m is the double root at x = 0; at x = 1 the roots of
        # y^2 - 3.75 y + 3.375 lie at the same float distance from it, and
        # the lower one, first in ascending order, is kept
        m = 1.8749999999999998
        nf = normalize(build_equation(
            [f"(1 - x)*{m * m!r} + x*3.375", f"(1 - x)*({-2 * m!r}) - x*3.75", "1"], 0.0))
        low, high = real_roots(nf, 1.0)
        assert real_roots(nf, 0.0) == [m] and m - low == high - m
        branch = continue_branch(nf, GridSpec(0.0, 1.0, 2))
        assert branch.values.tolist() == [m, low]

    def test_zero_crossing_falls_back_to_smallest_positive_root(self):
        # roots (0.25 - 0.25 x, 1 - 0.46875 x): at x = 1 the root nearest
        # 0.25 is ~0, so the branch moves to 0.53125 instead
        nf = normalize(build_equation(
            ["(0.25 - 0.25*x)*(1 - 0.46875*x)", "0.71875*x - 1.25", "1"], 0.0))
        near_zero, positive = real_roots(nf, 1.0)
        assert abs(near_zero) <= 1e-12
        branch = continue_branch(nf, GridSpec(0.0, 1.0, 2))
        assert branch.values.tolist() == [real_roots(nf, 0.0)[0], positive]

    def test_top_level_bisects_only_brackets_that_can_hold_a_positive_root(
            self, monkeypatch):
        # every row of case 2's cubic has one negative root, whose bracket
        # ends below the floor: continuation bisects the other two brackets
        # of each of the 2,001 distinct rows, real_roots all three
        case = get_case(2)
        nf, xs = normalize(case.equation), case.branch_grid().xs()
        brackets = []
        original, original_row = equilibrium._bisect, equilibrium._bisect_row

        def counted(cols, *args):
            brackets.append((len(cols) - 1, cols.shape[1]))
            return original(cols, *args)

        def counted_row(row, *args):
            brackets.append((len(row) - 1, 1))
            return original_row(row, *args)

        monkeypatch.setattr(equilibrium, "_bisect", counted)
        monkeypatch.setattr(equilibrium, "_bisect_row", counted_row)
        continue_branch(nf, case.branch_grid())
        assert sum(n for degree, n in brackets if degree == 3) == 2 * 2001
        full = _isolate_roots(xs, nf.sample_grid(xs)[1])
        assert full.shape == (2001, 3) and (full[:, 0] < 0.0).all() and (full[:, 1] > 0.0).all()
        for x in (xs[0], xs[-1]):
            brackets.clear()
            roots = real_roots(nf, x)
            assert len(roots) == 3 and roots[0] < 0.0 < roots[1]
            assert sum(n for degree, n in brackets if degree == 3) == 3

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


#: a generated coefficient, scale * (c + l * (L + A * exp(-k * x)))
_GENERATED = re.compile(r"(\S+)\*\((\S+) \+ (\S+)\*\((\S+) \+ (\S+)\*exp\(-(\S+)\*x\)\)\)")


def _chord_branch(xs, es, lams):
    """A branch through the points (x, E, Lambda), built by hand: branch_at
    reads E and Lambda off it and the rest from the equation, so its other
    arrays are placeholders."""
    n = len(xs)
    return EquilibriumBranch(xs, es, lams, GridSpec(float(xs[0]), float(xs[-1]), n),
                             leading=np.ones(n), rows=np.ones((n, 1)), slopes=np.zeros(n),
                             undefined_slopes=np.zeros(n, dtype=bool))


class TestBranchDerivative:
    def test_matches_implicit_formula(self):
        # a0 = 3 - 2 exp(-2x): dF/dx = 4 exp(-2x), so E' = -4 exp(-2x)/Lambda
        eq = build_equation(["3 - 2*exp(-2*x)", "-4", "0", "1"], 0.0)
        nf = normalize(eq)
        branch = continue_branch(nf, GridSpec(0.0, 20.0, 401, "linear"))
        slopes = branch_at(nf, branch, branch.xs).slopes
        for idx in (3, 50, 200):
            exact = -(4.0 * math.exp(-2.0 * branch.xs[idx])) / branch.eigenvalues[idx]
            # abs floor: deep in the tail the slope itself is ~1e-8 and the
            # finite difference only resolves it to ~1e-11
            assert slopes[idx] == pytest.approx(exact, rel=1e-4, abs=1e-10)

    def test_flat_branch_has_zero_derivative(self):
        nf = monic_cubic(1.0, -3.0, 1.0)
        branch = continue_branch(nf, GridSpec(0.0, 20.0, 101, "linear"))
        slopes = branch_at(nf, branch, branch.xs).slopes
        assert slopes[50] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("case_id,x_max", [(2, None), (3, None), (2, 2e5)])
    def test_closed_forms_on_the_case_grids(self, case_id, x_max):
        # case 2: dF/dx = dlambda_0/dx = 1/x^2; case 3: 4 exp(-2x); on every
        # point of the branch grid, within a few roundings of each side
        case = get_case(case_id)
        nf = normalize(case.equation)
        branch = continue_branch(nf, case.branch_grid(x_max))
        _, _, _, _, slopes, undefined = branch_at(nf, branch, branch.xs)
        assert not undefined.any()
        xs, lams = branch.xs.tolist(), branch.eigenvalues.tolist()
        if case_id == 2:
            exact = [-1.0 / (x * x * lam) for x, lam in zip(xs, lams)]
        else:
            exact = [-4.0 * math.exp(-2.0 * x) / lam for x, lam in zip(xs, lams)]
        assert np.all(np.abs(slopes - exact) <= 1e-14 * np.abs(exact))

    @pytest.mark.parametrize("batch", [0, 1, 2])
    def test_generated_families_match_the_closed_form(self, stiff_inputs, batch):
        # the generated families (perfbench/inputs.py) factor as F = (y - r1) Q(y)
        # with r1 = L + A exp(-k x), so E' = r1' = -k A exp(-k x); each a_j is
        # scale (c_j + l_j r1).  Error model, relative to the exact r1' at the
        # float x (u = 2^-53), fixed before the first run:
        # - dF/dx = sum lambda_k' E^k with lambda_k' = l_k r1' scale / a_n: the
        #   exponent -k*x is rounded once (an error of at most u k x in exp's
        #   argument), exp, the slope's products and the division by a_n round
        #   at most 10 times, and Horner adds gamma_2n: (k x + 2n + 10) u times
        #   the condition sum |l_k| E^k / |sum l_k E^k|;
        # - Lambda = sum k lambda_k E^(k-1), each lambda_k formed with at most
        #   8 roundings: (2n + 8) u sum k (|c_k| + |l_k r1|) E^(k-1) |scale / a_n|
        #   / |Lambda|;
        # - E's own error d = E - r1 (exact): E' at E is r1' Q / (Q + d Q'),
        #   and |Q'/Q| < 6 on the family's ranges (r2 - E, E + r3 and q at
        #   least 0.5), so at most 6 |d| / (1 - 6 |d|).
        # The tolerance is twice their sum, for the second-order terms.
        u = 2.0 ** -53
        mpmath.mp.dps = 40
        for generated in stiff_inputs.stiff_equations(901, batch):
            sources = generated.coefficients
            nf = normalize(build_equation(list(sources), 0.0))
            branch = continue_branch(nf, GridSpec(0.0, generated.x_end, 2001))
            matches = [_GENERATED.fullmatch(source) for source in sources]
            scale, limit, amp, k = (float(matches[0][i]) for i in (1, 4, 5, 6))
            c = np.array([float(m[2]) if m else float(a) / scale for m, a in zip(matches, sources)])
            l = np.array([float(m[3]) if m else 0.0 for m in matches])
            decay = [amp * mpmath.exp(-k * mpmath.mpf(x)) for x in branch.xs.tolist()]
            r1 = np.array([float(limit + d) for d in decay])
            slope = np.array([float(-k * d) for d in decay])
            delta = np.abs([float(mpmath.mpf(e) - limit - d)
                            for e, d in zip(branch.values.tolist(), decay)])
            n, es = len(sources) - 1, branch.values
            powers = es[:, None] ** np.arange(n + 1)
            rel_f = ((k * branch.xs + 2 * n + 10) * u * (np.abs(l) * powers).sum(axis=1)
                     / np.abs((l * powers).sum(axis=1)))
            weights = np.arange(1, n + 1) * (np.abs(c[1:]) + np.abs(l[1:]) * np.abs(r1)[:, None])
            rel_lam = ((2 * n + 8) * u * abs(scale / float(sources[-1]))
                       * (weights * powers[:, :-1]).sum(axis=1) / np.abs(branch.eigenvalues))
            rel_e = 6.0 * delta / (1.0 - 6.0 * delta)
            assert not branch.undefined_slopes.any()
            error = np.abs(branch.slopes - slope) / np.abs(slope)
            assert (error <= 2.0 * (rel_f + rel_lam + rel_e)).all()
            # branch_at at the branch's own points reads back what it stores
            reading = branch_at(nf, branch, branch.xs)
            for name in ("xs", "leading", "values", "eigenvalues", "slopes", "undefined_slopes"):
                assert getattr(reading, name).tobytes() == getattr(branch, name).tobytes(), name

    def test_rows_without_x_give_exactly_zero(self):
        # case 1: no coefficient has x, so dF/dx is +0.0 and E' = -0.0 / Lambda
        # is +0.0 at every point (Lambda < 0), the bytes branch.csv always had
        nf = normalize(get_case(1).equation)
        branch = continue_branch(nf, get_case(1).branch_grid())
        values, slopes = nf.equation.grid(branch.xs)
        assert slopes == (0.0, 0.0, 0.0, 0.0)
        assert values.tolist() == [[v] * branch.xs.size for v in (1.0, -3.0, 1.0, 1.0)]
        _, _, _, _, e_prime, undefined = branch_at(nf, branch, branch.xs)
        assert not undefined.any()
        assert e_prime.tobytes() == np.zeros(branch.xs.size).tobytes()

    def test_sqrt_slope_is_undefined_where_its_argument_vanishes(self):
        # sqrt(x - x^2) evaluates on [0, 1] with an infinite slope at both
        # ends; inside, E' is exact: E = 1 and 3 + sqrt(x - x^2) are the
        # roots, so dF/dx = -(1 - E) d sqrt/dx and E' is 0 up to rounding
        nf = normalize(build_equation(["3 + sqrt(x - x*x)", "-4 - sqrt(x - x*x)", "1"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, 1.0, 201))
        _, _, _, _, slopes, undefined = branch_at(nf, branch, branch.xs)
        assert np.flatnonzero(undefined).tolist() == [0, 200]
        assert np.isnan(slopes[undefined]).all()
        assert np.all(np.abs(slopes[1:-1]) <= 1e-12)

    def test_each_point_is_sampled_at_most_once_where_the_pass_fails(self, rows_sampled,
                                                                    monkeypatch):
        # log(x - 0.5) fails on [0, 0.5]: the one pass raises, each abscissa's
        # row is sampled once, and the pass runs again on the points left
        equation = build_equation(["3 + log(x - 0.5)", "-4 - log(x - 0.5)", "1"], 0.0)
        nf = normalize(equation)
        # the chords of E = 1 and Lambda = -2 are exact
        xs = np.linspace(0.0, 1.0, 2001)
        branch = _chord_branch([0.0, 1.0], [1.0, 1.0], [-2.0, -2.0])
        calls = []
        grid = equation.grid
        monkeypatch.setitem(vars(equation), "grid",
                            lambda xs: calls.append(len(xs)) or grid(xs))
        _, _, _, _, slopes, undefined = branch_at(nf, branch, xs)
        assert calls == [2001, 1000] and len(rows_sampled) == 2001
        assert undefined.tolist() == (xs <= 0.5).tolist()
        assert np.isnan(slopes[undefined]).all()
        # dF/dx = (1 - E) / (x - 0.5) = 0 at E = 1
        assert np.all(slopes[~undefined] == 0.0)

    @pytest.mark.parametrize("sources,grid", [
        (["1", "-3", "1", "1"], GridSpec(0.0, 20.0, 101)),
        (["3 - 2*exp(-2*x)", "-4", "0", "1"], GridSpec(0.0, 20.0, 401)),
        (["3 + sqrt(x - x*x)", "-4 - sqrt(x - x*x)", "1"], GridSpec(0.0, 1.0, 201)),
        (["exp(x)", "-1"], GridSpec(0.0, 10.0, 31)),
    ], ids=["flat", "saturating", "sqrt", "refining"])
    def test_stored_slopes_are_the_fresh_pass(self, sources, grid):
        # the branch forms E' from the samples its continuation took,
        # refinement midpoints included (exp(x) refines 28 of its 30 cells);
        # one fresh pass at its own points gives the same bytes
        nf = normalize(build_equation(sources, grid.x_start))
        branch = continue_branch(nf, grid)
        fresh = branch_at(nf, branch, branch.xs)
        assert branch.slopes.tobytes() == fresh.slopes.tobytes()
        assert branch.undefined_slopes.tolist() == fresh.undefined_slopes.tolist()

    @pytest.mark.parametrize("case_id,x_max", [(1, None), (2, None), (3, None), (2, 2e5)])
    def test_case_branches_store_the_fresh_pass(self, case_runs, case_id, x_max):
        run = case_runs[case_id] if x_max is None else run_case(case_id, x_max)
        branch = run.branch
        fresh = branch_at(run.nf, branch, branch.xs)
        assert branch.slopes.tobytes() == fresh.slopes.tobytes()
        assert not branch.undefined_slopes.any() and not fresh.undefined_slopes.any()

    def test_fallback_gives_the_stored_slopes(self, rows_sampled):
        # log(x - 0.5) fails left of 0.5: a fresh pass over failing points
        # and the branch's own (read off a branch extended by hand to 0.25)
        # raises, samples each point once and gives the stored E' at the
        # branch's points, bit for bit
        nf = normalize(build_equation(["3 + log(x - 0.5)", "-4 - log(x - 0.5)", "1"], 0.7))
        branch = continue_branch(nf, GridSpec(0.7, 1.0, 201))
        assert rows_sampled == []
        xs = np.concatenate(([0.25, 0.5], branch.xs))
        es = np.concatenate(([1.0, 1.0], branch.values))
        lams = np.concatenate(([-2.0, -2.0], branch.eigenvalues))
        _, _, _, _, slopes, undefined = branch_at(nf, _chord_branch(xs, es, lams), xs)
        assert rows_sampled == xs.tolist()
        assert undefined.tolist() == [True, True] + [False] * branch.xs.size
        assert slopes[2:].tobytes() == branch.slopes.tobytes()

    def test_undefined_where_neither_side_evaluates(self):
        # sqrt(-(x - 1)^2) evaluates at x = 1 only, where its argument
        # vanishes, so its slope is undefined there too
        nf = normalize(build_equation(["sqrt(0 - (x - 1)^2) - 1", "1"], 1.0))
        branch = _chord_branch([1.0, 2.0], [1.0, 1.0], [-1.0, 0.0])
        _, _, _, _, slopes, undefined = branch_at(nf, branch, [1.0, 2.0])
        assert undefined.tolist() == [True, True]
        assert np.isnan(slopes).all()

    def test_slopes_are_nan_at_a_zero_eigenvalue(self):
        nf = monic_cubic(1.0, -3.0, 1.0)
        branch = _chord_branch([0.0, 1.0], [1.0, 1.0], [0.0, -1.0])
        _, _, _, _, slopes, undefined = branch_at(nf, branch, [0.0, 1.0])
        assert math.isnan(slopes[0]) and slopes[1] == 0.0
        assert not undefined.any()


class TestBranchAt:
    def test_off_grid_reads_are_the_chords_and_the_rows_slopes(self, case_runs):
        # case 3 between its grid points: E and Lambda are the chords, a_n
        # the row's, and E' = -4 exp(-2x) / Lambda at the chord's Lambda
        run = case_runs[3]
        xs = np.array([0.0125, 1.0, 7.3333, 99.99])
        reading = branch_at(run.nf, run.branch, xs)
        assert reading.xs.tolist() == xs.tolist()
        assert reading.values.tobytes() == run.branch.interp_E(xs).tobytes()
        assert reading.eigenvalues.tobytes() == np.interp(
            xs, run.branch.xs, run.branch.eigenvalues).tobytes()
        assert reading.leading.tolist() == [1.0] * xs.size
        exact = [-4.0 * math.exp(-2.0 * x) / lam
                 for x, lam in zip(xs.tolist(), reading.eigenvalues.tolist())]
        assert np.all(np.abs(reading.slopes - exact) <= 1e-14 * np.abs(exact))
        assert not reading.undefined_slopes.any()

    def test_out_of_range_is_refused_before_any_evaluation(self, monkeypatch):
        # a_n fails at the first cell's midpoint; the range is checked first
        equation = build_equation(["-1", "1 + 0*log(abs(x - 0.0025))"], 0.0)
        nf = normalize(equation)
        branch = continue_branch(nf, GridSpec(0.0, 1.0, 201))
        calls = []
        monkeypatch.setitem(vars(equation), "grid", lambda xs: calls.append(len(xs)))
        monkeypatch.setitem(vars(equation), "row", lambda x: calls.append(x))
        with pytest.raises(ValueError) as info:
            branch_at(nf, branch, [0.5, -1.0])
        assert str(info.value) == "x=-1.0 outside the branch range [0.0, 1.0]"
        assert calls == []

    def test_leading_coefficient_alone_where_the_row_fails(self):
        # lambda_0 fails at 0.00125 and a_n vanishes at 0.5: a_n is still
        # read there, and E' is undefined; where a_n itself fails, its error
        nf = normalize(build_equation(["-1 + 0*log(abs(x - 0.00125))", "2*x - 1"], 0.0))
        branch = _chord_branch([0.0, 1.0], [1.0, 1.0], [-1.0, -1.0])
        reading = branch_at(nf, branch, [0.00125, 0.5, 0.75])
        assert reading.leading.tolist() == [2 * 0.00125 - 1.0, 0.0, 0.5]
        assert reading.undefined_slopes.tolist() == [True, True, False]
        assert np.isnan(reading.slopes[:2]).all() and not np.isnan(reading.slopes[2])
        nf = normalize(build_equation(["-1", "1 + 0*log(abs(x - 0.00125))"], 0.0))
        with pytest.raises(ExprDomainError, match=r"^log\(0\.0\) outside real domain at "
                                                  r"x=0\.00125$"):
            branch_at(nf, branch, [0.75, 0.00125])


def _quadratic_coefficient(draw):
    p, q, s = (draw(st.floats(-3.0, 3.0)) for _ in range(3))
    return f"({p!r}) + ({q!r})*x + ({s!r})*x^2"


@st.composite
def branch_inputs(draw):
    """A degree-2-5 equation with coefficients quadratic in x, and a short
    grid: a leading coefficient bounded away from 0 on x >= 0, the others
    free, so the branch starts, refines, vanishes or is lost."""
    degree = draw(st.integers(2, 5))
    coefficients = [_quadratic_coefficient(draw) for _ in range(degree)]
    sign = draw(st.sampled_from(["", "-"]))
    lead = f"{sign}({draw(st.floats(0.5, 2.0))!r} + {draw(st.floats(0.0, 1.0))!r}*x)"
    spacing = draw(st.sampled_from(["linear", "log"]))
    x_start = 0.5 if spacing == "log" else draw(st.sampled_from([0.0, 0.5]))
    grid = GridSpec(x_start, x_start + draw(st.floats(0.5, 20.0)),
                    draw(st.integers(2, 40)), spacing)
    return coefficients + [lead], grid


def _continued(nf, grid):
    """(xs, values, eigenvalues) of continue_branch, or its error text and x."""
    try:
        branch = continue_branch(nf, grid)
    except BranchError as error:
        return str(error), error.x
    return branch.xs.tobytes(), branch.values.tobytes(), branch.eigenvalues.tobytes()


def _walked(nf, grid):
    """The same, from the reference walk over the same roots: grid rows from
    one lockstep call, midpoints a stack of one each (isolating a row in a
    stack or alone gives the same roots, see TestLockstepIsolation)."""
    xs = grid.xs().tolist()
    table = _isolate_roots(xs, nf.sample_grid(xs)[1])
    known = {x: row[~np.isnan(row)].tolist() for x, row in zip(xs, table)}
    try:
        out_xs, values = reference_walk(
            xs, lambda x: known[x] if x in known else real_roots(nf, x), grid.midpoint)
    except WalkError as stop:
        return str(stop), stop.x
    lambdas = [slope_in_y(nf.sample(x)[1], e) for x, e in zip(out_xs, values)]
    return tuple(np.array(v).tobytes() for v in (out_xs, values, lambdas))


class TestReferenceWalk:
    """continue_branch gives what the plain-Python reference walk gives, bit
    for bit, midpoints included, or stops with the same error at the same x."""

    @settings(max_examples=150, deadline=None)
    @given(inputs=branch_inputs())
    @example(inputs=(["exp(x)", "-1"], GridSpec(0.0, 10.0, 31)))
    def test_matches_reference_walk(self, inputs):
        coefficients, grid = inputs
        nf = normalize(build_equation(coefficients, 0.0))
        assert _continued(nf, grid) == _walked(nf, grid)

    def test_refines_at_many_cells(self):
        # the property's explicit example: 28 of its 30 cells need a midpoint
        nf = normalize(build_equation(["exp(x)", "-1"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, 10.0, 31))
        assert branch.xs.size - 31 == 28

    def test_cluster_across_zero_within_the_merge_distance(self):
        # roots near -2.0e-12, 1.5e-12 and 0.5: the root above 0 lies within
        # the merge distance 4e-12 of the one below and is merged into it,
        # so the branch starts at 0.5.  The critical point between them is
        # below 0, so a floor at 0 would leave the negative root out, keep
        # 1.5e-12 > POSITIVE_THRESHOLD and start the branch there.
        row = [1.6500000000000001e-24, -3.500000000032999e-13, -0.4999999999993, 1.0]
        nf = normalize(build_equation([repr(c) for c in row], 0.0))
        grid = GridSpec(0.0, 1.0, 5)
        full, at_zero, floored = (
            _isolate_roots([0.0], np.array([row]), floor)[0]
            for floor in (-math.inf, 0.0, _branch_floor(3)))
        positive = full[full > POSITIVE_THRESHOLD].tolist()
        assert positive == floored[floored > POSITIVE_THRESHOLD].tolist()
        assert len(positive) == 1 and positive[0] == pytest.approx(0.5)
        assert at_zero[0] > POSITIVE_THRESHOLD and at_zero[1:].tolist() == positive
        assert full[0] < 0.0 and at_zero[0] - full[0] <= 4e-12
        assert continue_branch(nf, grid).values.tolist() == positive * 5
        assert _continued(nf, grid) == _walked(nf, grid)

    def test_column_changes_at_every_row(self):
        # (y + 1)(y - 3)((y - 1)^2 - s), s = -0.25 (-1)^x on integer x: the
        # branch stays at 3 while the roots 1 +- 0.5 below it come and go,
        # so its column alternates at every row of both tables
        u = "(0 - 1)^x"
        nf = normalize(build_equation(
            [f"-3 - 0.75*{u}", f"4 - 0.5*{u}", f"2 + 0.25*{u}", "-4", "1"], 0.0))
        grid = GridSpec(0.0, 20.0, 21)
        xs = grid.xs()
        rows = nf.sample_grid(xs)[1]
        for floor, below in ((-math.inf, (1, 3)), (_branch_floor(4), (0, 2))):
            counts = np.count_nonzero(_isolate_roots(xs, rows, floor) < 2.9, axis=1)
            assert counts.tolist() == [below[i % 2] for i in range(21)]
        assert continue_branch(nf, grid).values == pytest.approx(3.0)
        assert _continued(nf, grid) == _walked(nf, grid)

    def test_refinement_inside_a_run_of_one_column(self):
        # (y + 1)(y + 2)(y - E), E = 1 up to x = 5 and then 1 + 0.6 (x - 5):
        # the branch keeps one column throughout, but its step from 5 to 6
        # jumps 0.6 > 0.25 (1 + 1), so the run is broken by one midpoint
        e = "(1 + 0.3*((x - 5) + abs(x - 5)))"
        nf = normalize(build_equation([f"-2*{e}", f"2 - 3*{e}", f"3 - {e}", "1"], 0.0))
        grid = GridSpec(0.0, 10.0, 11)
        branch = continue_branch(nf, grid)
        assert branch.xs.tolist() == [0, 1, 2, 3, 4, 5, 5.5, 6, 7, 8, 9, 10]
        assert branch.values == pytest.approx([1] * 6 + [1.3, 1.6, 2.2, 2.8, 3.4, 4.0])
        assert _continued(nf, grid) == _walked(nf, grid)
