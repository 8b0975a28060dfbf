"""Independent cross-checks used only by the test suite.

Nothing here imports the package under test: the point is to have a
second opinion computed by a different method.
"""

import math

import numpy as np


def _opposite_signs(u, v):
    """Strictly opposite signs, compared directly: the product u * v
    underflows to -0.0 when both are tiny (below ~1e-154)."""
    return (u < 0.0 < v) or (v < 0.0 < u)


def bisect_scan_roots(monic_coeffs, samples=20001, tol=1e-13):
    """All real roots of a monic polynomial by dense sign scan + bisection.

    monic_coeffs are ascending (constant first, leading 1).  The scan
    covers [-R, R] with R the classical coefficient bound 1 + max|c_k|,
    so every real root is bracketed; each sign change is bisected down
    to an interval of width tol.  Roots of even multiplicity produce no
    sign change and are deliberately out of scope for this oracle.
    """
    cs = np.asarray(monic_coeffs, dtype=float)
    if cs[-1] != 1.0:
        raise ValueError("expected a monic polynomial")
    radius = 1.0 + float(np.max(np.abs(cs[:-1])))
    xs = np.linspace(-radius, radius, samples)
    vals = np.polynomial.polynomial.polyval(xs, cs)
    roots = []
    for i in range(samples - 1):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(float(a))
            continue
        if _opposite_signs(fa, fb):
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = float(np.polynomial.polynomial.polyval(mid, cs))
                if fm == 0.0 or (b - a) < tol:
                    a = b = mid
                    break
                if _opposite_signs(fa, fm):
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def trapezoid_cumulative(xs, ys):
    """Plain cumulative trapezoid, anchored at 0 for the first node."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros_like(xs)
    out[1:] = np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))
    return out


def taylor_power_sum(coeffs, g):
    """Taylor coefficients of a polynomial about g, by the plain power sum.

    coeffs are ascending.  Entry k is (1/k!) p^(k)(g) computed as
    sum_{j>=k} C(j, k) c_j g^(j-k) term by term (no Horner).  Returns
    (values, scales): scales[k] is the sum of the absolute terms, the
    magnitude against which rounding differences between summation orders
    are measured.
    """
    n = len(coeffs) - 1
    values, scales = [], []
    for k in range(n + 1):
        terms = [math.comb(j, k) * coeffs[j] * g ** (j - k) for j in range(k, n + 1)]
        values.append(math.fsum(terms))
        scales.append(math.fsum(abs(t) for t in terms))
    return values, scales
