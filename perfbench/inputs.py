"""Seeded input generator for the stiff and cli workloads.

Every generated equation is built so that its answer is known before the
program runs:

    y' = s (y - r1(x)) (y - r2) (y + r3)              degree 3
    y' = s (y - r1(x)) (y - r2) (y + r3) (y^2 + q)     degree 5

with r1(x) = L + A exp(-k x), -L < A < 0 (so r1 rises from L + A > 0 to
L), r2 > L >= max r1, r3 > 0, q > 0 and s > 0.  Between -r3 and r2 the
only root is r1, and dF/dy < 0 there, so r1 is the stable positive branch
and its limit is L.  A trajectory started at y0 = 0 (below r1) is trapped
under the branch and converges to L.  The horizon is 50/k, past the 40/k
after which |A| exp(-k x) is below 5e-18 |A|.

The program only ever sees the coefficient strings (or config text);
the oracle values stay in the benchmark.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: equations per round of the stiff workload (half degree 3, half degree 5)
STIFF_EQUATIONS = 24

#: the stiffness s/k is log-stratified over [1, STIFF_MAX_STIFFNESS]
STIFF_MAX_STIFFNESS = 1e3

#: the cli configs use a mild, narrow stiffness band so that a process's
#: cost does not swing with the seed
CLI_STIFFNESS = (1.0, 3.0)


@dataclass(frozen=True)
class GeneratedEquation:
    """Coefficient strings a_0..a_n plus the values the oracle needs."""

    degree: int
    coefficients: tuple[str, ...]
    x_end: float
    limit: float

    def config_text(self) -> str:
        """The equation as an abelode config file (x0 = 0, y0 = 0)."""
        return (
            f"# generated: limit L = {self.limit!r}\n"
            f"degree = {self.degree}\n"
            f"coefficients = {' | '.join(self.coefficients)}\n"
            "x0 = 0\n"
            "y0 = 0\n"
            f"x_end = {self.x_end!r}\n"
        )


def _poly_mul(p: list[list[float]], q: list[list[float]]) -> list[list[float]]:
    """Product of polynomials in y whose coefficients are polynomials in r1.

    p[j][m] is the coefficient of y^j r1^m.
    """
    out = [[0.0] * (len(p[0]) + len(q[0]) - 1) for _ in range(len(p) + len(q) - 1)]
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            for a, pa in enumerate(pi):
                for b, qb in enumerate(qj):
                    out[i + j][a + b] += pa * qb
    return out


def make_equation(degree: int, stiffness: float, u: list[float]) -> GeneratedEquation:
    """One equation of the family above with the given degree and stiffness.

    The stiffness is s/k: in the variable t = k x the equation reads
    dy/dt = (s/k) P(y, t), so s/k (not s alone) sets how stiff a run is
    and how much work it takes over the fixed horizon t = 50.  u holds
    five numbers in [0, 1) that place L, A/L, k, r2 - L and r3 in their
    ranges; q is tied to r3 (a small r3 comes with a large q).
    """
    limit = 0.3 + 0.7 * u[0]
    amp = -(0.3 + 0.6 * u[1]) * limit
    k = 0.5 + 1.5 * u[2]
    scale = stiffness * k
    r2 = limit + 0.5 + 0.5 * u[3]
    r3 = 0.5 + u[4]
    # polynomial in y, each coefficient [constant, multiple of r1]
    poly = [[0.0, -1.0], [1.0, 0.0]]                 # y - r1
    poly = _poly_mul(poly, [[-r2], [1.0]])           # (y - r2)
    poly = _poly_mul(poly, [[r3], [1.0]])            # (y + r3)
    if degree == 5:
        q = 2.0 - 1.5 * u[4]
        poly = _poly_mul(poly, [[q], [0.0], [1.0]])  # (y^2 + q)
    elif degree != 3:
        raise ValueError(f"degree must be 3 or 5, got {degree}")
    r1 = f"({limit!r} + {amp!r}*exp(-{k!r}*x))"
    coefficients = []
    for const, linear in poly:
        if linear == 0.0:
            coefficients.append(repr(scale * const))
        else:
            coefficients.append(f"{scale!r}*({const!r} + {linear!r}*{r1})")
    return GeneratedEquation(degree, tuple(coefficients), 50.0 / k, limit)


def _latin_hypercube(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """n points in [0, 1)^dims with exactly one point per 1/n slice of
    every axis, so each seed covers every parameter range evenly."""
    columns = []
    for _ in range(dims):
        slots = list(range(n))
        rng.shuffle(slots)
        columns.append([(slot + rng.random()) / n for slot in slots])
    return [list(point) for point in zip(*columns)]


def stiff_equations(seed: int, batch: int) -> list[GeneratedEquation]:
    """STIFF_EQUATIONS equations for one round, degrees alternating 3 and 5.

    Per degree, log10(s/k) is stratified over [0, 3] and the other
    parameters follow a Latin hypercube, so the work in a round barely
    depends on the seed.  Every batch (round) draws new equations.
    """
    rng = random.Random(f"stiff-{seed}-{batch}")
    per_degree = STIFF_EQUATIONS // 2
    span = math.log10(STIFF_MAX_STIFFNESS)
    equations = []
    designs = {degree: _latin_hypercube(rng, per_degree, 6) for degree in (3, 5)}
    for i in range(per_degree):
        for degree in (3, 5):
            u = designs[degree][i]
            stiffness = 10.0 ** (span * (i + u[5]) / per_degree)
            equations.append(make_equation(degree, stiffness, u))
    return equations


def cli_equations(seed: int, batch: int) -> list[GeneratedEquation]:
    """One degree-3 and one degree-5 config equation for one cli round."""
    rng = random.Random(f"cli-{seed}-{batch}")
    return [
        make_equation(degree, rng.uniform(*CLI_STIFFNESS), [rng.random() for _ in range(5)])
        for degree in (3, 5)
    ]
