"""Grid-verified checks of the structural and asymptotic hypotheses.

The plateau theory needs, on the working range:

    A1  positive leading coefficient: a_n(x) >= m > 0
    A2  finite normalized coefficients lambda_k(x)
    A3  a positive equilibrium branch E(x) > 0
    A4  uniform stability: Lambda(x) <= -alpha < 0
    B1  a finite positive limit L = lim E(x)
    B2  a positive asymptotic decay floor alpha0 = inf alpha
    B3  integrability of Phi(s)^{-1} |E'(s)|

Every check samples a finite grid, so a "pass" is always grid-verified
sampling evidence, never a proof; the report says so explicitly.  Checks
never raise: violations, endpoint degeneracies and undecidable tails
become fail or inconclusive entries with witnesses.  A witness value is a
float and may be inf or nan (Lambda overflows where the branch root is
near the float range); the report's JSON writes such a value as null and
names it in the entry's note, so every report.json is strict JSON.

A3 scans the branch grid, plus the equation's x0 where the branch starts
right of it, so a left end the branch had to step away from (case 2) is
reported, not skipped, whoever calls verify.

B3 reads the rate bound's log drift sums (rate.damped_drift): pass when
the tail window [x_start + (x_end - x_start)/10, x_end] of the branch
grid ([x_end/10, x_end] where x_start = 0; a shift of x moves it along)
carries below 1% of the trapezoid integral (or the integral is exactly
zero), inconclusive otherwise, since a tail-dominated integral on every
finite grid is the numerical signature of divergence.  The share comes
from the log sums, so it lies in [0, 1] and stays defined where the
integral overflows float64.  E' is exact, and B3 passes the branch
itself as damped_drift's points, so it reads the E' the branch stores
(EquilibriumBranch.slopes), formed by the continuation from its own
samples, and Phi from the a_n and Lambda it stores, so B3 evaluates no
coefficient; where a coefficient or its x-derivative does not evaluate
at a grid point (sqrt(1 - x) at x = 1), or where Lambda = 0 or, on a
branch built by hand, a_n = 0, B3 is inconclusive and the note says
which (the first such point decides).  B3 is also inconclusive at rate's
two guards, checked first and last, each with its own note
(B3_PHI_RANGE, B3_OVERFLOW; see rate).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import LeadingCoefficientError, NormalForm, ZeroEigenvalueError
from .equilibrium import POSITIVE_THRESHOLD, EquilibriumBranch
from .expr import ExprDomainError
from .rate import damped_drift, _drift_integral

__all__ = [
    "ALPHA_FLOOR",
    "HypothesisEntry",
    "HypothesisReport",
    "check_structural",
    "check_asymptotic",
    "verify",
]

#: |Lambda| below this cannot be distinguished from 0 on a grid
ALPHA_FLOOR = 1e-8

#: last-decade share of the B3 integral above which the tail dominates
B3_TAIL_SHARE = 0.01

#: B3 note where Phi, or its growth over one grid cell, leaves the float range
B3_PHI_RANGE = "Phi or its growth over one grid cell exceeds the float range"

#: B3 note where the damped drift Phi_N I_N falls below the normal floats and
#: the damped sums lose the total
B3_OVERFLOW = "damping reciprocal overflows on the grid (divergent integrand)"

GRID_VERIFIED = "grid-verified sampling check, not a proof"


@dataclass
class HypothesisEntry:
    id: str
    status: str  # "pass" | "fail" | "inconclusive"
    witness: dict[str, float] = field(default_factory=dict)
    note: str = ""


@dataclass
class HypothesisReport:
    """Check entries by id and the grids they read.  note is GRID_VERIFIED,
    read-only.  branch is empty unless the branch had ambiguous points;
    then it holds their count, the branch's refinement count and its note,
    and to_json and format_table carry it (reports of unambiguous branches
    carry no branch key and no footer line for it)."""

    entries: dict[str, HypothesisEntry]
    grid_info: dict[str, float | int | str]
    branch: dict[str, int | str] = field(default_factory=dict)

    def __getitem__(self, key: str) -> HypothesisEntry:
        return self.entries[key]

    @property
    def note(self) -> str:
        return GRID_VERIFIED

    @property
    def has_fail(self) -> bool:
        return any(e.status == "fail" for e in self.entries.values())

    def to_json(self) -> str:
        payload = {
            "note": self.note,
            "grid": self.grid_info,
            "checks": [_json_entry(self.entries[k]) for k in sorted(self.entries)],
        }
        if self.branch:
            payload["branch"] = self.branch
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)

    def format_table(self) -> str:
        lines = [f"{'check':<6} {'status':<13} witness"]
        for key in sorted(self.entries):
            entry = self.entries[key]
            witness = " ".join(
                f"{name}={value:.9g}" for name, value in sorted(entry.witness.items())
            )
            lines.append(f"{entry.id:<6} {entry.status:<13} {witness}".rstrip())
        lines.append(f"({self.note})")
        if self.branch:
            lines.append(f"(branch: {self.branch['note']})")
        return "\n".join(lines)


def _json_entry(entry: HypothesisEntry) -> dict:
    """asdict(entry), with each witness value that is not finite written as
    None (JSON null) and named, with its value, at the end of the note."""
    record = asdict(entry)
    dropped = [f"{name}={value!r}" for name, value in sorted(entry.witness.items())
               if not math.isfinite(value)]
    if dropped:
        record["witness"] = {name: value if math.isfinite(value) else None
                             for name, value in entry.witness.items()}
        record["note"] = f"{entry.note}; not finite, written as null: {', '.join(dropped)}"
    return record


def _grid_info(xs: np.ndarray, label: str) -> dict:
    return {
        f"{label}_start": float(xs[0]),
        f"{label}_end": float(xs[-1]),
        f"{label}_count": int(xs.size),
    }


def check_structural(nf: NormalForm, branch: EquilibriumBranch) -> HypothesisReport:
    """A1..A4 on the working grid.

    A1, A2 and A4 read the branch's table (a_n, the monic rows, Lambda),
    sampled where the equation is actually being used.  A3 scans the
    working range [x0, x_end]: the branch grid, with the equation's x0 in
    front where the branch starts right of it (a domain endpoint the
    branch had to step away from, as case 2's does).  A vanishing or
    uncovered branch value at an endpoint is inconclusive (degenerate
    domain boundary), in the interior it is a failure.
    """
    x0 = nf.equation.x0
    xs, values = ((np.concatenate(([x0], branch.xs)), np.concatenate(([np.nan], branch.values)))
                  if branch.x_start > x0 else (branch.xs, branch.values))
    entries: dict[str, HypothesisEntry] = {}

    idx = int(np.argmin(branch.leading))
    m = float(branch.leading[idx])
    if m > 0.0:
        entries["A1"] = HypothesisEntry("A1", "pass", {"m": m}, GRID_VERIFIED)
    else:
        entries["A1"] = HypothesisEntry(
            "A1", "fail", {"m": m, "worst_x": float(branch.xs[idx])},
            "leading coefficient not positive",
        )

    lam_bad = np.flatnonzero(~np.isfinite(branch.rows).all(axis=1))
    if lam_bad.size == 0:
        entries["A2"] = HypothesisEntry("A2", "pass", {}, GRID_VERIFIED)
    else:
        entries["A2"] = HypothesisEntry(
            "A2", "fail", {"worst_x": float(branch.xs[lam_bad[0]])},
            "normalized coefficient not finite",
        )

    # A3: the witness is the last failing interior point, else the last
    # failing endpoint; NaN marks a point the branch does not cover
    bad = np.flatnonzero(~(values > POSITIVE_THRESHOLD))
    interior = bad[(bad > 0) & (bad < xs.size - 1)]
    if bad.size == 0:
        entries["A3"] = HypothesisEntry(
            "A3", "pass", {"worst_value": float(branch.values.min())}, GRID_VERIFIED
        )
    else:
        i = interior[-1] if interior.size else bad[-1]
        witness = {"worst_x": float(xs[i])}
        if math.isfinite(values[i]):
            witness["worst_value"] = float(values[i])
        if interior.size:
            entries["A3"] = HypothesisEntry(
                "A3", "fail", witness, "no positive branch value at an interior grid point"
            )
        else:
            entries["A3"] = HypothesisEntry(
                "A3", "inconclusive", witness,
                "branch degenerate or uncovered at a grid endpoint",
            )

    lam_max = float(branch.eigenvalues.max())
    idx = int(np.argmax(branch.eigenvalues))
    if lam_max <= -ALPHA_FLOOR:
        entries["A4"] = HypothesisEntry(
            "A4", "pass", {"alpha0": -lam_max}, GRID_VERIFIED
        )
    elif lam_max < 0.0:
        entries["A4"] = HypothesisEntry(
            "A4", "inconclusive",
            {"alpha0": -lam_max, "worst_x": float(branch.xs[idx])},
            "stability margin below the resolvable floor",
        )
    else:
        entries["A4"] = HypothesisEntry(
            "A4", "fail",
            {"worst_x": float(branch.xs[idx]), "worst_value": lam_max},
            "non-negative eigenvalue on the branch",
        )

    return HypothesisReport(entries, _grid_info(xs, "structural"))


def check_asymptotic(branch: EquilibriumBranch) -> HypothesisReport:
    """B1..B3 over the branch tail, read off the branch alone."""
    entries: dict[str, HypothesisEntry] = {}

    limit = branch.L
    sup_e = branch.sup_E
    if limit is None:
        entries["B1"] = HypothesisEntry(
            "B1", "inconclusive", {"sup_E": sup_e},
            "tail window has not settled to the relative tolerance",
        )
    elif limit > 0.0 and math.isfinite(limit):
        entries["B1"] = HypothesisEntry(
            "B1", "pass", {"L": limit, "sup_E": sup_e}, GRID_VERIFIED
        )
    else:
        entries["B1"] = HypothesisEntry(
            "B1", "fail", {"L": limit}, "tail limit not positive"
        )

    alpha0 = float((-branch.eigenvalues).min())
    if alpha0 >= ALPHA_FLOOR:
        entries["B2"] = HypothesisEntry("B2", "pass", {"alpha0": alpha0}, GRID_VERIFIED)
    elif alpha0 > 0.0:
        entries["B2"] = HypothesisEntry(
            "B2", "inconclusive", {"alpha0": alpha0},
            "decay floor below the resolvable threshold",
        )
    else:
        entries["B2"] = HypothesisEntry(
            "B2", "fail", {"alpha0": alpha0}, "no positive decay floor"
        )

    entries["B3"] = _check_b3(branch)
    return HypothesisReport(entries, _grid_info(branch.xs, "tail"))


def _check_b3(branch: EquilibriumBranch) -> HypothesisEntry:
    xs = branch.xs
    try:
        log_phi, log_drift = damped_drift(branch, branch)
    except ZeroEigenvalueError:
        note = "branch derivative undefined (zero eigenvalue) on the grid"
        return HypothesisEntry("B3", "inconclusive", {}, note)
    except (ExprDomainError, LeadingCoefficientError) as err:
        return HypothesisEntry("B3", "inconclusive", {}, str(err))
    except OverflowError:
        return HypothesisEntry("B3", "inconclusive", {}, B3_PHI_RANGE)
    total = _drift_integral(log_phi, log_drift)
    if total == 0.0:
        return HypothesisEntry("B3", "pass", {"B3_integral": 0.0}, GRID_VERIFIED)
    if math.isnan(total):
        return HypothesisEntry("B3", "inconclusive", {}, B3_OVERFLOW)

    # I_i / I_N, in [0, 1] as the log sums never decrease
    with np.errstate(all="ignore"):
        fraction = np.exp(log_drift - log_drift[-1])
    start = branch.x_start + (branch.x_end - branch.x_start) / 10.0
    share = 1.0 - float(np.interp(start, xs, fraction))
    witness = {"tail_share": share}
    note = "integral overflows float64 and is dominated by the last decade of the grid"
    if math.isfinite(total):
        witness["B3_integral"] = total
        note = "integral dominated by the last decade of the grid"
    if share < B3_TAIL_SHARE:
        return HypothesisEntry("B3", "pass", witness, GRID_VERIFIED)
    return HypothesisEntry("B3", "inconclusive", witness, note)


def verify(nf: NormalForm, branch: EquilibriumBranch) -> HypothesisReport:
    """Structural and asymptotic checks in one report, the structural entries
    and grid first, with the branch's ambiguity (ambiguous_count,
    refinements, note) where it had ambiguous points."""
    structural, asymptotic = check_structural(nf, branch), check_asymptotic(branch)
    report = HypothesisReport({**structural.entries, **asymptotic.entries},
                              {**structural.grid_info, **asymptotic.grid_info})
    if branch.ambiguous_count:
        report.branch = {"ambiguous_count": branch.ambiguous_count,
                         "refinements": branch.refinements, "note": branch.note}
    return report
