"""Command line front end.

Subcommands: case, integrate, hypotheses, reduce, spread, order-test.
Every run writes CSV files (header row, comma-separated, floats with 17
significant digits) into a per-run output directory and prints a short
summary to standard output.  Identical invocations produce byte-identical
files.

Exit codes: 0 success, 1 numeric failure (solver, branch or reduction),
2 hypothesis failure (a report containing a "fail" entry; inconclusive
entries are not failures), 64 usage or config error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from .cases import get_case, run_case
from .config import (
    ConfigError,
    equation_config,
    load_pairs,
    merton_params,
    solver_config,
)
from .core import normalize
from .equilibrium import (
    BranchError,
    EquilibriumBranch,
    GridSpec,
    ZeroEigenvalueError,
    branch_slopes,
    continue_branch,
)
from .expr import ExprError
from .finance import spread_curve
from .hypotheses import HypothesisReport, verify
from .radau import (
    IntegrationResult,
    NewtonFailure,
    OrderTestError,
    SolverConfig,
    empirical_order,
    integrate,
)
from .rate import diagnose
from .reduction import ReductionError, reduce_about

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_HYPOTHESIS = 2
EXIT_USAGE = 64

ORDER_TEST_STEPS = (0.2, 0.1, 0.05, 0.025)


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def _finite_float(text: str) -> float:
    """argparse type for numeric flags: a finite float, else a usage error
    that names the flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse front end whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_trajectory(path: str, result: IntegrationResult) -> None:
    lines = ["x,y,h_used,newton_iters"]
    for x, y, h, iters in zip(
        result.xs, result.ys, result.h_used, result.newton_per_step
    ):
        lines.append(f"{_g17(x)},{_g17(y)},{_g17(h)},{int(iters)}")
    _write_lines(path, lines)


def _write_branch(path: str, nf, branch: EquilibriumBranch) -> None:
    lines = ["x,E,Lambda,E_prime"]
    slopes, _ = branch_slopes(nf, branch.xs, branch.values, branch.eigenvalues)
    columns = (branch.xs, branch.values, branch.eigenvalues, slopes)
    for x, e, lam, slope in zip(*(c.tolist() for c in columns)):
        lines.append(f"{_g17(x)},{_g17(e)},{_g17(lam)},{_g17(slope)}")
    _write_lines(path, lines)


def _write_report(path: str, report: HypothesisReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(report.to_json() + "\n")


def _write_gnuplot(out_dir: str, name: str, csv_name: str, columns: list[tuple[int, str]],
                   ylabel: str, logx: bool = False) -> None:
    lines = [
        "set datafile separator comma",
        "set xlabel 'x'",
        f"set ylabel '{ylabel}'",
        "set grid",
    ]
    if logx:
        lines.append("set logscale x")
    plots = ", ".join(
        f"'{csv_name}' using 1:{col} with lines title '{title}'"
        for col, title in columns
    )
    lines.append(f"plot {plots}")
    _write_lines(os.path.join(out_dir, name), lines)


def _branch_outputs(equation, x_end: float, out_dir: str, want_report: bool):
    """Shared branch + report path for integrate/hypotheses commands; returns
    the report, or None when none is wanted."""
    nf = normalize(equation)
    grid = GridSpec(equation.x0, x_end, 2001, "linear")
    branch = continue_branch(nf, grid)
    _write_branch(os.path.join(out_dir, "branch.csv"), nf, branch)
    if not want_report:
        return None
    report = verify(nf, branch)
    _write_report(os.path.join(out_dir, "report.json"), report)
    print(report.format_table())
    return report


def _report_exit(report: Optional[HypothesisReport]) -> int:
    if report is not None and report.has_fail:
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _solver_from_flags(args, base: SolverConfig | None = None) -> SolverConfig:
    config = base or SolverConfig()
    updates = {"atol": args.atol, "rtol": args.rtol}
    updates = {name: value for name, value in updates.items() if value is not None}
    return replace(config, **updates) if updates else config


def _cmd_case(args) -> int:
    x_max = args.x_max
    if x_max is None and args.long_run:
        x_max = 2e5 if args.id == 2 else None
    config = _solver_from_flags(args)
    run = run_case(args.id, x_max, config)

    out_dir = _ensure_dir(args.out or f"case{args.id}-output")
    _write_trajectory(os.path.join(out_dir, "trajectory.csv"), run.result)
    _write_branch(os.path.join(out_dir, "branch.csv"), run.nf, run.branch)
    _write_report(os.path.join(out_dir, "report.json"), run.report)
    if args.gnuplot:
        _write_gnuplot(out_dir, "trajectory.gp", "trajectory.csv",
                       [(2, "y(x)")], "y")
        _write_gnuplot(out_dir, "branch.gp", "branch.csv",
                       [(2, "E(x)"), (3, "Lambda(x)")], "branch",
                       logx=args.id == 2)

    print(
        f"case {args.id}: L_numeric={run.diagnostics.L_numeric:.9f}, "
        f"gap={run.gap:.3e}"
    )
    print(run.report.format_table())
    if not run.result.completed:
        print(f"integration failed: {run.result.status}: {run.result.message}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return _report_exit(run.report)


def _cmd_integrate(args) -> int:
    pairs = load_pairs(args.config)
    eq_cfg = equation_config(pairs)
    equation = eq_cfg.build()
    config = _solver_from_flags(args, eq_cfg.solver)

    result = integrate(equation, eq_cfg.y0, eq_cfg.x_end, config)
    out_dir = _ensure_dir(args.out or "integrate-output")
    _write_trajectory(os.path.join(out_dir, "trajectory.csv"), result)
    if args.gnuplot:
        _write_gnuplot(out_dir, "trajectory.gp", "trajectory.csv",
                       [(2, "y(x)")], "y")

    report = None
    if args.branch or args.hypotheses:
        report = _branch_outputs(equation, eq_cfg.x_end, out_dir, args.hypotheses)

    print(
        f"final_x={_g17(result.final_x)} final_y={_g17(result.final_y)} "
        f"accepted={result.n_accepted} rejected={result.n_rejected}"
    )
    if not result.completed:
        print(f"integration failed: {result.status}: {result.message}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return _report_exit(report)


def _cmd_hypotheses(args) -> int:
    pairs = load_pairs(args.config)
    eq_cfg = equation_config(pairs)
    equation = eq_cfg.build()
    out_dir = _ensure_dir(args.out or "hypotheses-output")
    report = _branch_outputs(equation, eq_cfg.x_end, out_dir, True)
    return _report_exit(report)


def _cmd_reduce(args) -> int:
    if (args.case is None) == (args.config is None):
        raise ConfigError("reduce needs exactly one of --case or --config")
    if args.case is not None:
        case = get_case(args.case)
        equation = case.equation
        x_end = args.x_max if args.x_max is not None else case.default_x_end
    else:
        eq_cfg = equation_config(load_pairs(args.config))
        equation = eq_cfg.build()
        x_end = args.x_max if args.x_max is not None else eq_cfg.x_end

    reduced = reduce_about(equation, args.ep, kind="equilibrium")
    at_start = reduced.coefficients(equation.x0)
    pretty = ", ".join(f"{value:g}" for value in at_start)
    print(f"c at x0={equation.x0:g}: ({pretty})")

    out_dir = _ensure_dir(args.out or "reduce-output")
    header = "x," + ",".join(f"c{k}" for k in range(1, reduced.degree + 1))
    lines = [header]
    for x in np.linspace(equation.x0, x_end, 101):
        values = reduced.coefficients(float(x))
        lines.append(",".join([_g17(x)] + [_g17(v) for v in values]))
    _write_lines(os.path.join(out_dir, "reduce.csv"), lines)
    if args.gnuplot:
        _write_gnuplot(out_dir, "reduce.gp", "reduce.csv",
                       [(k + 1, f"c{k}") for k in range(1, reduced.degree + 1)],
                       "coefficients")
    return EXIT_OK


def _cmd_spread(args) -> int:
    params = None
    base = None
    if args.literal_case1 and args.config is not None:
        raise ConfigError("--literal-case1 and --config are mutually exclusive")
    if not args.literal_case1:
        if args.config is None:
            raise ConfigError("parametric spread needs --config with model parameters")
        pairs = load_pairs(args.config)
        params = merton_params(pairs)
        base = solver_config(pairs)
    config = _solver_from_flags(args, base)
    curve = spread_curve(
        params=params,
        x0=args.x0,
        x_end=args.x_max if args.x_max is not None else 20.0,
        config=config,
        literal_case1=args.literal_case1,
    )

    out_dir = _ensure_dir(args.out or "spread-output")
    diag = curve.diagnostics
    lines = [f"# mode={curve.mode}"]
    if curve.params is not None:
        p = curve.params
        lines.append(
            "# params sigma0_sq=" + _g17(p.sigma0_sq)
            + " mu=" + _g17(p.mu) + " r=" + _g17(p.r)
            + " eta1=" + _g17(p.eta1) + " eta2=" + _g17(p.eta2)
        )
    lines.append(f"# plateau_bp={_g17(curve.plateau_bp)}")
    lines.append(
        f"# L_numeric={_g17(diag.L_numeric)} converged={diag.converged}"
        f" trapping_ok={diag.trapping_ok} monotone_ok={diag.monotone_ok}"
        f" max_violation={_g17(diag.max_violation)}"
    )
    lines.append("x,s")
    for x, s in zip(curve.xs, curve.s):
        lines.append(f"{_g17(x)},{_g17(s)}")
    _write_lines(os.path.join(out_dir, "spread.csv"), lines)
    if args.gnuplot:
        _write_gnuplot(out_dir, "spread.gp", "spread.csv", [(2, "s(x)")], "spread")

    print(f"plateau_bp={curve.plateau_bp:.4f} converged={diag.converged}")
    if not curve.result.completed:
        print(f"integration failed: {curve.result.status}: {curve.result.message}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_order_test(args) -> int:
    case = get_case(1)
    slope, errors = empirical_order(
        case.equation, 0.0, 2.0, list(ORDER_TEST_STEPS)
    )
    print("h,error")
    for h, err in zip(ORDER_TEST_STEPS, errors):
        print(f"{_g17(h)},{_g17(err)}")
    print(f"observed order: {slope:.3f}")
    return EXIT_OK


def _add_common_flags(parser, atol_rtol=True, out=True, gnuplot=True):
    if atol_rtol:
        parser.add_argument("--atol", type=_finite_float, default=None)
        parser.add_argument("--rtol", type=_finite_float, default=None)
    if out:
        parser.add_argument("--out", default=None, help="output directory")
    if gnuplot:
        parser.add_argument("--gnuplot", action="store_true",
                            help="also write companion gnuplot scripts")


def build_parser() -> _Parser:
    parser = _Parser(prog="abelode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_case = sub.add_parser("case", help="run a bundled case study")
    p_case.add_argument("id", type=int, choices=(1, 2, 3))
    p_case.add_argument("--x-max", type=_finite_float, default=None)
    p_case.add_argument("--long-run", action="store_true",
                        help="case 2: extend to x_max=2e5")
    _add_common_flags(p_case)
    p_case.set_defaults(func=_cmd_case)

    p_int = sub.add_parser("integrate", help="integrate an equation from a config file")
    p_int.add_argument("config")
    p_int.add_argument("--branch", action="store_true",
                       help="also continue the equilibrium branch")
    p_int.add_argument("--hypotheses", action="store_true",
                       help="also verify hypotheses (implies --branch)")
    _add_common_flags(p_int)
    p_int.set_defaults(func=_cmd_integrate)

    p_hyp = sub.add_parser("hypotheses", help="hypothesis report for a config file")
    p_hyp.add_argument("config")
    _add_common_flags(p_hyp, atol_rtol=False, gnuplot=False)
    p_hyp.set_defaults(func=_cmd_hypotheses)

    p_red = sub.add_parser("reduce", help="deviation-equation coefficients")
    p_red.add_argument("--case", type=int, choices=(1, 2, 3), default=None)
    p_red.add_argument("--config", default=None)
    p_red.add_argument("--ep", type=_finite_float, required=True,
                       help="constant equilibrium pivot value")
    p_red.add_argument("--x-max", type=_finite_float, default=None)
    _add_common_flags(p_red, atol_rtol=False)
    p_red.set_defaults(func=_cmd_reduce)

    p_spr = sub.add_parser("spread", help="credit-spread curve")
    p_spr.add_argument("--literal-case1", action="store_true")
    p_spr.add_argument("--config", default=None,
                       help="config file with model parameters")
    p_spr.add_argument("--x0", type=_finite_float, default=None)
    p_spr.add_argument("--x-max", type=_finite_float, default=None)
    _add_common_flags(p_spr)
    p_spr.set_defaults(func=_cmd_spread)

    p_ord = sub.add_parser("order-test", help="empirical convergence order")
    _add_common_flags(p_ord, atol_rtol=False, out=False, gnuplot=False)
    p_ord.set_defaults(func=_cmd_order_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ReductionError, BranchError, ZeroEigenvalueError, NewtonFailure,
            OrderTestError, ExprError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
