"""Command line front end.

Subcommands: case, integrate, hypotheses, reduce, spread, order-test.
Every run writes CSV files (header row, comma-separated, floats with 17
significant digits) into a per-run output directory and prints a short
summary to standard output.  Identical invocations produce byte-identical
files.

Exit codes: 0 success, 1 numeric failure (solver, branch or reduction)
or standard output closed by its reader (the run stops, silently), 2
hypothesis failure (a report containing a "fail" entry; inconclusive
entries are not failures), 64 usage or config error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .cases import Analysis, get_case, run_case
from .config import ConfigError, equation_config, load_pairs, merton_params, solver_config
from .core import (BranchError, NewtonFailure, OrderTestError, SolverConfig,
                   ZeroEigenvalueError)
from .expr import ExprError

if TYPE_CHECKING:
    from .equilibrium import EquilibriumBranch
    from .hypotheses import HypothesisReport
    from .radau import IntegrationResult

__all__ = ["main"]

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_HYPOTHESIS = 2
EXIT_USAGE = 64

ORDER_TEST_STEPS = (0.2, 0.1, 0.05, 0.025)


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def _plateau(value: float, spec: str) -> str:
    """A plateau estimate in the format spec, or none for the NaN of a run
    that did not complete (rate.diagnose)."""
    return "none" if math.isnan(value) else format(value, spec)


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


def _write_csv(path: str, header: str, rows, preamble=()) -> None:
    """The preamble lines, the header, then one line per row with every cell
    as _g17 gives it (an integer cell keeps its digits), by one %-format of
    the whole row."""
    row_format = ",".join(["%.17g"] * (header.count(",") + 1))
    _write_lines(path, [*preamble, header, *(row_format % tuple(row) for row in rows)])


def _write_branch(path: str, branch: EquilibriumBranch) -> None:
    columns = (branch.xs, branch.values, branch.eigenvalues, branch.slopes)
    _write_csv(path, "x,E,Lambda,E_prime", zip(*(c.tolist() for c in columns)))


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


def _write_trajectory(out_dir: str, result: IntegrationResult, gnuplot: bool) -> None:
    """trajectory.csv, then (under --gnuplot) trajectory.gp."""
    _write_csv(os.path.join(out_dir, "trajectory.csv"), "x,y,h_used,newton_iters",
               zip(result.xs, result.ys, result.h_used, result.newton_per_step))
    if gnuplot:
        _write_gnuplot(out_dir, "trajectory.gp", "trajectory.csv", [(2, "y(x)")], "y")


def _branch_outputs(run: Analysis, out_dir: str, want_report: bool) -> Optional[HypothesisReport]:
    """branch.csv, then (if wanted) report.json and the printed table, from
    an Analysis (a CaseRun is one); returns the report or None."""
    _write_branch(os.path.join(out_dir, "branch.csv"), run.branch)
    if not want_report:
        return None
    _write_lines(os.path.join(out_dir, "report.json"), [run.report.to_json()])
    print(run.report.format_table())
    return run.report


def _numeric_failure(err: Exception) -> int:
    print(f"numeric failure: {err}", file=sys.stderr)
    return EXIT_NUMERIC


def _exit_code(result: Optional[IntegrationResult], report: Optional[HypothesisReport]) -> int:
    """Numeric failure for an unfinished integration (saying why on stderr),
    else hypothesis failure for a report with a fail entry."""
    if result is not None and not result.completed:
        print(f"integration failed: {result.status}: {result.message}",
              file=sys.stderr)
        return EXIT_NUMERIC
    if report is not None and report.has_fail:
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _solver_from_flags(args, base: SolverConfig | None = None) -> SolverConfig:
    config = base or SolverConfig()
    updates = {name: getattr(args, name, None) for name in ("atol", "rtol")}
    updates = {name: value for name, value in updates.items() if value is not None}
    return replace(config, **updates) if updates else config


def _config_analysis(args, branch: bool) -> Analysis:
    """The config file's equation on a 2,001-point linear grid from x0, or
    with no grid (and no equilibrium import) for a run that reads no branch."""
    eq_cfg = equation_config(load_pairs(args.config))
    grid = None
    if branch:
        from .equilibrium import GridSpec

        grid = GridSpec(eq_cfg.equation.x0, eq_cfg.x_end, 2001, "linear")
    return Analysis(eq_cfg.equation, eq_cfg.y0, eq_cfg.x_end, grid,
                    _solver_from_flags(args, eq_cfg.solver))


def _cmd_case(args) -> int:
    if args.long_run and args.id != 2:
        raise ValueError(f"--long-run is for case 2 only, got case {args.id}")
    if args.long_run and args.x_max is not None:
        raise ValueError("--long-run and --x-max are mutually exclusive")
    x_max = 2e5 if args.long_run else args.x_max
    run = run_case(args.id, x_max, _solver_from_flags(args))

    out_dir = _ensure_dir(args.out or f"case{args.id}-output")
    _write_trajectory(out_dir, run.result, args.gnuplot)
    if args.gnuplot:
        _write_gnuplot(out_dir, "branch.gp", "branch.csv",
                       [(2, "E(x)"), (3, "Lambda(x)")], "branch",
                       logx=args.id == 2)

    print(f"case {args.id}: L_numeric={_plateau(run.diagnostics.L_numeric, '.9f')}, "
          f"gap={run.gap:.3e}")
    return _exit_code(run.result, _branch_outputs(run, out_dir, True))


def _cmd_integrate(args) -> int:
    want_branch = args.branch or args.hypotheses
    run = _config_analysis(args, want_branch)
    result = run.result
    out_dir = _ensure_dir(args.out or "integrate-output")
    _write_trajectory(out_dir, result, args.gnuplot)

    report = _branch_outputs(run, out_dir, args.hypotheses) if want_branch else None

    print(
        f"final_x={_g17(result.final_x)} final_y={_g17(result.final_y)} "
        f"accepted={result.n_accepted} rejected={result.n_rejected}"
    )
    return _exit_code(result, report)


def _cmd_hypotheses(args) -> int:
    run = _config_analysis(args, True)
    out_dir = _ensure_dir(args.out or "hypotheses-output")
    return _exit_code(None, _branch_outputs(run, out_dir, True))


def _cmd_reduce(args) -> int:
    from .reduction import ReductionError, reduce_about

    if (args.case is None) == (args.config is None):
        raise ConfigError("reduce needs exactly one of --case or --config")
    if args.case is not None:
        case = get_case(args.case)
        equation = case.equation
        x_end = args.x_max if args.x_max is not None else case.default_x_end
    else:
        eq_cfg = equation_config(load_pairs(args.config))
        equation = eq_cfg.equation
        x_end = args.x_max if args.x_max is not None else eq_cfg.x_end
    if not x_end > equation.x0:
        raise ValueError(f"x_max={x_end!r} must exceed x0={equation.x0!r}")

    xs = np.linspace(equation.x0, x_end, 101)  # the rows of reduce.csv, x0 the first
    try:
        reduced = reduce_about(equation, args.ep, xs, kind="equilibrium")
    except ReductionError as err:  # a ValueError, but a numeric failure
        return _numeric_failure(err)
    table = reduced.coefficients(xs)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:  # a finite pivot can still shift to inf - inf or inf * 0
        i, k = bad[0].tolist()
        return _numeric_failure(ReductionError(
            f"reduced coefficient c{k + 1} = {table[i, k].item()!r} is not finite "
            f"at x={xs[i].item()!r}"))
    pretty = ", ".join(f"{value:g}" for value in table[0].tolist())
    print(f"c at x0={equation.x0:g}: ({pretty})")

    out_dir = _ensure_dir(args.out or "reduce-output")
    header = "x," + ",".join(f"c{k}" for k in range(1, reduced.degree + 1))
    _write_csv(os.path.join(out_dir, "reduce.csv"), header,
               np.column_stack([xs, table]).tolist())
    if args.gnuplot:
        _write_gnuplot(out_dir, "reduce.gp", "reduce.csv",
                       [(k + 1, f"c{k}") for k in range(1, reduced.degree + 1)],
                       "coefficients")
    return EXIT_OK


def _cmd_spread(args) -> int:
    from .finance import spread_curve

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
    )

    out_dir = _ensure_dir(args.out or "spread-output")
    diag = curve.diagnostics
    preamble = [f"# mode={curve.mode}"]
    if curve.params is not None:
        p = curve.params
        preamble.append(
            "# params sigma0_sq=" + _g17(p.sigma0_sq)
            + " mu=" + _g17(p.mu) + " r=" + _g17(p.r)
            + " eta1=" + _g17(p.eta1) + " eta2=" + _g17(p.eta2)
        )
    preamble.append(f"# plateau_bp={_plateau(curve.plateau_bp, '.17g')}")
    preamble.append(
        f"# L_numeric={_plateau(diag.L_numeric, '.17g')} converged={diag.converged}"
        f" trapping_ok={diag.trapping_ok} monotone_ok={diag.monotone_ok}"
        f" max_violation={_g17(diag.max_violation)}"
    )
    _write_csv(os.path.join(out_dir, "spread.csv"), "x,s", zip(curve.xs, curve.s), preamble)
    if args.gnuplot:
        _write_gnuplot(out_dir, "spread.gp", "spread.csv", [(2, "s(x)")], "spread")

    print(f"plateau_bp={_plateau(curve.plateau_bp, '.4f')} converged={diag.converged}")
    return _exit_code(curve.result, None)


def _cmd_order_test(args) -> int:
    from .radau import empirical_order

    case = get_case(1)
    slope, errors = empirical_order(
        case.equation, 0.0, 2.0, list(ORDER_TEST_STEPS)
    )
    print("h,error")
    for h, err in zip(ORDER_TEST_STEPS, errors):
        print(f"{_g17(h)},{_g17(err)}")
    print(f"observed order: {slope:.3f}")
    return EXIT_OK


def _add_common_flags(parser, atol_rtol=True, gnuplot=True):
    if atol_rtol:
        parser.add_argument("--atol", type=_finite_float, default=None)
        parser.add_argument("--rtol", type=_finite_float, default=None)
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
    p_ord.set_defaults(func=_cmd_order_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early is met here, not at exit
        return code
    except BrokenPipeError:
        # stdout to devnull, so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_NUMERIC
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (BranchError, ZeroEigenvalueError, NewtonFailure, OrderTestError,
            ExprError) as err:
        return _numeric_failure(err)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
