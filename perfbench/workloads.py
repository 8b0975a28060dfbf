"""The three workloads: what one op is, the inputs, and the oracles.

A workload is a round of ops that runs in a closed loop with one client:
the next op starts when the previous one has finished.  A run repeats
whole rounds, so every op of the mix is sampled equally often.

An op has an ``execute`` (the timed call) and a ``check`` (the untimed
oracle), which returns a list of problems ``(kind, detail)``.  An op
fails when it has any problem:

    raised      the call raised
    exit        a CLI process exited with another code than documented
    incomplete  an integration did not complete
    oracle      a returned or printed value missed its oracle
    nonfinite   a NaN or inf leaked into a returned array

"exit" and "oracle" mean a wrong answer; the other kinds mean no answer.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: kinds of problem that mean the program answered wrongly
WRONG_ANSWER = ("exit", "oracle")

EXACT_LIMITS = {1: math.sqrt(2.0) - 1.0, 2: (3.0 - math.sqrt(5.0)) / 2.0, 3: 1.0}

#: |branch.L - L|: the program settles the tail to 1e-7 relative, and the
#: case-2 branch still moves like 1/x at the end of its 1e7 grid
BRANCH_LIMIT_TOL = 1e-6

#: |final_y - L| for generated equations, solved with atol = rtol = 1e-11
GENERATED_LIMIT_TOL = 1e-9

#: a CLI process that has not ended after this long is killed
CHILD_TIMEOUT_S = 120.0

Problem = tuple[str, str]


@dataclass
class Op:
    name: str
    execute: Callable[[], object]
    check: Callable[[object], list[Problem]]


@dataclass
class Workload:
    name: str
    why: str
    #: the ops of each round, in order
    rounds: list[list[Op]]
    #: False when every op is a child process
    in_process: bool
    #: what a fresh interpreter builds for the set-up measurement
    setup_spec: dict
    #: the same rounds with tracing inside each child (cli only)
    traced_rounds: Callable[[], list[list[Op]]] | None = None


#: typical wall-clock seconds per round on a shared 2-core x86_64 virtual
#: machine; a run measures round(seconds / NOMINAL_ROUND_S) whole rounds,
#: so the number of samples (and the tail percentile) is the same on every
#: run and every commit
NOMINAL_ROUND_S = {"cases": 2.3, "stiff": 3.1, "cli": 10.5}


def _nonfinite(name: str, values) -> list[Problem]:
    bad = int(np.count_nonzero(~np.isfinite(np.asarray(values, dtype=float))))
    return [("nonfinite", f"{bad} non-finite {name} entries")] if bad else []


# -- cases ----------------------------------------------------------------

CASES_WHY = (
    "the paper's headline runs (cases 1-3 and the case-2 long run) plus rate_bound; "
    "branch continuation is ~80% of an op, Radau under 10%"
)

CASE_SPECS = ((1, None), (2, None), (3, None), (2, 2e5))


def _case_label(case_id: int, x_max) -> str:
    return f"case {case_id}" + ("" if x_max is None else f" x_max={x_max:g}")


def _reference_row(case, horizon: float):
    for row in case.reference_results:
        if row.x_max == horizon:
            return row
    raise LookupError(f"case {case.id} has no reference row at x_max={horizon!r}")


def _check_case(case_id: int, x_max, outcome) -> list[Problem]:
    run, bound = outcome
    label = _case_label(case_id, x_max)
    limit = EXACT_LIMITS[case_id]
    problems: list[Problem] = []
    if not run.result.completed:
        problems.append(("incomplete", f"{label}: {run.result.status}"))
    for name, values in (
        ("branch E", run.branch.values),
        ("branch Lambda", run.branch.eigenvalues),
        ("trajectory y", run.result.ys),
        ("RateBound.Phi", bound.Phi),
        ("RateBound.bound", bound.bound),
    ):
        problems += [(kind, f"{label}: {detail}") for kind, detail in _nonfinite(name, values)]

    # exact limit of the branch
    if run.branch.L is None or not abs(run.branch.L - limit) <= BRANCH_LIMIT_TOL:
        problems.append(("oracle", f"{label}: branch.L={run.branch.L!r}, exact {limit!r}"))
    # reference row at this horizon: value, and gap to the exact limit
    horizon = run.case.default_x_end if x_max is None else x_max
    row = _reference_row(run.case, horizon)
    final_y = run.result.final_y
    if not abs(final_y - row.y_ref) <= 5e-6 + 1e-2 * row.gap_ref:
        problems.append(("oracle", f"{label}: final_y={final_y!r}, reference {row.y_ref!r}"))
    if not abs(final_y - limit) <= 1.5 * row.gap_ref:
        problems.append(("oracle", f"{label}: |final_y - L|={abs(final_y - limit):.3e} "
                                   f"above 1.5 x {row.gap_ref:g}"))
    # envelope: Phi K dominates |y - E| wherever it is finite
    deviation = np.abs(run.result.ys - run.branch.interp_E(run.result.xs))
    covered = (run.result.xs >= run.branch.x_start) & (run.result.xs <= run.branch.x_end)
    deviation = deviation[covered]
    finite = np.isfinite(bound.bound)
    if deviation.shape != bound.bound.shape:
        problems.append(("oracle", f"{label}: envelope has {bound.bound.size} points, "
                                   f"trajectory {deviation.size}"))
    elif not np.all(bound.bound[finite] >= deviation[finite]):
        worst = float(np.min(bound.bound[finite] - deviation[finite]))
        problems.append(("oracle", f"{label}: envelope below |y - E| by {-worst:.3e}"))
    return problems


def cases_workload(seed: int, workdir: Path, rounds: int) -> Workload:
    import abelode

    specs = list(CASE_SPECS)
    random.Random(seed).shuffle(specs)

    def op(case_id, x_max):
        def execute():
            # looked up at call time so that the tracer's wrappers apply
            run = abelode.run_case(case_id, x_max)
            return run, abelode.rate_bound(run.nf, run.branch, run.result)

        return Op(_case_label(case_id, x_max), execute,
                  lambda outcome: _check_case(case_id, x_max, outcome))

    ops = [op(case_id, x_max) for case_id, x_max in specs]
    return Workload(
        name="cases",
        why=CASES_WHY,
        rounds=[ops] * rounds,
        in_process=True,
        setup_spec={"cases": specs},
    )


# -- stiff ----------------------------------------------------------------

STIFF_WHY = (
    "seeded degree-3/5 equations integrated alone at atol=rtol=1e-11; Radau and "
    "per-stage expr evaluation are the op, equilibrium is not run"
)


def _check_stiff(gen: inputs.GeneratedEquation, label: str, result) -> list[Problem]:
    problems = _nonfinite("trajectory y", result.ys) + _nonfinite("trajectory x", result.xs)
    problems = [(kind, f"{label}: {detail}") for kind, detail in problems]
    if not result.completed:
        return problems + [("incomplete", f"{label}: {result.status}: {result.message}")]
    if result.final_x != gen.x_end:
        problems.append(("oracle", f"{label}: final_x={result.final_x!r}, x_end {gen.x_end!r}"))
    if not abs(result.final_y - gen.limit) <= GENERATED_LIMIT_TOL:
        problems.append(("oracle", f"{label}: final_y={result.final_y!r}, limit {gen.limit!r}"))
    # trapped between 0 and the rising branch, which stays below L
    low, high = float(np.min(result.ys)), float(np.max(result.ys))
    if low < -GENERATED_LIMIT_TOL or high > gen.limit + GENERATED_LIMIT_TOL:
        problems.append(("oracle", f"{label}: y left [0, L]: [{low!r}, {high!r}]"))
    return problems


def stiff_workload(seed: int, workdir: Path, rounds: int) -> Workload:
    import abelode

    config = abelode.SolverConfig(atol=1e-11, rtol=1e-11)
    batches = [inputs.stiff_equations(seed, r) for r in range(rounds)]

    def op(label, gen):
        equation = abelode.build_equation(list(gen.coefficients), x0=0.0)
        return Op(label,
                  lambda: abelode.integrate(equation, 0.0, gen.x_end, config),
                  lambda result: _check_stiff(gen, label, result))

    return Workload(
        name="stiff",
        why=STIFF_WHY,
        rounds=[[op(f"round {r} eq {i} degree {gen.degree}", gen) for i, gen in enumerate(batch)]
                for r, batch in enumerate(batches)],
        in_process=True,
        setup_spec={"equations": [list(gen.coefficients) for batch in batches for gen in batch]},
    )


# -- cli ------------------------------------------------------------------

CLI_WHY = (
    "one python -m abelode.cli process per op over all six subcommands; the only "
    "workload paying import, config, reduction, finance and output files"
)

#: model parameters of the documented spread runs (exit 0 at r = 0, exit 1
#: at r = 0.01, where the integration fails)
SPREAD_CONFIGS = {
    "spread-r0": "sigma0_sq = 1.2\nmu = 1.5\nr = 0\neta1 = 0.1\neta2 = 0.05\n",
    "spread-r0.01": "sigma0_sq = 1.2\nmu = 1.5\nr = 0.01\neta1 = 0.1\neta2 = 0.05\n",
}

OUT = "<out>"
HYPOTHESIS_IDS = ("A1", "A2", "A3", "A4", "B1", "B2", "B3")


@dataclass
class ChildOutcome:
    code: int
    stdout: str
    stderr: str
    max_rss_kb: int
    rundir: Path
    #: filled in by the check: bytes under --out, and the traced child's spans
    bytes_written: int = 0
    trace: dict | None = None


def run_child(cmd: list[str], cwd: Path) -> ChildOutcome:
    """Run one process to the end; return its exit code, output and peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    stderr_path = cwd / "stderr.txt"
    with open(stderr_path, "wb") as stderr, subprocess.Popen(
        cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr
    ) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildOutcome(
        proc.returncode,
        stdout.decode("utf-8", "replace"),
        stderr_path.read_text(encoding="utf-8", errors="replace"),
        usage.ru_maxrss,
        cwd,
    )


def _float_after(pattern: str, text: str) -> float | None:
    match = re.search(pattern + r"\s*([-+0-9.eEinfa]+)", text)
    return float(match.group(1)) if match else None


def _expect_close(label, what, value, target, tol) -> list[Problem]:
    if value is None:
        return [("oracle", f"{label}: no {what} printed")]
    if not abs(value - target) <= tol:
        return [("oracle", f"{label}: {what}={value!r}, expected {target!r} +- {tol:g}")]
    return []


def _expect_files(label: str, out_dir: Path, names) -> list[Problem]:
    missing = [n for n in names if not (out_dir / n).is_file()]
    return [("oracle", f"{label}: missing output {', '.join(missing)}")] if missing else []


def _hypothesis_table(label: str, stdout: str) -> list[Problem]:
    statuses = dict(re.findall(r"^(A[1-4]|B[1-3])\s+(\w+)", stdout, flags=re.M))
    problems = []
    if sorted(statuses) != list(HYPOTHESIS_IDS):
        problems.append(("oracle", f"{label}: hypothesis table has {sorted(statuses)}"))
    failing = [k for k, v in statuses.items() if v == "fail"]
    if failing:
        problems.append(("oracle", f"{label}: constructed equation fails {failing}"))
    return problems


def _cli_specs(equations, config_paths, spread_paths, reference_rows):
    """(label, argv, documented exit code, oracle(stdout, stderr, out_dir))."""
    specs = []
    for case_id, flags in ((1, []), (2, []), (3, []), (2, ["--long-run"])):
        label = f"case {case_id}" + (" --long-run" if flags else "")
        row = reference_rows[(case_id, bool(flags))]

        def oracle(out, err, out_dir, label=label, row=row):
            return _expect_close(label, "L_numeric", _float_after(r"L_numeric=", out),
                                 row.y_ref, 5e-6 + 1e-2 * row.gap_ref + 1e-9) + \
                _expect_files(label, out_dir, ("trajectory.csv", "branch.csv", "report.json"))

        specs.append((label, ["case", str(case_id), *flags, "--out", OUT], 0, oracle))

    for gen, path in zip(equations, config_paths):
        label = f"integrate --hypotheses degree {gen.degree}"

        def oracle(out, err, out_dir, label=label, gen=gen):
            return _expect_close(label, "final_y", _float_after(r"final_y=", out),
                                 gen.limit, 1e-8) + _hypothesis_table(label, out) + \
                _expect_files(label, out_dir, ("trajectory.csv", "branch.csv", "report.json"))

        specs.append((label, ["integrate", str(path), "--hypotheses", "--out", OUT], 0, oracle))

        label = f"hypotheses degree {gen.degree}"

        def oracle(out, err, out_dir, label=label):
            return _hypothesis_table(label, out) + \
                _expect_files(label, out_dir, ("branch.csv", "report.json"))

        specs.append((label, ["hypotheses", str(path), "--out", OUT], 0, oracle))

    # deviation coefficients of y' = 1 - 3y + y^2 + y^3 about its root ep:
    # c_k = P^(k)(ep) / k!
    ep = EXACT_LIMITS[1]
    expected_c = (-3.0 + 2.0 * ep + 3.0 * ep * ep, 1.0 + 3.0 * ep, 1.0)

    def reduce_oracle(out, err, out_dir, label="reduce --case 1"):
        match = re.search(r"c at x0=0: \(([^)]*)\)", out)
        if match is None:
            return [("oracle", f"{label}: no coefficient line printed")]
        printed = [float(v) for v in match.group(1).split(",")]
        if len(printed) != 3 or any(
            not abs(p - c) <= 1e-5 * max(1.0, abs(c)) for p, c in zip(printed, expected_c)
        ):
            return [("oracle", f"{label}: c={printed}, expected {expected_c}")]
        return _expect_files(label, out_dir, ("reduce.csv",))

    specs.append(("reduce --case 1", ["reduce", "--case", "1", "--ep", repr(ep), "--out", OUT],
                  0, reduce_oracle))

    def spread_oracle(label, plateau):
        def oracle(out, err, out_dir):
            return _expect_close(label, "plateau_bp", _float_after(r"plateau_bp=", out),
                                 plateau, 1e-3) + _expect_files(label, out_dir, ("spread.csv",))
        return oracle

    specs.append(("spread --literal-case1", ["spread", "--literal-case1", "--out", OUT], 0,
                  spread_oracle("spread --literal-case1", 1e4 * EXACT_LIMITS[1])))
    # r = 0: lambda_0 vanishes, s = 0 is the equilibrium and the plateau is 0 bp
    specs.append(("spread --config r=0", ["spread", "--config", str(spread_paths["spread-r0"]),
                                          "--out", OUT], 0,
                  spread_oracle("spread --config r=0", 0.0)))

    def failing_spread(out, err, out_dir, label="spread --config r=0.01"):
        if "integration failed" not in err:
            return [("oracle", f"{label}: no 'integration failed' message")]
        return []

    specs.append(("spread --config r=0.01", ["spread", "--config",
                                             str(spread_paths["spread-r0.01"]), "--out", OUT],
                  1, failing_spread))

    def order_oracle(out, err, out_dir, label="order-test"):
        order = _float_after(r"observed order:", out)
        if order is None or not 4.5 <= order <= 5.5:
            return [("oracle", f"{label}: observed order {order!r} outside [4.5, 5.5]")]
        return []

    specs.append(("order-test", ["order-test"], 0, order_oracle))
    return specs


def _cli_op(label, argv, expected_code, oracle, workdir: Path, traced: bool) -> Op:
    def execute():
        rundir = Path(tempfile.mkdtemp(prefix="op-", dir=workdir))
        args = [str(rundir / "out") if a == OUT else a for a in argv]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_entry.py"), str(rundir / "trace.json"), *args]
        else:
            cmd = [sys.executable, "-m", "abelode.cli", *args]
        return run_child(cmd, rundir)

    def check(outcome: ChildOutcome):
        problems: list[Problem] = []
        if outcome.code != expected_code:
            tail = outcome.stderr.strip().splitlines()[-1:] or [""]
            problems.append(("exit", f"{label}: exit {outcome.code}, documented "
                                     f"{expected_code}: {tail[0][:200]}"))
        problems += oracle(outcome.stdout, outcome.stderr, outcome.rundir / "out")
        out_dir = outcome.rundir / "out"
        outcome.bytes_written = sum(
            p.stat().st_size for p in out_dir.rglob("*") if p.is_file()
        ) if out_dir.is_dir() else 0
        trace_path = outcome.rundir / "trace.json"
        outcome.trace = json.loads(trace_path.read_text()) if trace_path.is_file() else None
        shutil.rmtree(outcome.rundir, ignore_errors=True)
        return problems

    return Op(label, execute, check)


def cli_workload(seed: int, workdir: Path, rounds: int) -> Workload:
    import abelode

    spread_paths = {}
    for name, text in SPREAD_CONFIGS.items():
        spread_paths[name] = workdir / f"{name}.cfg"
        spread_paths[name].write_text(text, encoding="utf-8")
    reference_rows = {
        (1, False): _reference_row(abelode.get_case(1), 20.0),
        (2, False): _reference_row(abelode.get_case(2), 20.0),
        (3, False): _reference_row(abelode.get_case(3), 20.0),
        (2, True): _reference_row(abelode.get_case(2), 2e5),
    }
    config_paths = []
    round_specs = []
    for r in range(rounds):
        equations = inputs.cli_equations(seed, r)
        paths = []
        for gen in equations:
            path = workdir / f"round{r}-degree{gen.degree}.cfg"
            path.write_text(gen.config_text(), encoding="utf-8")
            paths.append(path)
        specs = _cli_specs(equations, paths, spread_paths, reference_rows)
        random.Random(f"{seed}-{r}").shuffle(specs)
        round_specs.append(specs)
        config_paths += paths

    def ops(traced: bool) -> list[list[Op]]:
        return [[_cli_op(*spec, workdir, traced) for spec in specs] for specs in round_specs]

    return Workload(
        name="cli",
        why=CLI_WHY,
        rounds=ops(False),
        in_process=False,
        setup_spec={
            "cases": [[1, None], [2, None], [3, None]],
            "equation_configs": [str(p) for p in config_paths],
            "param_configs": [str(p) for p in spread_paths.values()],
        },
        traced_rounds=lambda: ops(True),
    )


WORKLOADS = {
    "cases": cases_workload,
    "stiff": stiff_workload,
    "cli": cli_workload,
}
