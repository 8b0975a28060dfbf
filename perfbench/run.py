"""abelode benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage (from anywhere; paths are resolved from this file):

    python3 perfbench/run.py --workload {cases,stiff,cli} --seed N --seconds S --trace {0,1}

--trace 0 measures set-up in fresh interpreters, then runs whole rounds of
the workload with tracing off and prints the end-to-end metrics.
--trace 1 runs the first round untraced, then the same rounds as
--trace 0 with every layer wrapped, and prints the per-layer metrics plus
the tracing overhead.  Either way every op is checked against its oracle,
the run is pinned to one CPU, and times are reported at reference speed
(speed.py).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Exits 2 without a result when the abelode sources are not next to this
directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_KERNEL_MS, SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
#: scratch space for configs, CLI output directories and set-up specs;
#: removed when the run ends
WORK_ROOT = ROOT / ".perfbench_work"

#: fresh interpreters per set-up measurement; setup_s is their median
SETUP_REPEATS = 11

#: stop starting rounds after this long, whatever --seconds asked for
MAX_MEASURE_S = 120.0

#: samples that must lie beyond the tail percentile
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    name: str
    seconds: float
    problems: list
    outcome: object
    #: wall time to reference time (see speed.py)
    scale: float = 1.0

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def run_op(op) -> Sample:
    """Time op.execute(), then check its outcome (untimed)."""
    start = perf_counter()
    try:
        outcome = op.execute()
    except Exception as err:  # a raising op is a failed op, not a broken benchmark
        elapsed = perf_counter() - start
        return Sample(op.name, elapsed, [("raised", f"{op.name}: {type(err).__name__}: {err}")], None)
    elapsed = perf_counter() - start
    return Sample(op.name, elapsed, op.check(outcome), outcome)


def run_rounds(rounds, observe=None) -> list[Sample]:
    """Closed loop over whole rounds of ops; observe(sample) runs after each op."""
    probe = SpeedProbe()
    probe.tick()
    samples = []
    start = perf_counter()
    for ops in rounds:
        for op in ops:
            sample = run_op(op)
            probe.tick()
            sample.scale = probe.factor(len(samples))
            if observe is not None:
                observe(sample)
            samples.append(sample)
        if perf_counter() - start > MAX_MEASURE_S:
            break
    return samples


def tail_percentile(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) for the highest whole
    percentile with at least TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = math.ceil(pct * n / 100)
    return ordered[rank - 1], pct, n - rank


def measure_setup(workload, workdir: Path) -> list[Sample]:
    """Import abelode and build the inputs, once per fresh interpreter."""
    spec_path = workdir / "setup_spec.json"
    spec_path.write_text(json.dumps(workload.setup_spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    probe = SpeedProbe()
    probe.tick()
    samples = []
    for i in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_child.py"), str(spec_path)],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        probe.tick()
        seconds = float(done.stdout.strip().splitlines()[-1])
        samples.append(Sample("setup", seconds, [], None, probe.factor(i)))
    return samples


def machine_line() -> str:
    import numpy

    pinned = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "all"
    return (f"# machine: {platform.system()} {platform.machine()}, {os.cpu_count()} cpus "
            f"(run pinned to {pinned}); python {platform.python_version()}; "
            f"numpy {numpy.__version__}")


def failure_lines(samples: list[Sample]) -> list[str]:
    seen = Counter(detail for s in samples for _, detail in s.problems)
    return [f"# failed {count}x: {detail}" for detail, count in sorted(seen.items())]


def end_to_end(workload, samples: list[Sample], setup: list[Sample]) -> tuple[dict, list[str]]:
    n = len(samples)
    failed = sum(1 for s in samples if s.problems)

    def timings(seconds: list[float], setup: list[float]):
        op_ms = [1e3 * t for t in seconds]
        tail = tail_percentile(op_ms)
        return {
            "setup_s": statistics.median(setup),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_tail": tail[0],
            "ops_per_s": n / sum(seconds),
        }, tail

    values, (_, pct, beyond) = timings([s.ref_seconds for s in samples],
                                       [s.ref_seconds for s in setup])
    wall, _ = timings([s.seconds for s in samples], [s.seconds for s in setup])
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "this process"
    else:
        peak_kb = max(s.outcome.max_rss_kb for s in samples if s.outcome is not None)
        rss_note = "largest child"
    values["ok_frac"] = 1.0 - failed / n
    values["peak_rss_mb"] = peak_kb / 1024.0
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "op_ms_p50": f"{n} ops",
        "op_ms_tail": f"p{pct}, {beyond} of {n} samples beyond",
        "ops_per_s": "ops / summed op time",
        "ok_frac": "1 - fail_frac",
        "peak_rss_mb": rss_note,
    }
    for name in wall:
        notes[name] += f"; wall clock {wall[name]:.6g}"
    lines = [f"{name:<14} {values[name]:>14.6g} {unit:<6} ({notes[name]})"
             for name, unit in END_TO_END_UNITS.items()]
    lines.insert(5, f"{'fail_frac':<14} {failed / n:>14.6g} {'ratio':<6} "
                    f"({failed} of {n} ops failed)")
    lines.append(f"# times are at reference speed (speed.py): wall time x "
                 f"{REFERENCE_KERNEL_MS} ms / kernel time; median factor "
                 f"{statistics.median(s.scale for s in samples):.4g}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}, lines


def timed_run(workload, workdir: Path):
    setup = measure_setup(workload, workdir)
    if workload.in_process:
        run_op(workload.rounds[0][0])  # warm-up; a CLI user pays the import every run
    samples = run_rounds(workload.rounds)
    metrics, lines = end_to_end(workload, samples, setup)
    return samples, metrics, lines


def traced_run(workload):
    from tracing import PER_LAYER_UNITS, Tracer, merge, per_layer_metrics

    total: dict = {}
    import_s = 0.0
    bytes_written = 0
    first = workload.rounds[0]
    if workload.in_process:
        run_op(first[0])  # warm-up
        baseline = run_rounds([first])
        tracer = Tracer()

        def observe(sample):
            merge(total, tracer.snapshot(), sample.scale)
            tracer.reset()

        with tracer:
            samples = run_rounds(workload.rounds, observe)
    else:
        baseline = run_rounds([first])
        samples = run_rounds(workload.traced_rounds())
        for sample in samples:
            if sample.outcome is None or sample.outcome.trace is None:
                continue
            merge(total, sample.outcome.trace["spans"], sample.scale)
            import_s += sample.outcome.trace["import_s"] * sample.scale
            bytes_written += sample.outcome.bytes_written

    values = per_layer_metrics(total, len(samples), import_s, bytes_written)
    units = dict(PER_LAYER_UNITS)
    # overhead: the first round, traced and untraced (same ops)
    untraced_ms = 1e3 * statistics.fmean(s.ref_seconds for s in baseline)
    traced_ms = 1e3 * statistics.fmean(s.ref_seconds for s in samples[:len(first)])
    values["trace.overhead_ms"] = traced_ms - untraced_ms
    values["trace.overhead_frac"] = traced_ms / untraced_ms - 1.0
    units["trace.overhead_ms"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    lines = [f"{name:<32} {value:>14.6g} {units[name]}" for name, value in values.items()]
    lines.append(f"# per op over {len(samples)} traced ops, times at reference speed; overhead = mean traced op "
                 f"{traced_ms:.1f} ms - mean untraced op {untraced_ms:.1f} ms "
                 f"over the {len(first)} ops of the first round")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return samples, metrics, lines


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU, so that the speed
    kernel runs on the CPU whose speed it calibrates."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cases", "stiff", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "abelode" / "__init__.py").is_file():
        print(f"error: abelode sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    pin_to_one_cpu()
    # overflow warnings inside the solver would flood stderr; the traced
    # run counts them around each integration instead
    warnings.simplefilter("ignore", RuntimeWarning)

    from workloads import NOMINAL_ROUND_S, WORKLOADS, WRONG_ANSWER

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
        workload = WORKLOADS[args.workload](args.seed, workdir, rounds)
        if args.trace:
            samples, metrics, lines = traced_run(workload)
        else:
            samples, metrics, lines = timed_run(workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(1 for s in samples if s.problems)
    correct = not any(kind in WRONG_ANSWER for s in samples for kind, _ in s.problems)
    print(f"# abelode benchmark: workload={workload.name} seed={args.seed} "
          f"trace={args.trace} rounds={rounds} ops/round={len(workload.rounds[0])}")
    print(f"# why: {workload.why}")
    print(machine_line())
    for line in lines + failure_lines(samples):
        print(line)
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
