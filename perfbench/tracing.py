"""Per-layer tracing from outside the program.

Tracer.install() replaces the public functions of abelode's modules with
wrappers that time them (spans) or only count them, and uninstall() puts
the originals back.  A function brought in by ``from .x import y`` lives
on in every importing module's globals, so installation replaces each
binding of the original object in every abelode module (for example
``continue_branch`` in equilibrium, cases, cli and finance, and ``step``
in radau's own globals); otherwise those calls would escape the trace.

Spans nest: a span's self time is its duration minus the time covered by
the spans it directly contains.  Expr.eval (about 1.5 us a call) and the
right-hand-side evaluators only count, because a timer around them would
cost as much as the call.
"""

from __future__ import annotations

import importlib
import math
import warnings
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "expr", "core", "equilibrium", "hypotheses", "radau", "rate",
    "reduction", "finance", "cases", "config", "cli",
)

#: timed spans, "layer.function"
SPANS = (
    "expr.parse",
    "core.build_equation",
    "core.normalize",
    "equilibrium.continue_branch",
    "equilibrium.real_roots",
    "hypotheses.verify",
    "radau.integrate",
    "radau.empirical_order",
    "rate.rate_bound",
    "rate.diagnose",
    "reduction.reduce_about",
    "finance.spread_curve",
    "cases.get_case",
    "cases.run_case",
    "config.load_pairs",
    "config.equation_config",
    "config.merton_params",
    "config.solver_config",
    "cli.main",
)

#: count-only wrappers: counter name -> functions it counts
COUNTED = {
    "core.rhs_evals": ("core.eval_rhs", "core.eval_drhs"),
    "radau.step_attempts": ("radau.step",),
}


class Tracer:
    """Aggregated spans and counters for the calls made since reset()."""

    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._children: list[float] = []  # time covered by each open span's children

    def reset(self) -> None:
        """Forget everything recorded; the installed wrappers keep working."""
        for table in (self.busy, self.self_time, self.calls, self.counts, self._children):
            table.clear()

    def snapshot(self) -> dict:
        return {
            "busy": dict(self.busy),
            "self_time": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        children = self._children
        busy, self_time, calls = self.busy, self.self_time, self.calls
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(self, fn, args, kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                busy[name] += elapsed
                self_time[name] += elapsed - inner
                calls[name] += 1

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("abelode")] + [
            importlib.import_module(f"abelode.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for name in SPANS:
            original = _resolve(name)
            wrappers[id(original)] = (original, self._span(name, original))
        for counter, targets in COUNTED.items():
            for target in targets:
                original = _resolve(target)
                wrappers[id(original)] = (original, self._counter(counter, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, entry[1])
        expr_cls = importlib.import_module("abelode.expr").Expr
        original_eval = expr_cls.eval
        self._installed.append((expr_cls, "eval", original_eval))
        expr_cls.eval = self._counter("expr.eval_calls", original_eval)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _resolve(dotted: str):
    layer, attr = dotted.split(".")
    return getattr(importlib.import_module(f"abelode.{layer}"), attr)


# -- result observers: read counters off a span's return value -------------

def _observe_integrate(tracer: Tracer, fn, args, kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = fn(*args, **kwargs)
    tracer.counts["radau.runtime_warnings"] += sum(
        1 for w in caught if issubclass(w.category, RuntimeWarning)
    )
    tracer.counts["radau.accepted"] += result.n_accepted
    tracer.counts["radau.newton_iters"] += result.n_newton_iters
    return result


def _observe_branch(tracer: Tracer, fn, args, kwargs):
    branch = fn(*args, **kwargs)
    tracer.counts["equilibrium.branch_points"] += len(branch.points)
    tracer.counts["equilibrium.refinements"] += len(branch.points) - branch.grid.count
    tracer.counts["equilibrium.ambiguous_points"] += branch.ambiguous_count
    return branch


def _observe_rate_bound(tracer: Tracer, fn, args, kwargs):
    bound = fn(*args, **kwargs)
    tracer.counts["rate.nonfinite_bound_points"] += sum(
        1 for value in bound.bound if not math.isfinite(value)
    )
    return bound


_OBSERVERS = {
    "radau.integrate": _observe_integrate,
    "equilibrium.continue_branch": _observe_branch,
    "rate.rate_bound": _observe_rate_bound,
}


#: snapshot sections that hold seconds
TIME_SECTIONS = ("busy", "self_time")


def merge(total: dict, part: dict, time_scale: float) -> None:
    """Add one snapshot() into a running total of the same shape, with its
    times multiplied by time_scale (wall to reference time)."""
    for section, values in part.items():
        scale = time_scale if section in TIME_SECTIONS else 1
        bucket = total.setdefault(section, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value * scale


#: per-layer metrics: name -> unit; values are per op
PER_LAYER_UNITS = {
    "expr.eval_calls": "count",
    "expr.parse_s": "s",
    "core.rhs_evals": "count",
    "equilibrium.continue_branch_s": "s",
    "equilibrium.real_roots_calls": "count",
    "equilibrium.real_roots_us": "us",
    "equilibrium.branch_points": "count",
    "equilibrium.refinements": "count",
    "equilibrium.ambiguous_points": "count",
    "hypotheses.verify_s": "s",
    "radau.integrate_s": "s",
    "radau.step_attempts": "count",
    "radau.accept_ratio": "ratio",
    "radau.newton_iters": "count",
    "radau.attempt_us": "us",
    "radau.runtime_warnings": "count",
    "rate.rate_bound_s": "s",
    "rate.diagnose_s": "s",
    "rate.nonfinite_bound_points": "count",
    "cases.run_case_self_s": "s",
    "config.load_s": "s",
    "reduction.reduce_about_s": "s",
    "finance.spread_curve_s": "s",
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "cli.bytes_written": "bytes",
}


def per_layer_metrics(total: dict, ops: int, import_s: float, bytes_written: int) -> dict:
    """Per-op per-layer values from the merged snapshots of `ops` ops."""
    busy = total.get("busy", {})
    self_time = total.get("self_time", {})
    calls = total.get("calls", {})
    counts = total.get("counts", {})

    def ratio(num, den):
        return num / den if den else 0.0

    attempts = counts.get("radau.step_attempts", 0)
    values = {
        "expr.eval_calls": counts.get("expr.eval_calls", 0),
        "expr.parse_s": busy.get("expr.parse", 0.0),
        "core.rhs_evals": counts.get("core.rhs_evals", 0),
        "equilibrium.continue_branch_s": busy.get("equilibrium.continue_branch", 0.0),
        "equilibrium.real_roots_calls": calls.get("equilibrium.real_roots", 0),
        "equilibrium.branch_points": counts.get("equilibrium.branch_points", 0),
        "equilibrium.refinements": counts.get("equilibrium.refinements", 0),
        "equilibrium.ambiguous_points": counts.get("equilibrium.ambiguous_points", 0),
        "hypotheses.verify_s": busy.get("hypotheses.verify", 0.0),
        "radau.integrate_s": busy.get("radau.integrate", 0.0),
        "radau.step_attempts": attempts,
        "radau.newton_iters": counts.get("radau.newton_iters", 0),
        "radau.runtime_warnings": counts.get("radau.runtime_warnings", 0),
        "rate.rate_bound_s": busy.get("rate.rate_bound", 0.0),
        "rate.diagnose_s": busy.get("rate.diagnose", 0.0),
        "rate.nonfinite_bound_points": counts.get("rate.nonfinite_bound_points", 0),
        "cases.run_case_self_s": self_time.get("cases.run_case", 0.0),
        "config.load_s": sum(
            busy.get(name, 0.0)
            for name in ("config.load_pairs", "config.equation_config", "config.merton_params")
        ),
        "reduction.reduce_about_s": busy.get("reduction.reduce_about", 0.0),
        "finance.spread_curve_s": busy.get("finance.spread_curve", 0.0),
        "cli.import_s": import_s,
        "cli.main_self_s": self_time.get("cli.main", 0.0),
        "cli.bytes_written": bytes_written,
    }
    metrics = {name: value / ops for name, value in values.items()}
    # ratios of totals are the same per op
    metrics["equilibrium.real_roots_us"] = 1e6 * ratio(
        busy.get("equilibrium.real_roots", 0.0), calls.get("equilibrium.real_roots", 0)
    )
    metrics["radau.accept_ratio"] = ratio(counts.get("radau.accepted", 0), attempts)
    metrics["radau.attempt_us"] = 1e6 * ratio(busy.get("radau.integrate", 0.0), attempts)
    return {name: metrics[name] for name in PER_LAYER_UNITS}
