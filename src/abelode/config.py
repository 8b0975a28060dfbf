"""Flat key = value run configuration for the command line.

Concrete syntax, one pair per line:

    # full-line comments and blank lines are skipped
    degree = 3
    coefficients = 3 - 2*exp(-2*x) | -4 | 0 | 1
    x0 = 0
    y0 = 0
    x_end = 20
    atol = 1e-9

Coefficient expressions are listed lowest power first, separated by a
pipe; there must be exactly degree + 1 of them.  Solver keys (atol,
rtol, h0, h_min, h_max, newton_tol, newton_max_iters, max_steps)
override the defaults.  Spread-curve runs use the parameter keys
sigma0_sq, mu, r, eta1, eta2 instead of an equation block.

Numeric values must be finite; inf and nan are rejected like any other
malformed number.  Everything wrong with a config is a ConfigError
carrying the offending line or key, so the CLI can map it to a
usage-error exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .core import AbelEquation, SolverConfig, _require_span, build_equation
from .expr import ExprError

if TYPE_CHECKING:
    from .finance import MertonParams

__all__ = [
    "ConfigError",
    "EquationConfig",
    "parse_pairs",
    "load_pairs",
    "solver_config",
    "equation_config",
    "merton_params",
]

_EQUATION_KEYS = {"degree", "coefficients", "x0", "y0", "x_end"}
_SOLVER_KEYS = {field.name for field in fields(SolverConfig)}
_SOLVER_INT_KEYS = {field.name for field in fields(SolverConfig) if isinstance(field.default, int)}
_PARAM_KEYS = {"sigma0_sq", "mu", "r", "eta1", "eta2"}
KNOWN_KEYS = _EQUATION_KEYS | _SOLVER_KEYS | _PARAM_KEYS


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EquationConfig:
    """A config's equation (x0 included), built once, and its run settings."""

    equation: AbelEquation
    y0: float
    x_end: float
    solver: SolverConfig

    def build(self) -> AbelEquation:
        return self.equation


def parse_pairs(text: str) -> dict[str, str]:
    """Strict key = value lines; duplicates and unknown keys are errors."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def load_pairs(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from None
    return parse_pairs(text)


def _get_float(pairs: dict[str, str], key: str) -> float:
    try:
        value = float(pairs[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: not a finite number: {pairs[key]!r}")
    return value


def _get_int(pairs: dict[str, str], key: str) -> int:
    value = _get_float(pairs, key)
    if value != int(value):
        raise ConfigError(f"key {key!r}: expected an integer, got {pairs[key]!r}")
    return int(value)


def solver_config(pairs: dict[str, str]) -> SolverConfig:
    """The default SolverConfig with any solver keys present in pairs applied."""
    updates = {}
    for field in fields(SolverConfig):  # in field order, so the first bad key is reported
        if field.name in pairs:
            getter = _get_int if field.name in _SOLVER_INT_KEYS else _get_float
            updates[field.name] = getter(pairs, field.name)
    try:
        return SolverConfig(**updates)
    except ValueError as err:
        raise ConfigError(f"bad solver settings: {err}") from None


def equation_config(pairs: dict[str, str]) -> EquationConfig:
    for key in ("degree", "coefficients", "x_end"):
        if key not in pairs:
            raise ConfigError(f"missing required key {key!r}")
    degree = _get_int(pairs, "degree")
    if degree < 1:
        raise ConfigError(f"degree must be >= 1, got {degree}")
    sources = tuple(part.strip() for part in pairs["coefficients"].split("|"))
    if len(sources) != degree + 1:
        raise ConfigError(
            f"coefficient count {len(sources)} does not match degree {degree} "
            f"(need {degree + 1} pipe-separated expressions, lowest power first)"
        )
    x0 = _get_float(pairs, "x0") if "x0" in pairs else 0.0
    y0 = _get_float(pairs, "y0") if "y0" in pairs else 0.0
    x_end = _get_float(pairs, "x_end")
    try:
        _require_span(x0=x0, x_end=x_end)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    solver = solver_config(pairs)
    try:
        equation = build_equation(sources, x0=x0)
    except ExprError as err:
        raise ConfigError(f"bad coefficient expression: {err}") from None
    return EquationConfig(equation, y0, x_end, solver)


def merton_params(pairs: dict[str, str]) -> MertonParams:
    # finance, and cases, which it imports, serve param configs only: an
    # equation config loads neither
    from .finance import MertonParams

    for key in ("sigma0_sq", "mu"):
        if key not in pairs:
            raise ConfigError(f"missing required parameter {key!r}")
    kwargs = {key: _get_float(pairs, key) for key in _PARAM_KEYS if key in pairs}
    try:
        return MertonParams(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None
