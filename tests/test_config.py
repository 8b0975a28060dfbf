import dataclasses
import math

import pytest

from abelode.config import (
    ConfigError,
    equation_config,
    load_pairs,
    merton_params,
    parse_pairs,
    solver_config,
)
from abelode.radau import SolverConfig

GOOD = """\
# a comment line
degree = 3
coefficients = 1 | -3 | 1 | 1

x_end = 20
atol = 1e-10
"""


class TestParsePairs:
    def test_comments_and_blank_lines_ignored(self):
        pairs = parse_pairs(GOOD)
        assert pairs["degree"] == "3"
        assert pairs["atol"] == "1e-10"
        assert "#" not in "".join(pairs)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_pairs("degree = 2\ndegree = 3\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_pairs("degrees = 2\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="^line 1: empty key$"):
            parse_pairs(" = 3")

    def test_line_without_separator_rejected(self):
        with pytest.raises(ConfigError):
            parse_pairs("degree 2\n")

    def test_load_pairs_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_pairs(str(tmp_path / "absent.cfg"))


class TestEquationConfig:
    def test_round_trip_to_equation(self):
        cfg = equation_config(parse_pairs(GOOD))
        assert cfg.equation.degree == 3
        assert cfg.equation.x0 == 0.0 and cfg.y0 == 0.0  # defaults
        assert cfg.x_end == 20.0
        eq = cfg.equation
        assert eq.degree == 3 and cfg.build() is eq
        assert [c.source for c in eq.coeffs] == ["1", "-3", "1", "1"]
        assert eq.coeffs[1](0.0) == -3.0

    def test_coefficient_count_must_match_degree(self):
        with pytest.raises(ConfigError):
            equation_config(parse_pairs(
                "degree = 3\ncoefficients = 1 | 0 | -1\nx_end = 1\n"))

    def test_degree_must_be_positive(self):
        with pytest.raises(ConfigError, match="^degree must be >= 1, got 0$"):
            equation_config(parse_pairs("degree = 0\ncoefficients = 1\nx_end = 1\n"))

    def test_required_keys(self):
        with pytest.raises(ConfigError):
            equation_config(parse_pairs("degree = 2\ncoefficients = 1 | 0 | -1\n"))
        with pytest.raises(ConfigError):
            equation_config(parse_pairs("coefficients = 1 | 0 | -1\nx_end = 1\n"))

    def test_horizon_must_advance(self):
        with pytest.raises(ConfigError):
            equation_config(parse_pairs(
                "degree = 2\ncoefficients = 1 | 0 | -1\nx0 = 5\nx_end = 1\n"))

    def test_unparseable_coefficient(self):
        with pytest.raises(ConfigError):
            equation_config(parse_pairs(
                "degree = 2\ncoefficients = 1 | 0*) | -1\nx_end = 1\n"))

    @pytest.mark.parametrize("key,value", [
        ("x_end", "inf"),
        ("x0", "-inf"),
        ("y0", "nan"),
        ("degree", "inf"),
        ("atol", "nan"),
        ("h_max", "inf"),
        ("max_steps", "inf"),
    ])
    def test_non_finite_value_names_the_key(self, key, value):
        # an infinite horizon would otherwise spin the integrator, an
        # infinite degree overflow int(), a nan tolerance pass every check
        pairs = {"degree": "2", "coefficients": "1 | 0 | -1", "x_end": "1"}
        pairs[key] = value
        with pytest.raises(ConfigError, match=repr(key)):
            equation_config(pairs)

    def test_deeply_nested_coefficient(self):
        with pytest.raises(ConfigError, match="nested deeper"):
            equation_config(parse_pairs(
                "degree = 1\ncoefficients = " + "(" * 2000 + "1" + ")" * 2000
                + " | -1\nx_end = 1\n"))


class TestSolverConfig:
    def test_overrides_applied(self):
        config = solver_config(parse_pairs("atol = 1e-6\nnewton_max_iters = 20\n"))
        assert config.atol == 1e-6
        assert config.newton_max_iters == 20
        assert config.rtol == 1e-9  # untouched default

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError):
            solver_config(parse_pairs("atol = tiny\n"))

    @pytest.mark.parametrize("field", dataclasses.fields(SolverConfig), ids=lambda f: f.name)
    def test_every_solver_field_is_a_config_key(self, field):
        integer = isinstance(field.default, int)
        value = 7 if integer else 0.25
        config = solver_config(parse_pairs(f"{field.name} = {value}\n"))
        assert getattr(config, field.name) == value
        assert type(getattr(config, field.name)) is type(value)
        if integer:
            with pytest.raises(ConfigError, match="expected an integer"):
                solver_config(parse_pairs(f"{field.name} = 2.5\n"))


class TestMertonParams:
    def test_required_fields(self):
        params = merton_params(parse_pairs("sigma0_sq = 1.2\nmu = 1.5\n"))
        assert params.sigma0_sq == 1.2
        assert params.r == 0.0

    def test_missing_required_field(self):
        with pytest.raises(ConfigError):
            merton_params(parse_pairs("sigma0_sq = 1.2\n"))

    def test_invalid_values_surface_as_config_errors(self):
        with pytest.raises((ConfigError, ValueError)):
            merton_params(parse_pairs("sigma0_sq = -1\nmu = 1\n"))
