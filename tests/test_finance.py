import math
import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import quadratic_residual

from abelode import cases, core, equilibrium, finance
from abelode.core import BranchError
from abelode.expr import ExprDomainError
from abelode.finance import (
    MertonParams,
    omega_exact,
    omega_expansion,
    parametric_equation,
    spread_coefficients,
    spread_curve,
    spread_normal_form,
    volatility_factor,
)

BASE = MertonParams(sigma0_sq=1.0, mu=1.0, r=0.0)


def sample_params(rng):
    while True:
        p = MertonParams(
            sigma0_sq=float(rng.uniform(0.5, 3.0)),
            mu=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)),
            r=float(rng.uniform(0.0, 0.02)),
            eta1=float(rng.uniform(-0.3, 0.5)),
            eta2=float(rng.uniform(-0.05, 0.5)),
        )
        x = float(rng.uniform(0.1, 10.0))
        if p.Q(x) >= 0.2:
            return p, x


class TestParams:
    def test_quadratic_volatility_profile(self):
        p = MertonParams(sigma0_sq=2.0, mu=1.0, r=0.0, eta1=0.5, eta2=-0.25)
        assert p.Q(2.0) == pytest.approx(1.0 + 1.0 - 1.0)
        assert volatility_factor(p, 2.0) == pytest.approx(2.0 * 1.0)

    def test_positivity_scan(self):
        p = MertonParams(sigma0_sq=1.0, mu=1.0, r=0.0, eta2=-0.25)  # zero at x=2
        assert p.volatility_positive_on(np.linspace(0.0, 1.0, 50))
        assert not p.volatility_positive_on(np.linspace(0.0, 3.0, 50))

    def test_positivity_scan_matches_the_point_loop(self):
        # the array scan against Q point by point: empty grids pass, a NaN
        # abscissa fails, and an overflowing Q (inf - inf is NaN) decides alike
        rng = np.random.default_rng(2611)
        grids = [[], [float("nan")], [0.5, float("nan")], [1e200], [-1e200, 1.0],
                 np.linspace(0.0, 20.0, 801)]
        for _ in range(40):
            p = MertonParams(sigma0_sq=1.0, mu=1.0, eta1=float(rng.normal()),
                             eta2=float(rng.normal()) * 0.1)
            for xs in grids:
                assert p.volatility_positive_on(xs) == all(p.Q(float(x)) > 0.0 for x in xs)
        assert MertonParams(sigma0_sq=1.0, mu=1.0).volatility_positive_on([])
        assert not MertonParams(sigma0_sq=1.0, mu=1.0).volatility_positive_on([float("nan")])

    @pytest.mark.parametrize("bad", [
        dict(sigma0_sq=0.0, mu=1.0),
        dict(sigma0_sq=-1.0, mu=1.0),
        dict(sigma0_sq=1.0, mu=0.0),
        dict(sigma0_sq=1.0, mu=1.0, r=-0.1),
        dict(sigma0_sq=float("inf"), mu=1.0),
        dict(sigma0_sq=1.0, mu=float("nan")),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            MertonParams(**bad)

    @pytest.mark.parametrize("bad, message", [
        # died in math.isfinite with a TypeError
        (dict(sigma0_sq="1.2", mu=1.5), "sigma0_sq must be a real number, got '1.2'"),
        # was taken as 1.0
        (dict(sigma0_sq=True, mu=1.5), "sigma0_sq must be a real number, got True"),
        (dict(sigma0_sq=1.2, mu=1.5, eta2=None), "eta2 must be a real number, got None"),
    ])
    def test_parameters_must_be_real_numbers(self, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MertonParams(**bad)


class TestCoefficientMaps:
    def test_reference_point_values(self):
        # sigma0_sq = mu = 1, r = 0 at x = 1 gives exact halves
        assert spread_coefficients(BASE, 1.0) == (0.5, -0.5, 1.0, 0.0)
        assert spread_normal_form(BASE, 1.0) == (-1.0, 2.0, 0.0)

    def test_normal_form_equals_coefficient_ratios(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(500):
            p, x = sample_params(rng)
            a3, a2, a1, a0 = spread_coefficients(p, x)
            direct = spread_normal_form(p, x)
            for got, ratio in zip(direct, (a2 / a3, a1 / a3, a0 / a3)):
                worst = max(worst, abs(got - ratio) / max(1.0, abs(got)))
        assert worst <= 1e-12

    def test_classical_flat_volatility_is_x_free(self):
        p = MertonParams(sigma0_sq=1.7, mu=-2.0, r=0.015)
        values = {spread_normal_form(p, x) for x in (0.3, 1.0, 4.0, 9.0)}
        assert len(values) == 1  # no x dependence without the eta terms

    def test_zero_rate_kills_constant_term(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p, x = sample_params(rng)
            p0 = replace(p, r=0.0)
            assert spread_normal_form(p0, x)[2] == 0.0

    def test_linear_term_is_positive(self):
        # lambda_1 = 2 (u - r/2)^2 + 5 r^2 / 2 > 0 with u = mu^2 / (sigma0_sq Q),
        # so case 1's triple (1, -3, 1) is out of reach of every parameter set
        rng = np.random.default_rng(1703)
        for _ in range(500):
            p, x = sample_params(rng)
            lam1 = spread_normal_form(p, x)[1]
            u = p.mu**2 / (p.sigma0_sq * p.Q(x))
            assert lam1 > 0.0
            assert lam1 == pytest.approx(2.0 * (u - p.r / 2.0) ** 2 + 2.5 * p.r**2, rel=1e-12)

    def test_vanishing_volatility_factor_is_a_domain_error(self):
        p = MertonParams(sigma0_sq=1.0, mu=1.0, r=0.0, eta2=-0.25)  # Q(2) = 0
        with pytest.raises(ExprDomainError, match=r"^division by zero at x=2\.0$"):
            spread_normal_form(p, 2.0)

    def test_repeated_params_parse_the_coefficients_once(self, monkeypatch):
        # the row does not depend on x0: 500 calls parse the four coefficient
        # texts once, and read what parametric_equation's row gives
        parsed = []
        parse = core.parse
        monkeypatch.setattr(core, "parse", lambda source: parsed.append(source) or parse(source))
        finance._parametric_row.cache_clear()
        p = MertonParams(sigma0_sq=1.2, mu=1.5, r=0.01, eta1=0.1, eta2=0.05)
        xs = [0.05 + 0.02 * i for i in range(500)]
        values = [spread_normal_form(p, x) for x in xs]
        assert len(parsed) == 4
        equation = parametric_equation(p)
        assert values == [tuple(equation.row(x)[2::-1]) for x in xs]

    def test_x_must_be_positive(self):
        with pytest.raises(ValueError):
            spread_coefficients(BASE, 0.0)


class TestOmega:
    def test_exact_value_solves_the_quadratic(self):
        p = MertonParams(sigma0_sq=1.2, mu=1.5, r=0.0)
        for s in (0.01, 0.1, 0.3):
            om = omega_exact(p, 1.3, s)
            assert quadratic_residual(p, 1.3, s, om) == pytest.approx(0.0, abs=1e-13)

    def test_expansion_agrees_to_third_order(self):
        p = MertonParams(sigma0_sq=1.2, mu=1.5, r=0.0)
        remainders = []
        for j in range(5):
            t = 0.2 * 2.0 ** (-j)
            remainders.append(abs(omega_exact(p, 1.3, t) - omega_expansion(p, 1.3, t)))
        ratios = [a / b for a, b in zip(remainders, remainders[1:])]
        for ratio in ratios:
            assert 12.0 <= ratio <= 20.0  # fourth-order remainder halves ~16x

    def test_small_spread_linear_regime(self):
        p = MertonParams(sigma0_sq=1.0, mu=2.0, r=0.0)
        s = 1e-8
        assert omega_exact(p, 1.0, s) == pytest.approx(s / (p.mu * 1.0), rel=1e-6)


class TestSpreadCurve:
    def test_literal_mode_reaches_the_documented_plateau(self):
        curve = spread_curve()  # no params: the literal mode
        assert curve.mode == "literal-case1" and curve.params is None
        assert curve.plateau_bp == pytest.approx(1e4 * (math.sqrt(2.0) - 1.0), abs=0.01)
        assert curve.diagnostics.trapping_ok and curve.diagnostics.monotone_ok
        assert curve.s[0] == 0.0
        assert curve.s[-1] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-8)

    def test_literal_mode_decay_rate(self):
        curve = spread_curve()
        xs = np.asarray(curve.xs)
        ss = np.asarray(curve.s)
        plateau = curve.plateau_bp / 1e4
        mask = (xs >= 2.0) & (xs <= 8.0)
        slope = np.polyfit(xs[mask], np.log(np.abs(plateau - ss[mask])), 1)[0]
        assert slope == pytest.approx(-1.66, abs=0.1)

    def test_literal_equation_coefficients(self):
        # case 1's equation, started at x0
        eq = spread_curve(x0=0.5, x_end=1.0).equation
        assert eq == replace(cases.get_case(1).equation, x0=0.5)
        assert [c(0.0) for c in eq.coeffs] == [1.0, -3.0, 1.0, 1.0]

    def test_parametric_zero_rate_spread_is_identically_zero(self):
        p = MertonParams(sigma0_sq=1.2, mu=1.5, r=0.0, eta1=0.1, eta2=0.05)
        curve = spread_curve(params=p)
        assert curve.mode == "parametric" and curve.params is p
        assert curve.result.completed
        assert float(np.max(np.abs(curve.s))) == 0.0
        assert curve.plateau_bp == 0.0

    def test_parametric_positive_rate_blows_up_honestly(self):
        # with r > 0 the normal form has no positive equilibrium, so the
        # trajectory must escape in finite time and the run reports failure
        p = MertonParams(sigma0_sq=1.2, mu=1.5, r=0.01, eta1=0.1, eta2=0.05)
        curve = spread_curve(params=p)
        assert not curve.result.completed
        assert curve.result.final_x < 20.0
        # the escaping trajectory's last value is no plateau
        assert math.isnan(curve.plateau_bp) and not curve.diagnostics.converged

    def test_parametric_equation_matches_direct_normal_form(self):
        # the normal form taken directly from spread_coefficients' raw a_k, the
        # independent derivation (spread_normal_form reads this equation)
        p = MertonParams(sigma0_sq=1.2, mu=1.5, r=0.01, eta1=0.1, eta2=0.05)
        eq = parametric_equation(p, 0.5)
        a3, a2, a1, a0 = spread_coefficients(p, 2.0)
        assert eq.coeffs[2](2.0) == pytest.approx(a2 / a3, rel=1e-12)
        assert eq.coeffs[1](2.0) == pytest.approx(a1 / a3, rel=1e-12)
        assert eq.coeffs[0](2.0) == pytest.approx(a0 / a3, rel=1e-12)

    @pytest.mark.parametrize("kwargs, message", [
        ({"params": MertonParams(1.2, 1.5), "x0": 0.0},
         "parametric mode needs x0 > 0 (1/x singularity)"),
        ({"x0": 25.0}, "x_end=20.0 must exceed x0=25.0"),
        ({"params": MertonParams(1.2, 1.5, eta2=-1.0)},
         "volatility factor not positive on the working range"),
    ])
    def test_refusals(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spread_curve(**kwargs)

    def test_hypothesis_report_attached_on_request(self):
        # the report is the lazy Analysis stage: verified when first read
        curve = spread_curve()
        assert "diagnostics" in vars(curve) and "report" not in vars(curve)
        assert curve.report["A4"].status == "pass"
        assert curve.report is vars(curve)["report"]

    def test_branch_error_leaves_the_branch_out(self, monkeypatch):
        # r = 0 zeroes lambda_0, so E = 0 and continuation finds no positive
        # equilibrium; the curve is still integrated and diagnosed without a
        # branch, branch and report raise the BranchError on every read, and
        # the failing continuation runs once
        calls = []
        original = equilibrium.continue_branch
        monkeypatch.setattr(equilibrium, "continue_branch",
                            lambda *args: calls.append(args) or original(*args))
        curve = spread_curve(params=MertonParams(1.2, 1.5, 0.0))
        for _ in range(2):
            with pytest.raises(BranchError, match="no positive equilibrium"):
                curve.branch
            with pytest.raises(BranchError, match="no positive equilibrium"):
                curve.report
        assert curve.plateau_bp == 0.0
        assert curve.result.completed
        assert curve.diagnostics.converged and curve.diagnostics.trapping_ok
        assert curve.diagnostics.L_numeric == 0.0
        assert len(calls) == 1
