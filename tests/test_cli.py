import io
import json
import math
import os
import contextlib
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import expressions

from abelode import SolverConfig, cli, get_case, reduce_about
from abelode.cli import _g17, _write_csv, main
from abelode.reduction import NotASolutionError

RICCATI_CFG = "degree = 2\ncoefficients = 1 | 0 | -1\nx0 = 0\ny0 = 0\nx_end = 10\n"
CASE3_CFG = ("degree = 3\ncoefficients = 3 - 2*exp(-2*x) | -4 | 0 | 1\n"
             "x0 = 0\ny0 = 0\nx_end = 20\n")
FAR_ZERO_CFG = ("degree = 3\ncoefficients = 10 - x | -3*(10 - x) | 10 - x | 10 - x\n"
                "x0 = 0\ny0 = 0\nx_end = 5\n")
CASE1_ONE_STEP_CFG = ("degree = 3\ncoefficients = 1 | -3 | 1 | 1\n"
                      "x0 = 0\ny0 = 0\nx_end = 20\nmax_steps = 1\n")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    except SystemExit as ex:  # argparse-level usage errors
        code = ex.code
    return code, out.getvalue(), err.getvalue()


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def read_report(out_dir):
    """out_dir/report.json as strict JSON: NaN and Infinity are refused."""
    return json.loads((out_dir / "report.json").read_text(), parse_constant=_not_json)


def read_rows(path):
    lines = path.read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    return body[0].split(","), [l.split(",") for l in body[1:]]


class TestCaseCommand:
    def test_run_and_outputs(self, tmp_path):
        code, out, _ = run(["case", "1", "--out", tmp_path / "c1"])
        assert code == 0
        assert out.splitlines()[0] == "case 1: L_numeric=0.414213562, gap=2.665e-15"
        names = sorted(p.name for p in (tmp_path / "c1").iterdir())
        assert names == ["branch.csv", "report.json", "trajectory.csv"]

    def test_trajectory_csv_contract(self, tmp_path):
        run(["case", "1", "--out", tmp_path / "c1"])
        header, rows = read_rows(tmp_path / "c1" / "trajectory.csv")
        assert header == ["x", "y", "h_used", "newton_iters"]
        assert rows[0][:2] == ["0", "0"]
        # 17 significant digits must round-trip exactly
        for text in rows[-1][:2]:
            assert format(float(text), ".17g") == text

    def test_branch_csv_contract(self, tmp_path):
        run(["case", "1", "--out", tmp_path / "c1"])
        header, rows = read_rows(tmp_path / "c1" / "branch.csv")
        assert header == ["x", "E", "Lambda", "E_prime"]
        assert len(rows) == 2001
        assert float(rows[1000][1]) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_report_json(self, tmp_path):
        run(["case", "1", "--out", tmp_path / "c1"])
        payload = read_report(tmp_path / "c1")
        assert {c["id"]: c["status"] for c in payload["checks"]} == {
            k: "pass" for k in ("A1", "A2", "A3", "A4", "B1", "B2", "B3")}

    def test_run_that_did_not_complete_reports_no_plateau(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_solver_from_flags", lambda args: SolverConfig(max_steps=1))
        code, out, err = run(["case", "1", "--out", tmp_path / "c1"])
        assert code == 1
        assert out.startswith("case 1: L_numeric=none, gap=")
        assert err == "integration failed: step-failure: max_steps=1 exceeded\n"

    def test_longer_horizon(self, tmp_path):
        code, out, _ = run(["case", "2", "--x-max", "2000", "--out", tmp_path / "o"])
        assert code == 0
        assert out.splitlines()[0] == "case 2: L_numeric=0.381804174, gap=1.618e-04"

    def test_branch_lost_names_a_plain_float(self, tmp_path):
        # case 3's grid on [0, 3000] is too coarse: the branch is lost at the
        # midpoint of its first cell
        code, out, err = run(["case", "3", "--x-max", "3000", "--out", tmp_path / "o"])
        assert code == 1
        assert err == "numeric failure: branch lost (jump beyond threshold) at x=0.75\n"

    def test_long_run_flag(self, tmp_path):
        code, out, _ = run(["case", "2", "--long-run", "--out", tmp_path / "o"])
        assert code == 0
        assert "gap=1.618e-06" in out.splitlines()[0]

    @pytest.mark.parametrize("case_id", ["1", "3"])
    def test_long_run_on_another_case_is_usage_error(self, tmp_path, case_id):
        # the flag names case 2's horizon; on another case it is refused, not ignored
        code, out, err = run(["case", case_id, "--long-run", "--out", tmp_path / "o"])
        assert code == 64
        assert err == f"error: --long-run is for case 2 only, got case {case_id}\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_long_run_with_x_max_is_usage_error(self, tmp_path):
        # both flags set the horizon; neither silently yields to the other
        code, out, err = run(["case", "2", "--long-run", "--x-max", "100",
                              "--out", tmp_path / "o"])
        assert code == 64
        assert err == "error: --long-run and --x-max are mutually exclusive\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_horizon_at_or_below_x0_is_usage_error(self, tmp_path):
        code, out, err = run(["case", "2", "--x-max", "0.5", "--out", tmp_path / "o"])
        assert code == 64
        assert err == "error: x_max=0.5 must exceed x0=1.0\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_unknown_case_is_usage_error(self):
        assert run(["case", "9"])[0] == 64

    def test_byte_identical_reruns(self, tmp_path):
        run(["case", "1", "--out", tmp_path / "a"])
        run(["case", "1", "--out", tmp_path / "b"])
        for name in ("trajectory.csv", "branch.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_gnuplot_companions(self, tmp_path):
        code, _, _ = run(["case", "3", "--gnuplot", "--out", tmp_path / "g"])
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "g").iterdir())
        assert "trajectory.gp" in names and "branch.gp" in names
        script = (tmp_path / "g" / "trajectory.gp").read_text()
        assert "set datafile separator comma" in script

    def test_case_2_branch_plot_has_a_log_axis(self, tmp_path):
        assert run(["case", "2", "--gnuplot", "--out", tmp_path / "g"])[0] == 0
        assert "set logscale x" in (tmp_path / "g" / "branch.gp").read_text().splitlines()
        assert "set logscale x" not in (tmp_path / "g" / "trajectory.gp").read_text()


class TestIntegrateCommand:
    def test_riccati_config(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(RICCATI_CFG)
        code, out, _ = run(["integrate", cfg, "--out", tmp_path / "r"])
        assert code == 0
        assert out.startswith("final_x=10 final_y=")
        _, rows = read_rows(tmp_path / "r" / "trajectory.csv")
        final_y = float(rows[-1][1])
        assert abs(final_y - math.tanh(10.0)) <= 1e-9

    def test_config_equivalent_to_builtin_case(self, tmp_path):
        cfg = tmp_path / "c3.cfg"
        cfg.write_text(CASE3_CFG)
        run(["case", "3", "--out", tmp_path / "builtin"])
        run(["integrate", cfg, "--out", tmp_path / "via_cfg"])
        a = (tmp_path / "builtin" / "trajectory.csv").read_bytes()
        b = (tmp_path / "via_cfg" / "trajectory.csv").read_bytes()
        assert a == b

    def test_branch_and_hypotheses_flags(self, tmp_path):
        cfg = tmp_path / "c3.cfg"
        cfg.write_text(CASE3_CFG)
        code, _, _ = run(["integrate", cfg, "--branch", "--hypotheses",
                          "--out", tmp_path / "full"])
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "full").iterdir())
        assert names == ["branch.csv", "report.json", "trajectory.csv"]

    def test_config_with_a_byte_order_mark(self, tmp_path):
        # an editor's UTF-8 byte-order mark once made the first key
        # "\ufeffdegree", an unknown key (exit 64)
        outputs = []
        for name, text in (("plain", CASE3_CFG), ("bom", "\ufeff" + CASE3_CFG)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text, encoding="utf-8")
            code, out, err = run(["integrate", cfg, "--branch", "--hypotheses",
                                  "--out", tmp_path / name])
            assert code == 0, err
            files = sorted((tmp_path / name).iterdir())
            outputs.append((out, [(p.name, p.read_bytes()) for p in files]))
        assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs[1] == outputs[0]

    def test_branch_past_a_leading_zero_beyond_the_range(self, tmp_path):
        cfg = tmp_path / "far.cfg"
        cfg.write_text(FAR_ZERO_CFG)
        code, out, err = run(["integrate", cfg, "--branch", "--out", tmp_path / "b"])
        assert (code, err) == (0, "")
        assert out.startswith("final_x=5 final_y=0.41421356237309509 ")
        _, rows = read_rows(tmp_path / "b" / "branch.csv")
        assert len(rows) == 2001 and rows[-1][0] == "5"

    def test_branch_flag_alone_writes_no_report(self, tmp_path):
        cfg = tmp_path / "c3.cfg"
        cfg.write_text(CASE3_CFG)
        code, out, _ = run(["integrate", cfg, "--branch", "--out", tmp_path / "b"])
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "branch.csv", "trajectory.csv"]
        assert out.startswith("final_x=20 final_y=")

    def test_step_with_no_half_step_is_a_step_failure(self, tmp_path):
        # h0 = 5e-324 halves to 0: the run ends before the step (exit 1)
        # instead of dividing by h/2 = 0
        cfg = tmp_path / "h0.cfg"
        cfg.write_text("degree = 3\ncoefficients = 1 | -3 | 1 | 1\nx0 = 0\ny0 = 0\n"
                       "x_end = 20\nh0 = 5e-324\n")
        code, _, err = run(["integrate", cfg, "--out", tmp_path / "o"])
        assert code == 1
        assert "step size 5e-324 has no half step at x=0.0" in err

    def test_b3_integral_does_not_move_with_a_shift_of_x(self, tmp_path):
        # case 3 shifted by c: E' is exact at every scale of x, so the witness
        # agrees across c (a finite difference with step 1e-8 |x| read
        # 13.769 at c = 0 and 1.67e8 at c = 1e9), and so does the status
        integrals, statuses = [], []
        for c in (0.0, 1e3, 1e6, 1e9):
            cfg = tmp_path / f"shift{c:g}.cfg"
            cfg.write_text(f"degree = 3\ncoefficients = 3 - 2*exp(-2*(x - {c!r})) | -4 | 0 | 1\n"
                           f"x0 = {c!r}\ny0 = 0\nx_end = {c + 20.0!r}\n")
            code, _, err = run(["integrate", cfg, "--hypotheses", "--out", tmp_path / f"{c:g}"])
            assert code == 0, err
            b3 = read_report(tmp_path / f"{c:g}")["checks"][-1]
            assert b3["id"] == "B3"
            integrals.append(b3["witness"]["B3_integral"])
            statuses.append(b3["status"])
        assert max(integrals) - min(integrals) <= 1e-9 * integrals[0]
        assert statuses == [statuses[0]] * 4

    def test_gnuplot_companion(self, tmp_path):
        cfg = tmp_path / "c3.cfg"
        cfg.write_text(CASE3_CFG)
        assert run(["integrate", cfg, "--gnuplot", "--out", tmp_path / "g"])[0] == 0
        assert sorted(p.name for p in (tmp_path / "g").iterdir()) == [
            "trajectory.csv", "trajectory.gp"]
        assert (tmp_path / "g" / "trajectory.gp").read_text().splitlines()[-1] == (
            "plot 'trajectory.csv' using 1:2 with lines title 'y(x)'")

    def test_branch_failure_comes_after_the_trajectory(self, tmp_path):
        # y' = 1 + y has no positive equilibrium: the trajectory is written
        # before continuation fails, and no branch file is
        cfg = tmp_path / "lin.cfg"
        cfg.write_text("degree = 1\ncoefficients = 1 | 1\nx0 = 0\ny0 = 0\nx_end = 1\n")
        code, _, err = run(["integrate", cfg, "--branch", "--out", tmp_path / "o"])
        assert code == 1
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["trajectory.csv"]
        assert "numeric failure: no positive equilibrium at the first grid point" in err

    @pytest.mark.parametrize("content", [
        "degree = 3\ncoefficients = 1 | 0 | -1\nx0 = 0\ny0 = 0\nx_end = 1\n",  # count
        "degree = 2\ndegree = 2\ncoefficients = 1 | 0 | -1\nx_end = 1\n",      # dup key
        "degree = 2\ncoefficients = 1 | 0 | -1\nx_end = 1\nwhatsit = 3\n",     # unknown
        "degree = 2\ncoefficients = 1 | 0 | -1\n",                             # no x_end
        "degree = 2\ncoefficients = 1 | 0*) | -1\nx_end = 1\n",                # bad expr
        "degree = inf\ncoefficients = 1 | 0 | -1\nx_end = 1\n",              # inf degree
        "degree = 2\ncoefficients = 1 | 0 | -1\nx_end = 1\natol = nan\n",    # nan atol
        "degree = 2\ncoefficients = 1 | 0 | -1\nx_end = 1\nh0 = 0\n",       # zero h0
        "degree = 2\ncoefficients = 1 | 0 | -1\nx_end = 1\nh_max = -1\n",   # negative h_max
        "degree = 2\ncoefficients = 1 | 0 | -1\nx_end = 1\nnewton_tol = 0\n",  # zero tol
        "degree = 2\ncoefficients = 1 | 0 | -1\nx_end = 1\nmax_steps = 0\n",  # no steps
        "degree = 2\ncoefficients = 1 | 0 | -1\nx_end = 1\nnewton_max_iters = 0\n",
        pytest.param("degree = 2\ncoefficients = 1" + "+1" * 3000 + " | 0 | -1\nx_end = 1\n",
                     id="deep-expression"),
    ])
    def test_config_errors_exit_64(self, tmp_path, content):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(content)
        code, _, err = run(["integrate", cfg])
        assert code == 64
        assert "config error" in err

    def test_missing_config_file(self, tmp_path):
        assert run(["integrate", tmp_path / "nope.cfg"])[0] == 64

    def test_coefficient_domain_error_is_a_numeric_failure(self, tmp_path):
        # sqrt(1 - x) is undefined past x = 1, which the integrator samples
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("degree = 2\ncoefficients = 3 + sqrt(1-x) | -4 - sqrt(1-x) | 1\n"
                       "x0 = 0\ny0 = 0\nx_end = 2\n")
        code, _, err = run(["integrate", cfg, "--out", tmp_path / "i"])
        assert code == 1
        assert err == ("numeric failure: sqrt(-0.00983790427220077) outside real domain"
                       " at x=1.0098379042722008\n")


class TestHypothesesCommand:
    def test_failing_report_exits_2(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(RICCATI_CFG)  # negative leading coefficient
        code, out, _ = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert code == 2
        assert "A1" in out and "fail" in out
        assert read_report(tmp_path / "h")["checks"][0]["status"] == "fail"

    def test_leading_zero_on_the_grid_exits_64(self, tmp_path):
        # the branch grid hits the zero of a3 at x = 3 exactly
        cfg = tmp_path / "lead.cfg"
        cfg.write_text("degree = 3\ncoefficients = 1 | -3 | 1 | x - 3\n"
                       "x0 = 0\ny0 = 0\nx_end = 20\n")
        code, _, err = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert code == 64
        assert "vanishes at x=3.0" in err
        assert "Traceback" not in err

    def test_leading_zero_past_the_range_is_never_met(self, tmp_path):
        # a3 = 10 - x vanishes at x = 10, twice the horizon: no stage samples it
        cfg = tmp_path / "far.cfg"
        cfg.write_text(FAR_ZERO_CFG)
        code, _, err = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert (code, err) == (0, "")
        a1 = read_report(tmp_path / "h")["checks"][0]
        assert (a1["id"], a1["status"], a1["witness"]) == ("A1", "pass", {"m": 5.0})

    def test_log_phi_overflow_is_inconclusive_strict_json(self, tmp_path):
        # log Phi overflows over cells 5e304 wide: B3 is the Phi-range note,
        # not a NaN tail share, and no numpy warning reaches stderr
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("degree = 3\ncoefficients = 10 | -30 | 10 | 10\n"
                       "x0 = 0\ny0 = 0\nx_end = 1e308\n")
        code, _, err = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert (code, err) == (0, "")
        assert read_report(tmp_path / "h")["checks"][-1] == {
            "id": "B3", "note": "Phi or its growth over one grid cell exceeds the float range",
            "status": "inconclusive", "witness": {}}

    def test_non_finite_lambda_is_a_numeric_failure(self, tmp_path):
        # lambda_0 = -1e200 / 1e-200 overflows to -inf; the real root is
        # ~1e133, so "no positive equilibrium" would be wrong
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("degree = 3\ncoefficients = -1e200 | 0 | 0 | 1e-200\n"
                       "x0 = 0\ny0 = 0\nx_end = 20\n")
        code, _, err = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert code == 1
        assert err == "numeric failure: lambda_0 = -inf is not finite at x=0.0\n"

    def test_non_finite_witness_is_null_in_strict_json(self, tmp_path):
        # the branch root is about 3.2e299, so Lambda = F'(E) overflows: A4's
        # worst_value is inf and B2's alpha0 -inf, once written as Infinity
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("degree = 3\ncoefficients = -x | 0 | 1e300 | -pi\n"
                       "x0 = 0\nx_end = 20\n")
        code, out, err = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert (code, err) == (2, "")
        assert "A4     fail          worst_value=inf worst_x=0" in out
        assert "B2     fail          alpha0=-inf" in out
        checks = {c["id"]: c for c in read_report(tmp_path / "h")["checks"]}
        assert checks["A4"]["witness"] == {"worst_value": None, "worst_x": 0.0}
        assert checks["A4"]["note"] == ("non-negative eigenvalue on the branch; "
                                        "not finite, written as null: worst_value=inf")
        assert checks["B2"]["witness"] == {"alpha0": None}
        assert checks["B2"]["note"] == ("no positive decay floor; "
                                        "not finite, written as null: alpha0=-inf")
        assert all(None not in c["witness"].values()
                   for key, c in checks.items() if key not in ("A4", "B2"))

    def test_infinite_eigenvalue_leaves_the_branch_slope_undefined(self, tmp_path):
        # Lambda = F'(E) is inf at every branch point (E about 3.2e299), so
        # E' = -(dF/dx) / Lambda is nan, not -0; no verdict reads it
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("degree = 3\ncoefficients = -x | 0 | 1e300 | -pi\n"
                       "x0 = 0\nx_end = 20\n")
        code, out, err = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert (code, err) == (2, "")
        assert out == ("check  status        witness\n"
                       "A1     fail          m=-3.14159265 worst_x=0\n"
                       "A2     pass\n"
                       "A3     pass          worst_value=3.18309886e+299\n"
                       "A4     fail          worst_value=inf worst_x=0\n"
                       "B1     pass          L=3.18309886e+299 sup_E=3.18309886e+299\n"
                       "B2     fail          alpha0=-inf\n"
                       "B3     inconclusive\n"
                       "(grid-verified sampling check, not a proof)\n")
        sampling = "grid-verified sampling check, not a proof"
        assert read_report(tmp_path / "h") == {
            "checks": [
                {"id": "A1", "note": "leading coefficient not positive", "status": "fail",
                 "witness": {"m": -3.141592653589793, "worst_x": 0.0}},
                {"id": "A2", "note": sampling, "status": "pass", "witness": {}},
                {"id": "A3", "note": sampling, "status": "pass",
                 "witness": {"worst_value": 3.1830988618379066e+299}},
                {"id": "A4", "note": ("non-negative eigenvalue on the branch; "
                                      "not finite, written as null: worst_value=inf"),
                 "status": "fail", "witness": {"worst_value": None, "worst_x": 0.0}},
                {"id": "B1", "note": sampling, "status": "pass",
                 "witness": {"L": 3.1830988618379066e+299, "sup_E": 3.183098861837907e+299}},
                {"id": "B2", "note": "no positive decay floor; not finite, written as null: "
                                     "alpha0=-inf", "status": "fail", "witness": {"alpha0": None}},
                {"id": "B3", "note": "Phi or its growth over one grid cell exceeds the float range",
                 "status": "inconclusive", "witness": {}}],
            "grid": {"structural_count": 2001, "structural_end": 20.0, "structural_start": 0.0,
                     "tail_count": 2001, "tail_end": 20.0, "tail_start": 0.0},
            "note": sampling}
        header, rows = read_rows(tmp_path / "h" / "branch.csv")
        assert header == ["x", "E", "Lambda", "E_prime"] and len(rows) == 2001
        assert {(row[2], row[3]) for row in rows} == {("inf", "nan")}

    def test_right_domain_edge_writes_the_report(self, tmp_path):
        # (1 - x)^1.5 is undefined just right of x_end = 1, and its slope is
        # finite there: the branch's last E' reads nothing past the edge
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("degree = 2\ncoefficients = 3 + (1-x)^1.5 | -4 - (1-x)^1.5 | 1\n"
                       "x0 = 0\ny0 = 0\nx_end = 1\n")
        code, out, err = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert code == 0, err
        assert "B3" in out
        assert "B3_integral" in read_report(tmp_path / "h")["checks"][-1]["witness"]
        _, rows = read_rows(tmp_path / "h" / "branch.csv")
        assert rows[-1][0] == "1" and math.isfinite(float(rows[-1][3]))

    def test_infinite_coefficient_slope_at_the_edge(self, tmp_path):
        # sqrt(1 - x) has an infinite slope at x_end = 1: B3 is inconclusive
        # there, and branch.csv's last E' is nan
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("degree = 2\ncoefficients = 3 + sqrt(1-x) | -4 - sqrt(1-x) | 1\n"
                       "x0 = 0\ny0 = 0\nx_end = 1\n")
        code, out, err = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert code == 0, err
        b3 = read_report(tmp_path / "h")["checks"][-1]
        assert b3["status"] == "inconclusive" and "x=1.0" in b3["note"]
        _, rows = read_rows(tmp_path / "h" / "branch.csv")
        assert rows[-1][:1] == ["1"] and rows[-1][3] == "nan"
        assert all(math.isfinite(float(row[3])) for row in rows[:-1])

    def test_never_integrates(self, tmp_path):
        # one solver step cannot reach x_end, which only integrate notices
        cfg = tmp_path / "c1.cfg"
        cfg.write_text(CASE1_ONE_STEP_CFG)
        assert run(["hypotheses", cfg, "--out", tmp_path / "h"])[0] == 0
        code, _, err = run(["integrate", cfg, "--out", tmp_path / "i"])
        assert code == 1
        assert "integration failed" in err

    @pytest.mark.parametrize("command, message", [
        (["hypotheses"], "grid span overflows for [-1e+308, 1e+308]"),
        (["integrate", "--branch"], "grid span overflows for [-1e+308, 1e+308]"),
        # a run without a branch builds no grid: the integrator refuses it
        (["integrate"], "x_end - x0 overflows for x0=-1e+308, x_end=1e+308"),
    ])
    def test_overflowing_span_exits_64_at_once(self, tmp_path, command, message):
        # x_end - x0 overflows: hypotheses used to warn, write a branch.csv
        # starting at nan and exit 64; integrate to make max_steps attempts
        cfg = tmp_path / "span.cfg"
        cfg.write_text("degree = 3\ncoefficients = 1 | -3 | 1 | 1\n"
                       "x0 = -1e308\nx_end = 1e308\n")
        code, out, err = run([*command, cfg, "--out", tmp_path / "o"])
        assert (code, out) == (64, "")
        assert err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_passing_report_exits_0(self, tmp_path):
        cfg = tmp_path / "c3.cfg"
        cfg.write_text(CASE3_CFG)
        code, out, _ = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert code == 0
        assert "pass" in out
        # an unambiguous branch adds no branch object and no footer line
        assert "branch" not in read_report(tmp_path / "h")
        assert out.splitlines()[-1] == "(grid-verified sampling check, not a proof)"

    def test_ambiguous_branch_note_reaches_the_report_and_the_table(self, tmp_path):
        # (y+1)(y-1)(y-2)(y-3)(y-4): 1 and 3 are both positive stable roots
        # at every grid point; the continuation keeps the one it started on
        cfg = tmp_path / "amb.cfg"
        cfg.write_text("degree = 5\ncoefficients = 24 | -26 | -15 | 25 | -9 | 1\n"
                       "x0 = 0\ny0 = 0\nx_end = 10\n")
        code, out, _ = run(["hypotheses", cfg, "--out", tmp_path / "h"])
        assert code == 0
        note = ("2001 grid point(s) had a second positive stable root;"
                " the continuation kept the nearest root")
        payload = read_report(tmp_path / "h")
        assert payload["branch"] == {"ambiguous_count": 2001, "refinements": 0, "note": note}
        assert out.splitlines()[-2:] == ["(grid-verified sampling check, not a proof)",
                                         f"(branch: {note})"]


class TestReduceCommand:
    def test_builtin_case_pivot(self, tmp_path):
        code, out, _ = run(["reduce", "--case", "1", "--ep", "1",
                            "--out", tmp_path / "red"])
        assert code == 0
        assert out.strip() == "c at x0=0: (2, 4, 1)"
        header, rows = read_rows(tmp_path / "red" / "reduce.csv")
        assert header == ["x", "c1", "c2", "c3"]
        assert len(rows) == 101

    def test_config_equivalent_to_builtin_case(self, tmp_path):
        cfg = tmp_path / "c1.cfg"
        cfg.write_text("degree = 3\ncoefficients = 1 | -3 | 1 | 1\nx_end = 20\n")
        assert run(["reduce", "--case", "1", "--ep", "1", "--out", tmp_path / "builtin"])[0] == 0
        assert run(["reduce", "--config", cfg, "--ep", "1", "--out", tmp_path / "via_cfg"])[0] == 0
        assert (tmp_path / "builtin" / "reduce.csv").read_bytes() == \
            (tmp_path / "via_cfg" / "reduce.csv").read_bytes()

    def test_gnuplot_companion(self, tmp_path):
        assert run(["reduce", "--case", "1", "--ep", "1", "--gnuplot",
                    "--out", tmp_path / "g"])[0] == 0
        assert (tmp_path / "g" / "reduce.gp").read_text().splitlines()[-1] == (
            "plot 'reduce.csv' using 1:2 with lines title 'c1', "
            "'reduce.csv' using 1:3 with lines title 'c2', "
            "'reduce.csv' using 1:4 with lines title 'c3'")

    def test_case_and_config_are_exclusive(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(RICCATI_CFG)
        assert run(["reduce", "--case", "1", "--config", cfg, "--ep", "1"])[0] == 64
        assert run(["reduce", "--ep", "1"])[0] == 64

    def test_non_equilibrium_pivot_is_numeric_error(self, tmp_path):
        # NotASolutionError is a ValueError, yet a numeric failure (exit 1), not a usage error
        with pytest.raises(NotASolutionError) as raised:
            reduce_about(get_case(1).equation, 0.5, [0.0])
        cfg = tmp_path / "c1.cfg"
        cfg.write_text("degree = 3\ncoefficients = 1 | -3 | 1 | 1\nx_end = 20\n")
        for picked in (["--case", "1"], ["--config", cfg]):
            code, out, err = run(["reduce", *picked, "--ep", "0.5", "--out", tmp_path / "red"])
            assert (code, out, err) == (1, "", f"numeric failure: {raised.value}\n"), picked
            assert not (tmp_path / "red").exists()

    def test_pivot_valid_on_the_range_is_accepted(self, tmp_path):
        # every row is sqrt(5 - x) (y - 1)^2, so 1 is an equilibrium on the
        # tabulated [0, 4], though the coefficients fail past x = 5
        cfg = tmp_path / "r.cfg"
        cfg.write_text("degree = 2\ncoefficients = sqrt(5 - x) | -2*sqrt(5 - x) | sqrt(5 - x)\n"
                       "x0 = 0\nx_end = 4\n")
        code, out, err = run(["reduce", "--config", cfg, "--ep", "1", "--out", tmp_path / "red"])
        assert (code, out, err) == (0, "c at x0=0: (0, 2.23607)\n", "")
        _, rows = read_rows(tmp_path / "red" / "reduce.csv")
        assert [row[0] for row in rows[::50]] == ["0", "2", "4"]

    def test_pivot_failing_inside_the_range_is_refused(self, tmp_path):
        # a_0 = 2 (x - 11) past x = 11: 0 is refused at the first row of
        # reduce.csv past 11 (56 * 0.2), and no file is written
        cfg = tmp_path / "r.cfg"
        cfg.write_text("degree = 1\ncoefficients = abs(x - 11) - (11 - x) | -1\nx_end = 20\n")
        code, out, err = run(["reduce", "--config", cfg, "--ep", "0", "--out", tmp_path / "red"])
        assert (code, out) == (1, "")
        assert err == ("numeric failure: pivot value 0.0 is not a root at "
                       "x=11.200000000000001: residual 4.000e-01\n")
        assert not (tmp_path / "red").exists()

    @pytest.mark.parametrize("ep,residual", [("1e308", "inf"), ("1e200", "inf"),
                                             ("-1e155", "-inf")])
    def test_overflowing_pivot_is_refused(self, tmp_path, ep, residual):
        # the residual and its scale overflow together; such a pivot once
        # passed and wrote inf into reduce.csv
        code, out, err = run(["reduce", "--case", "1", f"--ep={ep}", "--out", tmp_path / "red"])
        assert (code, out) == (1, "")
        assert err == (f"numeric failure: pivot value {float(ep)!r} is not a root at x=0.0: "
                       f"residual {residual}\n")
        assert not (tmp_path / "red").exists()

    def test_non_finite_reduced_coefficient_is_refused(self, tmp_path):
        # 1 is an exact root of 8e307 (y^3 - 1), and the residual's scale
        # 1 + 1.6e308 is finite, but the exact c_1 = 3 8e307 = 2.4e308 is
        # past the float range; such a table once wrote inf into reduce.csv
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("degree = 3\ncoefficients = -8e307 | 0 | 0 | 8e307\nx0 = 0\ny0 = 0\n"
                       "x_end = 1\n")
        code, out, err = run(["reduce", "--config", cfg, "--ep", "1", "--out", tmp_path / "red"])
        assert (code, out) == (1, "")
        assert err == "numeric failure: reduced coefficient c1 = inf is not finite at x=0.0\n"
        assert not (tmp_path / "red").exists()

    def test_overflowing_binomial_term_is_tabulated(self, tmp_path):
        # 0 is an exact root of y^2 1e308 + y 1e308; the Taylor shift's
        # 2 a_2 overflows, and inf * 0 once made c_1 NaN and the table a
        # refusal, where the exact c_1 is 1e308
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("degree = 2\ncoefficients = 0 | 1e308 | 1e308\nx0 = 0\ny0 = 0\n"
                       "x_end = 1\n")
        code, out, err = run(["reduce", "--config", cfg, "--ep", "0", "--out", tmp_path / "red"])
        assert (code, out, err) == (0, "c at x0=0: (1e+308, 1e+308)\n", "")
        header, rows = read_rows(tmp_path / "red" / "reduce.csv")
        assert header == ["x", "c1", "c2"] and len(rows) == 101
        assert {tuple(row[1:]) for row in rows} == {("1e+308", "1e+308")}

    @pytest.mark.parametrize("x_max", ["-5", "0"])
    @pytest.mark.parametrize("source", ["case", "config"])
    def test_x_max_at_or_below_x0_is_usage_error(self, tmp_path, source, x_max):
        # the reduced coefficients are tabulated on [x0, x_max], inside [x0, inf)
        cfg = tmp_path / "c1.cfg"
        cfg.write_text("degree = 3\ncoefficients = 1 | -3 | 1 | 1\nx_end = 20\n")
        picked = ["--case", "1"] if source == "case" else ["--config", cfg]
        code, out, err = run(["reduce", *picked, "--ep", "0.41421356237309515",
                              "--x-max", x_max, "--out", tmp_path / "red"])
        assert code == 64
        assert err == f"error: x_max={float(x_max)!r} must exceed x0=0.0\n"
        assert out == ""
        assert not (tmp_path / "red").exists()


class TestSpreadCommand:
    def test_literal_mode(self, tmp_path):
        code, out, _ = run(["spread", "--literal-case1", "--out", tmp_path / "s"])
        assert code == 0
        assert out.startswith("plateau_bp=4142.1356")
        lines = (tmp_path / "s" / "spread.csv").read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# mode=literal-case1") for l in meta)
        assert any(l.startswith("# plateau_bp=4142.135623730") for l in meta)
        header, rows = read_rows(tmp_path / "s" / "spread.csv")
        assert header == ["x", "s"]
        assert float(rows[-1][1]) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-8)

    def test_gnuplot_companion(self, tmp_path):
        assert run(["spread", "--literal-case1", "--gnuplot", "--out", tmp_path / "g"])[0] == 0
        assert sorted(p.name for p in (tmp_path / "g").iterdir()) == ["spread.csv", "spread.gp"]
        assert (tmp_path / "g" / "spread.gp").read_text().splitlines()[-1] == (
            "plot 'spread.csv' using 1:2 with lines title 's(x)'")

    def test_parametric_zero_rate(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("sigma0_sq = 1.2\nmu = 1.5\nr = 0\neta1 = 0.1\neta2 = 0.05\n")
        code, out, _ = run(["spread", "--config", cfg, "--out", tmp_path / "s"])
        assert code == 0
        assert out.startswith("plateau_bp=0.0000")

    def test_run_stopped_at_max_steps_has_not_converged(self, tmp_path):
        # the run stops before its first step; it used to print converged=True
        cfg = tmp_path / "m.cfg"
        cfg.write_text("sigma0_sq = 1.2\nmu = 1.5\nr = 0\neta1 = 0.1\neta2 = 0.05\n"
                       "max_steps = 1\n")
        code, out, err = run(["spread", "--config", cfg, "--out", tmp_path / "s"])
        assert code == 1
        assert out == "plateau_bp=none converged=False\n"
        assert err == "integration failed: step-failure: max_steps=1 exceeded\n"

    def test_parametric_positive_rate_fails_numerically(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("sigma0_sq = 1.2\nmu = 1.5\nr = 0.01\neta1 = 0.1\neta2 = 0.05\n")
        code, out, err = run(["spread", "--config", cfg, "--out", tmp_path / "s"])
        assert code == 1
        assert "integration failed" in err
        # the escaping trajectory's last value is no plateau
        assert out == "plateau_bp=none converged=False\n"
        meta = [l for l in (tmp_path / "s" / "spread.csv").read_text().splitlines()
                if l.startswith("#")]
        assert "# plateau_bp=none" in meta
        assert any(l.startswith("# L_numeric=none converged=False ") for l in meta)

    def test_flag_conflicts(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("sigma0_sq = 1.2\nmu = 1.5\n")
        assert run(["spread"])[0] == 64
        assert run(["spread", "--literal-case1", "--config", cfg])[0] == 64

    def test_missing_params_in_config(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("sigma0_sq = 1.2\n")
        assert run(["spread", "--config", cfg])[0] == 64


class TestOrderTestCommand:
    def test_reports_fifth_order(self):
        code, out, _ = run(["order-test"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h,error"
        observed = float(lines[-1].split(":")[1])
        assert 4.5 <= observed <= 5.5


class TestCsvRows:
    def test_row_bytes_match_g17_per_cell(self, tmp_path):
        # one %-format per row writes what _g17 gives for each cell
        rows = [
            (-0.0, math.nan, 5e-324, 1e308),
            (0.1 + 0.2, 1 / 3, -math.inf, 2.0 ** 0.5),
            (3, -7, 12345678901234567890, 0),
            (np.int64(42), np.int32(-5), np.float64(1e-300), np.float64(-2.5e17)),
            [1.2345678901234567, 9007199254740993, math.pi, math.inf],
        ]
        path = tmp_path / "rows.csv"
        _write_csv(str(path), "a,b,c,d", rows, ["# preamble"])
        expected = ["# preamble", "a,b,c,d", *(",".join(map(_g17, row)) for row in rows)]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        assert path.read_text().splitlines()[2] == "-0,nan,4.9406564584124654e-324,1e+308"


class TestTopLevel:
    def test_no_arguments_is_usage_error(self):
        assert run([])[0] == 64

    @pytest.mark.parametrize("argv,flag", [
        (["reduce", "--case", "1", "--ep", "nan"], "--ep"),
        (["case", "1", "--atol", "nan"], "--atol"),
        (["case", "1", "--rtol", "inf"], "--rtol"),
        (["case", "1", "--x-max", "inf"], "--x-max"),
        (["spread", "--literal-case1", "--x-max", "inf"], "--x-max"),
        (["spread", "--literal-case1", "--x0=-inf"], "--x0"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_flag_is_usage_error(self, tmp_path, argv, flag):
        code, out, err = run(argv + ["--out", tmp_path / "out"])
        assert code == 64
        assert err.splitlines()[-1].endswith(f"argument {flag}: not a finite number: "
                                             f"{argv[-1].split('=')[-1]!r}")
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"])[0] == 64

    @pytest.mark.parametrize("command", ["case 1 --out {out}",
                                         "reduce --case 1 --ep 1 --out {out}", "order-test"])
    def test_stdout_closed_by_its_reader_ends_the_run_quietly(self, tmp_path, command):
        # a pipe whose read end is closed: the first line written raises
        # BrokenPipeError, and the run stops with exit 1 and nothing on stderr
        read_end, write_end = os.pipe()
        os.close(read_end)
        err = io.StringIO()
        with open(write_end, "w", buffering=1) as broken:
            with contextlib.redirect_stdout(broken), contextlib.redirect_stderr(err):
                code = main(command.format(out=tmp_path / "o").split())
                # the descriptor now leads to devnull: writing and closing succeed
                print("more")
        assert code == 1
        assert err.getvalue() == ""


class TestGeneratedConfigs:
    """The config subcommands on generated equations: whatever the
    coefficients, a run ends in a declared exit code, any report it writes
    is strict JSON, and no warning or exception escapes."""

    COMMANDS = (["hypotheses", "{cfg}"], ["integrate", "{cfg}", "--hypotheses"],
                ["reduce", "--config", "{cfg}", "--ep", "0"])

    # 60 examples of three in-process runs each, each example within 20 s
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=timedelta(seconds=20),
              suppress_health_check=[HealthCheck.too_slow])
    @given(sources=st.lists(expressions, min_size=2, max_size=5))
    def test_exit_codes_and_reports(self, sources):
        config = (f"degree = {len(sources) - 1}\ncoefficients = {' | '.join(sources)}\n"
                  "x0 = 0\ny0 = 0\nx_end = 5\nmax_steps = 400\n")
        with tempfile.TemporaryDirectory() as scratch:
            cfg = Path(scratch) / "eq.cfg"
            cfg.write_text(config)
            for i, command in enumerate(self.COMMANDS):
                out_dir = Path(scratch) / f"out{i}"
                code, out, err = run([a.format(cfg=cfg) for a in command] + ["--out", out_dir])
                assert code in (0, 1, 2, 64), (command, code, err)
                assert "Traceback" not in out + err
                if (out_dir / "report.json").exists():
                    read_report(out_dir)
