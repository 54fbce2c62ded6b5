import contextlib
import csv
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOLDEN, bumped_generalized_fisher, load_csv

import drbem1d
from drbem1d import cli
from drbem1d.assembly import Grid
from drbem1d.cli import (
    PARAMETERS,
    RunConfig,
    _run_benchmark,
    cmd_check,
    cmd_solve,
    main,
    parse_config,
)
from drbem1d.exceptions import ConfigError, ConvergenceError
from drbem1d.presets import Benchmark, BenchmarkRow
from drbem1d.problems import (
    REGISTRY,
    CoefficientSet,
    PdeProblem,
    ReactionTerm,
    make_allen_cahn,
    make_fisher,
    make_fitzhugh_nagumo,
    make_generalized_fisher,
    make_generalized_fn,
    make_newell_whitehead,
)
from drbem1d.stepping import StepConfig, level_index, run
from drbem1d.verification import compute_errors, fd_oracle

GOOD_CONFIG = """\
equation = fitzhugh_nagumo
rho = 0.75
a = -10
b = 10
h = 0.125
tau = 0.001
t_end = 1.0
"""


class TestParseConfig:
    def test_round_trip(self):
        config = parse_config(GOOD_CONFIG)
        assert config.equation == "fitzhugh_nagumo"
        assert config.params == {"rho": 0.75}
        assert (config.problem.a, config.problem.b) == (-10.0, 10.0)
        assert config.h == 0.125 and config.n is None
        assert config.step.tau == 1e-3 and config.t_end == 1.0
        assert config.snapshots == (1.0,)
        assert config.step.epsilon == 1e-10 and config.step.max_corrector_iters == 100
        assert config.compare_exact and not config.run_oracle

    def test_comments_quotes_and_defaults(self):
        text = (
            "# a full-line comment\n"
            "equation = generalized_fn  # trailing comment\n"
            "rho = 1.0\n"
            'output_path = "out dir with spaces"  # quoted\n'
            "n = 33\n"
            "tau = 0.001\n"
            "t_end = 0.5\n"
            "snapshots = 0.25, 0.5\n"
        )
        config = parse_config(text)
        assert config.output_path == "out dir with spaces"
        assert (config.problem.a, config.problem.b) == (-1.0, 1.0)  # equation default domain
        assert config.snapshots == (0.25, 0.5)

    def test_snapshot_must_be_multiple_of_tau(self):
        text = GOOD_CONFIG + "snapshots = 0.0005\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_alpha_rejected_for_fisher(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("equation = fisher\nalpha = 2\nh = 0.25\ntau = 0.01\nt_end = 0.1\n")
        assert "alpha" in str(excinfo.value)

    def test_rho_rejected_for_fisher(self):
        with pytest.raises(ConfigError):
            parse_config("equation = fisher\nrho = 1\nh = 0.25\ntau = 0.01\nt_end = 0.1\n")

    def test_missing_required_parameter(self):
        with pytest.raises(ConfigError):
            parse_config("equation = fitzhugh_nagumo\nh = 0.25\ntau = 0.01\nt_end = 0.1\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("equation = fisher\nbogus = 1\n")
        assert "line 2" in str(excinfo.value)

    def test_exactly_one_of_h_or_n(self):
        base = "equation = fisher\ntau = 0.01\nt_end = 0.1\n"
        with pytest.raises(ConfigError):
            parse_config(base)
        with pytest.raises(ConfigError):
            parse_config(base + "h = 0.25\nn = 9\n")

    def test_unknown_equation(self):
        with pytest.raises(ConfigError):
            parse_config("equation = heat\nh = 0.25\ntau = 0.01\nt_end = 0.1\n")

    def test_bad_number_reports_line_and_field(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("equation = fisher\ntau = fast\n")
        message = str(excinfo.value)
        assert "line 2" in message and "tau" in message

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.25, nan"])
    def test_non_finite_number_reports_line_and_field(self, value):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(f"equation = fisher\nsnapshots = {value}\n")
        message = str(excinfo.value)
        assert "line 2" in message and "snapshots" in message and "finite" in message

    def test_snapshots_of_one_level_share_their_profile(self):
        config = parse_config("equation = fisher\nn = 9\ntau = 0.01\nt_end = 0.1\n"
                              "snapshots = 0.05, 0.1, 0.05\n")
        assert config.snapshots == (0.05, 0.1, 0.05)

    def test_readme_config_example_parses(self):
        # the documented keys cannot drift from the schema unnoticed
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Config format", 1)[1]
        example = section.split("```", 2)[1]
        config = parse_config(example)
        assert config.equation == "fitzhugh_nagumo" and config.params == {"rho": 0.75}
        assert config.snapshots == (0.25, 0.5, 1.0) and config.output_path == "out/run1"
        assert config.compare_exact and not config.run_oracle



# a config text, the ConfigError's line and field, and its whole message
@pytest.mark.parametrize("text, line, field, message", [
    ("equation = fisher\nn 9\n", 2, None, "line 2: expected 'key = value'"),
    ("equation = fisher\ntau = 0.1\ntau = 0.2\n", 3, None, "line 3: duplicate key 'tau'"),
    ('output_path = "out\n', 1, "output_path",
     "line 1, field 'output_path': unterminated string"),
    ('output_path = "out" dir\n', 1, "output_path",
     "line 1, field 'output_path': unexpected text after string"),
    ("equation = fisher\ntau =  # later\n", 2, "tau", "line 2, field 'tau': empty value"),
    ("run_oracle = maybe\n", 1, "run_oracle",
     "line 1, field 'run_oracle': expected true/false, got 'maybe'"),
    ("n = 9\ntau = 0.1\nt_end = 0.1\n", None, "equation",
     "field 'equation': missing required key"),
    ("equation = fisher\nn = 9\ntau = 0.1\n", None, "t_end",
     "field 't_end': missing required key"),
    ("equation = fisher\nn = 9\nt_end = 0.1\n", None, "tau",
     "field 'tau': missing required key"),
], ids=["no-equals", "duplicate", "unterminated", "after-string", "empty", "boolean",
        "no-equation", "no-t_end", "no-tau"])
def test_parse_config_names_the_line_and_field_of_each_input_check(text, line, field, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert (excinfo.value.line, excinfo.value.field, str(excinfo.value)) == (line, field, message)


def test_cmd_reproduce_rejects_an_unknown_benchmark(tmp_path):
    # argparse's choices stop the name at the command line; the library call checks it
    with pytest.raises(ConfigError, match="unknown benchmark 'table9'"):
        cli.cmd_reproduce("table9", tmp_path)
    assert list(tmp_path.iterdir()) == []

def test_parse_config_rejects_generalized_fn_past_pi_half():
    with pytest.raises(ConfigError, match="horizon must lie in"):
        parse_config("equation = generalized_fn\nrho = 1\nh = 0.25\ntau = 0.01\nt_end = 1.6\n")


def test_parse_config_rejects_non_divisor_spacing():
    with pytest.raises(ConfigError, match="spacing 0.3 does not evenly divide"):
        parse_config("equation = fisher\nh = 0.3\ntau = 0.01\nt_end = 0.1\n")


SUMMARY = "t,l_inf,rms,corrector_iters,corrector_iters_max_to_t"


class TestCmdSolve:
    def make_config(self, tmp_path, extra=""):
        text = (
            "equation = generalized_fn\nrho = 1.0\nh = 0.25\ntau = 0.01\n"
            f't_end = 0.1\noutput_path = "{tmp_path}"\n' + extra
        )
        return parse_config(text)

    def test_zero_horizon_emits_sampled_initial(self, tmp_path):
        config = parse_config(
            "equation = generalized_fn\nrho = 1.0\nh = 0.25\ntau = 0.01\n"
            f't_end = 0.0\noutput_path = "{tmp_path}"\n'
        )
        assert cmd_solve(config) == 0
        _, rows = load_csv(tmp_path / "profile_t0.000000.csv")
        problem = config.problem
        x = np.array([float(r["x"]) for r in rows])
        u = np.array([float(r["u_numeric"]) for r in rows])
        np.testing.assert_allclose(u, problem.exact(x, 0.0), atol=1e-15)

    def test_profiles_summary_and_error_reproducibility(self, tmp_path):
        config = self.make_config(tmp_path, "snapshots = 0.05, 0.1\nrun_oracle = true\n")
        assert cmd_solve(config) == 0
        _, summary = load_csv(tmp_path / "summary.csv")
        assert [row["t"] for row in summary] == [f"{t:.15e}" for t in (0.05, 0.1)]
        for row, t in zip(summary, (0.05, 0.1)):
            _, profile = load_csv(tmp_path / f"profile_t{t:.6f}.csv")
            u = np.array([float(r["u_numeric"]) for r in profile])
            exact = np.array([float(r["u_exact"]) for r in profile])
            report = compute_errors(u, exact)
            assert abs(report.l_inf - float(row["l_inf"])) <= 1e-12
            assert abs(report.rms - float(row["rms"])) <= 1e-12
            assert int(row["corrector_iters"]) < 100
            assert "u_oracle" in profile[0]
            assert float(row["drbem_vs_oracle"]) < 1e-2

    def test_one_oracle_march_gives_the_per_snapshot_columns(self, tmp_path, monkeypatch):
        # the u_oracle columns must be the bytes of one fd_oracle march per
        # snapshot time, as when each snapshot marched again from t = 0
        config = self.make_config(tmp_path, "snapshots = 0, 0.05, 0.1\nrun_oracle = true\n")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fd_oracle(*args, **kwargs)

        monkeypatch.setattr(cli, "fd_oracle", counted)
        assert cmd_solve(config) == 0
        assert len(calls) == 1
        problem, grid = config.problem, config.grid
        for t in (0.0, 0.05, 0.1):
            _, profile = load_csv(tmp_path / f"profile_t{t:.6f}.csv")
            expected = fd_oracle(problem, grid, config.step, t).states[-1].u
            assert [row["u_oracle"] for row in profile] == [f"{v:.15e}" for v in expected]

    def test_summary_corrector_columns_follow_level_iterations(self, tmp_path):
        config = parse_config(
            "equation = generalized_fn\nrho = 1.0\nh = 0.25\ntau = 0.02\nt_end = 0.08\n"
            f'snapshots = 0, 0.04, 0.08\noutput_path = "{tmp_path}"\n'
        )
        assert cmd_solve(config) == 0
        _, summary = load_csv(tmp_path / "summary.csv")
        traj = run(config.problem, config.grid, config.step, config.t_end)
        iters = traj.level_iterations
        # the last level takes fewer passes than the first, so a level's own count
        # and the running maximum differ at t_end
        assert len(iters) == 4 and iters[3] < max(iters)
        expected = [(0, 0), (iters[1], max(iters[:2])), (iters[3], max(iters))]
        assert [(int(row["corrector_iters"]), int(row["corrector_iters_max_to_t"]))
                for row in summary] == expected

    # each layout of `solve`'s tables: the compare_exact and run_oracle settings,
    # then the profile's and the summary's headers
    @pytest.mark.parametrize("compare_exact, run_oracle, profile, summary", [
        ("false", "false", "x,u_numeric", SUMMARY),
        ("true", "false", "x,u_numeric,u_exact,abs_error", SUMMARY),
        ("false", "true", "x,u_numeric,u_oracle", SUMMARY + ",l_inf_oracle,drbem_vs_oracle"),
        ("true", "true", "x,u_numeric,u_exact,abs_error,u_oracle",
         SUMMARY + ",l_inf_oracle,drbem_vs_oracle"),
    ], ids=["plain", "exact", "oracle", "exact+oracle"])
    def test_byte_identical_reruns(self, tmp_path, compare_exact, run_oracle, profile, summary):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            config = parse_config(
                "equation = fisher\nn = 17\ntau = 0.01\nt_end = 0.1\n"
                f'output_path = "{out}"\ncompare_exact = {compare_exact}\n'
                f"run_oracle = {run_oracle}\n"
            )
            assert cmd_solve(config) == 0
        for name, header in (("profile_t0.100000.csv", profile), ("summary.csv", summary)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            lines = (out_a / name).read_text().splitlines()
            assert [line for line in lines if not line.startswith("#")][0] == header


def test_benchmark_records_row_failures_and_returns_2(tmp_path):
    healthy = PdeProblem(
        coeffs=CoefficientSet.constant(0.0, 1.0, 0.0),
        reaction=ReactionTerm(0.0, lambda u: 0.0 * u, lambda u: 0.0 * u),
        a=0.0, b=1.0, horizon=1.0,
        initial=lambda x: x,
        bc_left=lambda t: 0.0,
        bc_right=lambda t: 1.0,
        exact=lambda x, t: x + 0.0 * x,
    )
    broken = PdeProblem(
        coeffs=CoefficientSet.constant(0.0, 1e-13, 0.0),
        reaction=healthy.reaction,
        a=0.0, b=1.0, horizon=1.0,
        initial=lambda x: x,
        bc_left=lambda t: 0.0,
        bc_right=lambda t: 1.0,
        exact=lambda x, t: x + 0.0 * x,
    )
    # a front with a genuine spatial error, so neighbouring rows have an order
    fisher = make_fisher(a=0.0, b=1.0, horizon=1.0)
    broken_fisher = dataclasses.replace(fisher, coeffs=CoefficientSet.constant(0.0, 1e-13, 1.0))

    def row(problem, h_den):
        return BenchmarkRow(labels=(("h", f"1/{h_den}"), ("tau", "1/100")), problem=problem,
                            h=1.0 / h_den, tau=0.01)

    bench = Benchmark(
        name="synthetic",
        t_end=0.1,
        notes=("synthetic benchmark for failure handling",),
        rows=(
            row(healthy, 4),
            row(broken, 4),
            # same tau throughout: rows 3 and 4 would pair with their predecessor
            # if it had not failed; row 5 pairs with row 4
            row(fisher, 4),
            row(broken_fisher, 8),
            row(fisher, 16),
            row(fisher, 32),
        ),
    )
    assert _run_benchmark(bench, tmp_path) == 2
    _, rows = load_csv(tmp_path / "synthetic.csv")
    # label columns come from the rows' labels; no row has a reference
    assert list(rows[0])[:3] == ["h", "tau", "l_inf"] and "l_inf_reference" not in rows[0]
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error:")
    assert rows[1]["l_inf"] == ""
    assert [r["status"] == "ok" for r in rows[2:]] == [True, False, True, True]
    assert rows[3]["observed_order"] == ""
    assert rows[4]["observed_order"] == ""
    assert rows[5]["observed_order"] != ""


def test_a_failed_row_whose_message_holds_a_comma_keeps_the_header_cell_count(tmp_path):
    # at tau = 1/2 the corrector diverges at t = 0.5, and its message lists causes
    # separated by commas
    problem = make_generalized_fisher(6.0)
    with pytest.raises(ConvergenceError) as excinfo:
        run(problem, Grid.with_spacing(problem.a, problem.b, 0.25), StepConfig(tau=0.5), 1.0)
    assert "," in str(excinfo.value)
    bench = Benchmark(name="comma", t_end=1.0, notes=("a note, with a comma",), rows=tuple(
        BenchmarkRow(labels=(("h", "1/4"), ("tau", label)), problem=problem, h=0.25, tau=tau)
        for label, tau in (("1/100", 0.01), ("1/2", 0.5))))
    assert _run_benchmark(bench, tmp_path) == 2
    lines = (tmp_path / "comma.csv").read_text().splitlines()
    assert lines[:2] == ["# generated by drbem1d reproduce comma", "# a note, with a comma"]
    header, *rows = csv.reader(lines[2:])
    assert header == ["h", "tau", "l_inf", "rms", "observed_order", "iters_max", "status"]
    assert [len(row) for row in rows] == [len(header)] * 2
    assert [row[-1] for row in rows] == ["ok", "error: " + str(excinfo.value)]


# the optional columns of a `reproduce` table: track_peak, a reference on the
# rows, and the header they give
@pytest.mark.parametrize("track_peak, reference, header", [
    (False, None, "h,tau,l_inf,rms,observed_order,iters_max,status"),
    (True, None, "h,tau,l_inf,rms,observed_order,l_inf_peak,iters_max,status"),
    (False, 1e-3, "h,tau,l_inf,rms,observed_order,l_inf_reference,rms_reference,"
                  "l_inf_rel_dev,iters_max,status"),
    (True, 1e-3, "h,tau,l_inf,rms,observed_order,l_inf_peak,l_inf_reference,rms_reference,"
                 "l_inf_rel_dev,iters_max,status"),
], ids=["plain", "peak", "reference", "peak+reference"])
def test_each_benchmark_layout_names_its_columns(tmp_path, track_peak, reference, header):
    rows = tuple(BenchmarkRow(labels=(("h", f"1/{den}"), ("tau", "1/100")), problem=make_fisher(),
                              h=1.0 / den, tau=0.01, reference_l_inf=reference,
                              reference_rms=reference) for den in (4, 8))
    bench = Benchmark(name="layout", t_end=0.02, notes=(), rows=rows, track_peak=track_peak)
    assert _run_benchmark(bench, tmp_path) == 0
    lines = (tmp_path / "layout.csv").read_text().splitlines()
    assert lines[1] == header and len(lines) == 4
    _, table = load_csv(tmp_path / "layout.csv")
    assert [row["status"] for row in table] == ["ok", "ok"]


# one setting of a fisher run changed (None drops the key), the exit code of
# `solve` on that config, and the text its one stderr line names
BAD_SETTINGS = [
    pytest.param({"tau": "0"}, 1, "tau", id="tau=0"),
    pytest.param({"tau": "nan"}, 1, "'tau'", id="tau=nan"),
    pytest.param({"epsilon": "0"}, 1, "epsilon", id="epsilon=0"),
    pytest.param({"epsilon": "nan"}, 1, "'epsilon'", id="epsilon=nan"),
    pytest.param({"max_iters": "0"}, 1, "max_corrector_iters", id="max_iters=0"),
    pytest.param({"max_iters": "1"}, 1, "max_corrector_iters", id="max_iters=1"),
    # iterates that cycle at rounding level never come within this epsilon, so
    # an accepted cap of 1e17 would run without end
    pytest.param({"tau": "0.1", "t_end": "1", "epsilon": "5e-324",
                  "max_iters": "100000000000000000"}, 1,
                 "max_corrector_iters = 100000000000000000 is more than 10000",
                 id="max_iters=1e17,epsilon=5e-324"),
    pytest.param({"a": "3"}, 1, "a < b", id="a>=b"),
    pytest.param({"n": None, "h": "0"}, 1, "spacing h", id="h=0"),
    pytest.param({"n": "2"}, 1, "n >= 3", id="n=2"),
    pytest.param({"n": "-1"}, 1, "node count n = -1", id="n=-1"),
    # node counts past numpy's largest array, given and implied
    pytest.param({"n": "99999999999999999999999999"}, 1,
                 "node count n = 99999999999999999999999999", id="n=1e26"),
    pytest.param({"n": None, "h": "1e-300"}, 1, "spacing h = 1e-300", id="h=1e-300"),
    pytest.param({"t_end": "-1"}, 1, "t_end", id="t_end=-1"),
    pytest.param({"snapshots": "0.005"}, 1, "snapshot 0.005", id="snapshot-not-multiple"),
    pytest.param({"snapshots": "0.1"}, 1, "snapshot 0.1", id="snapshot-beyond-t_end"),
    pytest.param({"equation": "generalized_fisher", "alpha": "nan"}, 1, "'alpha'",
                 id="alpha=nan"),
    pytest.param({"equation": "fitzhugh_nagumo", "rho": "inf"}, 1, "'rho'", id="rho=inf"),
    pytest.param({"tau": "1e-310", "t_end": "1e-310"}, 2, "solver failure",
                 id="tau=t_end=1e-310"),
    # t_end / tau overflows to inf
    pytest.param({"tau": "1e-300", "t_end": "1e300"}, 1,
                 "t_end 1e+300 over tau = 1e-300 is not a finite number of levels",
                 id="tau=1e-300,t_end=1e300"),
    # profile names of 321 bytes, longer than a file system takes
    pytest.param({"equation": "fitzhugh_nagumo", "rho": "0.5", "tau": "1e300", "t_end": "1e300"},
                 1, "field 't_end': time 1e+300 would write a profile name of 321 bytes",
                 id="t_end=1e300"),
    pytest.param({"tau": "1e300", "t_end": "1e300", "snapshots": "0, 1e300"}, 1,
                 "field 'snapshots': time 1e+300 would write a profile name of 321 bytes",
                 id="snapshot=1e300"),
    # the exact kink that gives the boundary values overflows
    pytest.param({"equation": "generalized_fn", "rho": "1e300"}, 2,
                 "solver failure: corrector diverged at t = 0.01", id="rho=1e300"),
]


def bad_setting_config(tmp_path, settings):
    keys = {"equation": "fisher", "n": "9", "tau": "0.01", "t_end": "0.05",
            "output_path": f'"{tmp_path}"', **settings}
    return "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)


class TestMainExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main([]) == 1
        assert main(["reproduce", "table9"]) == 1
        capsys.readouterr()

    def test_missing_config_file_is_3(self, capsys):
        assert main(["solve", "/nonexistent/run.cfg"]) == 3
        capsys.readouterr()

    def test_bad_config_is_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("equation = fisher\nwhat = 1\n")
        assert main(["solve", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_solver_failure_is_2(self, tmp_path, capsys):
        path = tmp_path / "stall.cfg"
        path.write_text(
            "equation = fisher\nn = 9\ntau = 0.05\nt_end = 0.05\nmax_iters = 2\n"
            f'output_path = "{tmp_path}"\n'
        )
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "solver" in err and "difference 5.446e-04 after 2 iterations" in err

    def test_diverging_corrector_is_2(self, tmp_path, capsys):
        path = tmp_path / "diverge.cfg"
        path.write_text(
            "equation = generalized_fisher\nalpha = 6\nh = 0.25\ntau = 0.5\nt_end = 1\n"
            f'output_path = "{tmp_path}"\n'
        )
        # the overflow inside the reaction must not leak out as a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", str(path)]) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("drbem1d: solver failure")

    def test_nan_initial_data_is_2(self, tmp_path, capsys, monkeypatch):
        def fisher_with_nan(a, b, horizon):
            problem = make_fisher(a=a, b=b, horizon=horizon)
            return dataclasses.replace(
                problem, initial=lambda x: np.where(x == 0.0, np.nan, problem.initial(x))
            )

        monkeypatch.setitem(REGISTRY, "fisher", (fisher_with_nan, None))
        path = tmp_path / "nan.cfg"
        path.write_text(
            "equation = fisher\na = -2\nb = 2\nn = 9\ntau = 0.01\nt_end = 0.05\n"
            f'output_path = "{tmp_path}"\n'
        )
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "solver" in err and "Traceback" not in err

    def test_negative_base_is_2_naming_the_level_and_node(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(REGISTRY, "generalized_fisher",
                            (bumped_generalized_fisher, "alpha"))
        path = tmp_path / "dip.cfg"
        path.write_text(
            "equation = generalized_fisher\nalpha = 2.5\nh = 0.25\ntau = 0.01\nt_end = 0.05\n"
            f'output_path = "{tmp_path}"\n'
        )
        assert main(["solve", str(path)]) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("drbem1d: negative base")
        assert "at t = 0.01: first negative node u[10] = " in err_lines[0]

    def test_nonpositive_alpha_is_1(self, tmp_path, capsys):
        path = tmp_path / "alpha.cfg"
        path.write_text(
            "equation = generalized_fisher\nalpha = 0\nh = 0.25\ntau = 0.01\nt_end = 0.1\n"
            f'output_path = "{tmp_path}"\n'
        )
        assert main(["solve", str(path)]) == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, code, named", BAD_SETTINGS)
    def test_bad_setting_exit_code_table(self, tmp_path, capsys, settings, code, named):
        path = tmp_path / "run.cfg"
        path.write_text(bad_setting_config(tmp_path, settings))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", str(path)]) == code
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("drbem1d:") and named in err_lines[0]

    @pytest.mark.parametrize("data, offset", [
        # 18 bytes of the first line and 5 of "# caf" come before the Latin-1 e-acute
        pytest.param(b"equation = fisher\n# caf\xe9\n", 23, id="latin-1"),
        # the offset counts the byte-order mark too
        pytest.param(b"\xef\xbb\xbfequation = \xe9\n", 14, id="after-bom"),
    ])
    def test_undecodable_config_is_1_naming_the_path_and_offset(self, tmp_path, capsys, data,
                                                                offset):
        path = tmp_path / "undecodable.cfg"
        path.write_bytes(data)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"drbem1d: {path}: not UTF-8 text (byte 0xe9 at offset {offset})"]

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        path = tmp_path / "bom.cfg"
        text = f'equation = fisher\nn = 9\ntau = 0.01\nt_end = 0.05\noutput_path = "{tmp_path}"\n'
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "profile_t0.050000.csv").exists()

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 72.8 TiB for an array", "Unable to allocate 72.8 TiB for an array"),
        ("", "allocation failed"),  # the interpreter's own MemoryError carries no text
    ], ids=["numpy", "bare"])
    def test_running_out_of_memory_is_2(self, tmp_path, capsys, monkeypatch, message, shown):
        # stands in for an allocation failure; no real allocation is attempted
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run", exhausted)
        path = tmp_path / "huge.cfg"
        path.write_text(f'equation = fisher\nn = 9\ntau = 0.01\nt_end = 0.05\n'
                        f'output_path = "{tmp_path}"\n')
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"drbem1d: out of memory: {shown}"]

    def test_colliding_snapshot_names_are_1(self, tmp_path, capsys):
        path = tmp_path / "close.cfg"
        path.write_text("equation = fisher\nn = 9\ntau = 1e-7\nt_end = 2e-7\n"
                        f'snapshots = 1e-7, 2e-7\noutput_path = "{tmp_path}"\n')
        assert main(["solve", str(path)]) == 1
        # levels 1 and 2 of tau = 1e-7 both print as t = 0.000000
        assert capsys.readouterr().err.splitlines() == [
            "drbem1d: field 'snapshots': snapshots 1e-07 and 2e-07 would both write "
            "profile_t0.000000.csv"]
        assert not list(tmp_path.glob("*.csv"))

    def test_a_level_count_past_the_bound_is_1_before_any_march(self, tmp_path, capsys,
                                                                 monkeypatch):
        def no_march(*args, **kwargs):
            raise AssertionError("the march started")

        monkeypatch.setattr(cli, "run", no_march)
        text = f'equation = fisher\nn = 9\ntau = 1e-300\nt_end = 0.1\noutput_path = "{tmp_path}"\n'
        with pytest.raises(ConfigError, match="more than the 1e"):
            parse_config(text)
        path = tmp_path / "endless.cfg"
        path.write_text(text)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "drbem1d: t_end = 0.1 over tau = 1e-300 gives 1e+299 time levels, "
            "more than the 1e+09 a run may march"]
        assert not list(tmp_path.glob("*.csv"))

    def test_good_run_is_0(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text(
            "equation = fisher\nn = 9\ntau = 0.01\nt_end = 0.05\n"
            f'output_path = "{tmp_path}"\n'
        )
        assert main(["solve", str(path)]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("settings, code, named",
                         [case for case in BAD_SETTINGS if case.values[1] == 1])
def test_parse_config_raises_every_exit_1_setting(tmp_path, settings, code, named):
    # every input failure of `solve` comes from parse_config, before anything is
    # built, run or written, with the text the stderr line shows
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_config(bad_setting_config(tmp_path, settings))


@pytest.mark.parametrize("settings, status", [
    pytest.param("tau = 0.01\nt_end = 0.05\nepsilon = nan", 1, id="epsilon=nan"),
    pytest.param("tau = 1e-310\nt_end = 1e-310", 2, id="tau=t_end=1e-310"),
    pytest.param("tau = 1e-300\nt_end = 1e300", 1, id="tau=1e-300,t_end=1e300"),
])
def test_exit_status_at_the_process_boundary(tmp_path, settings, status):
    """`python -m drbem1d.cli` exits with main's code and prints no traceback."""
    path = tmp_path / "run.cfg"
    path.write_text(f'equation = fisher\nn = 9\n{settings}\noutput_path = "{tmp_path}"\n')
    package_root = str(Path(drbem1d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "drbem1d.cli", "solve", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == status
    assert proc.stderr.startswith("drbem1d:") and "Traceback" not in proc.stderr


# values every numeric key may draw beside its ordinary ones
EXTREMES = ("0", "-0", "1e300", "-1e300", "1e-300", "5e-324", "1e17", "-1e17")
# each key's ordinary values.  With these and the extremes a grid has at most
# 2,000 nodes or more than 1e16, which numpy refuses at once: no config
# allocates a grid in between
ORDINARY = {
    "tau": ("0.01", "0.1", "0.5"),
    "t_end": ("0", "0.1", "1"),
    "n": ("3", "9", "2000", "100000000000000000"),
    "h": ("0.1", "0.25", "0.5"),
    "a": ("-2", "0"),
    "b": ("1", "10"),
    "epsilon": ("1e-10", "1e-6"),
    "max_iters": ("2", "100", "100000000000000000"),
    "snapshots": ("0", "0.1, 0.2", "0, 1e300"),
    "compare_exact": ("true", "false"),
    "run_oracle": ("true", "false"),
    **dict.fromkeys(PARAMETERS, ("0.5", "1", "2")),
}
OPTIONAL = ("a", "b", "epsilon", "max_iters", "snapshots", "compare_exact", "run_oracle",
            *PARAMETERS)


@st.composite
def solve_configs(draw):
    """A `solve` config: an equation (or an unknown one), tau, t_end, n or h, the
    equation's parameter, and up to four more keys, each value ordinary or extreme."""
    equation = draw(st.sampled_from([*REGISTRY, "heat"]))
    wanted = REGISTRY.get(equation, (None, None))[1]
    keys = ["tau", "t_end", draw(st.sampled_from(["n", "h"])), *filter(None, [wanted])]
    keys += draw(st.lists(st.sampled_from([k for k in OPTIONAL if k != wanted]), unique=True,
                          max_size=4))
    values = [draw(st.one_of(st.sampled_from(ORDINARY[k]), st.sampled_from(EXTREMES)))
              for k in keys]
    return f"equation = {equation}\n" + "".join(f"{k} = {v}\n" for k, v in zip(keys, values))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(solve_configs())
def test_solve_keeps_the_failure_contract_on_generated_configs(text):
    # exit 0 to 3, a failure told in one `drbem1d:` line and nothing else on
    # stderr, and a config parse_config accepts never fails to write its profiles
    with tempfile.TemporaryDirectory() as out:
        text += f'output_path = "{out}"\n'
        try:
            with np.errstate(all="ignore"):  # as main parses it
                config = parse_config(text)
        except (ConfigError, MemoryError):
            config = None
        if config is not None and (level_index(config.t_end, config.step.tau) > 300
                                   or config.grid.n > 2000
                                   or config.step.max_corrector_iters > 1000):
            return  # a valid run, but more than a few hundred levels or passes
        path = Path(out) / "run.cfg"
        path.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["solve", str(path)])
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("drbem1d:"), lines
    assert not (config is not None and code == 3), lines


CHECK_LINES = (
    *(f"harmonic identity (N={n})" for n in (3, 9, 33)),
    "psi'' = phi (50 radii)",
    *(f"exact-solution residual {name}" for name in (
        "fitzhugh_nagumo(0.75)", "generalized_fn(1)", "generalized_fisher(1)",
        "generalized_fisher(2)")),
    "transcribed fisher wave rejected",
    "run = fd_oracle within 0.1 h_max^2 (fisher, generalized_fn(1))",
)


def test_cmd_check_passes(capsys):
    # the 10 lines, in order; the N x N checks (interpolation exactness, the
    # spline form against E) are tests in test_rbf and test_assembly, and the
    # dpttrs = band solve lines test_stepping's
    assert cmd_check() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "all checks passed"
    assert [line.partition(":")[0] for line in lines[:-1]] == [f"PASS  {name}"
                                                                for name in CHECK_LINES]


def test_check_matches_the_golden_output(capsys, tmp_path, output_digest):
    # tests/golden/check.txt holds what `drbem1d check` printed.  Verdicts, names
    # and the text around the figures must be the same; a figure whose golden
    # value is at least 1e-6 (the transcribed wave's residual, run = fd_oracle's
    # four constants) must be within 1% of it, and the roundoff-level ones count
    # only through their line's PASS
    assert main(["check"]) == 0
    (tmp_path / "check.txt").write_text(capsys.readouterr().out)
    report, breaches = output_digest.compare_file("check.txt", tmp_path / "check.txt",
                                                  GOLDEN / "check.txt")
    assert breaches == [], "\n".join(report)


def test_check_passes_without_importing_numpy_random():
    # the battery samples a fixed sequence: numpy.random's import costs about
    # 12 ms and 6 MB, more than the rest of the battery's run
    package_root = str(Path(drbem1d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from drbem1d.cli import main; assert main(['check']) == 0; "
            "assert 'numpy.random' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_output_digest_compare_reports_numeric_iteration_and_text_changes(tmp_path,
                                                                          output_digest):
    golden, new = tmp_path / "golden", tmp_path / "new"
    golden.mkdir()
    new.mkdir()
    notes = "# note, kept whole\nh,l_inf,observed_order,l_inf_rel_dev,iters_max,status\n"
    (golden / "t.csv").write_text(notes + "1/4,1.0,,-0.2,3,ok\n"
                                  "1/8,0.5,1.5,-0.2,4,ok\n1/16,0.25,1.5,-0.2,4,ok\n")
    # inside every rule: l_inf 5e-10 relative, observed_order 2e-9 absolute (its
    # bound is 2e-9 / ln 2), l_inf_rel_dev 5e-10 absolute, which is 6.25e-10
    # relative on its 1 + value 0.8
    (new / "t.csv").write_text(notes + "1/4,1.0000000005,,-0.1999999995,3,ok\n"
                               "1/8,0.5,1.500000002,-0.2,4,ok\n1/16,0.25,1.5,-0.2,4,ok\n")
    report, breaches = output_digest.compare_file("t.csv", new / "t.csv", golden / "t.csv")
    assert breaches == []
    assert report[0] == "t.csv: largest relative change 2.5e-09 (line 3 l_inf_rel_dev)"
    # beyond them: l_inf 2e-9 relative, observed_order 4e-9 absolute,
    # l_inf_rel_dev 1.25e-9 relative on its 1 + value, a corrector count, a status
    (new / "t.csv").write_text(notes + "1/4,1.000000002,,-0.2,3,ok\n"
                               "1/8,0.5,1.500000004,-0.199999999,3,ok\n"
                               "1/16,0.25,1.5,-0.2,4,failed\n")
    report, breaches = output_digest.compare_file("t.csv", new / "t.csv", golden / "t.csv")
    assert report == [
        "t.csv: largest relative change 5e-09 (line 4 l_inf_rel_dev)",
        "  by column: l_inf 2e-09, l_inf_rel_dev 5e-09, observed_order 2.7e-09",
        *(f"  {breach}" for breach in breaches),
    ]
    assert breaches == [
        "line 3 l_inf: '1.0' -> '1.000000002' breaches its rule",
        "line 4 observed_order: '1.5' -> '1.500000004' breaches its rule",
        "line 4 l_inf_rel_dev: '-0.2' -> '-0.199999999' breaches its rule",
        "line 4 iters_max: '4' -> '3'",
        "line 5 status: 'ok' -> 'failed'",
    ]
    # check.txt: a figure of at least 1e-6 within 1% and a roundoff-level one
    # anywhere pass; 2% off, a PASS that became FAIL and a new line breach
    (golden / "check.txt").write_text("PASS  wave: residual 4.64e-02\n"
                                      "PASS  identity: residual 2.22e-16\n")
    (new / "check.txt").write_text("PASS  wave: residual 4.66e-02\n"
                                   "PASS  identity: residual 9.99e-16\n")
    assert output_digest.compare_file("check.txt", new / "check.txt",
                                      golden / "check.txt")[1] == []
    (new / "check.txt").write_text("PASS  wave: residual 4.74e-02\n"
                                   "FAIL  identity: residual 2.22e-16\nall checks passed\n")
    assert output_digest.compare_file("check.txt", new / "check.txt",
                                      golden / "check.txt")[1] == [
        "line count: 2 -> 3",
        "line 1 figure: '4.64e-02' -> '4.74e-02' breaches its rule",
        "line 2 text: 'PASS  identity: residual #' -> 'FAIL  identity: residual #'",
    ]
    # a file on one side only breaches; so do the two above
    (new / "extra.csv").write_text(notes)
    report, breached = output_digest.compare_dirs(new, golden)
    assert f"extra.csv: only in {new}" in report
    assert breached == [Path("check.txt"), Path("extra.csv"), Path("t.csv")]


def test_shipped_configs_parse_and_build():
    from pathlib import Path

    config_dir = Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(config_dir.glob("*.cfg"))
    assert len(paths) >= 4
    for path in paths:
        config = parse_config(path.read_text())
        assert (config.grid.a, config.grid.b) == (config.problem.a, config.problem.b)


# the factory each registry name must reach, and a parameter value for it
DIRECT_FACTORIES = {
    "fisher": (make_fisher, {}),
    "generalized_fisher": (make_generalized_fisher, {"alpha": 3.0}),
    "allen_cahn": (make_allen_cahn, {}),
    "newell_whitehead": (make_newell_whitehead, {}),
    "fitzhugh_nagumo": (make_fitzhugh_nagumo, {"rho": 0.75}),
    "generalized_fn": (make_generalized_fn, {"rho": 1.5}),
}


def test_registry_names_are_all_checked():
    assert set(REGISTRY) == set(DIRECT_FACTORIES)


@pytest.mark.parametrize("equation", list(REGISTRY))
def test_registry_builds_the_named_problem(equation):
    factory, params = DIRECT_FACTORIES[equation]
    text = f"equation = {equation}\nn = 9\ntau = 0.01\nt_end = 0.5\n"
    text += "".join(f"{name} = {value}\n" for name, value in params.items())
    problem = parse_config(text).problem
    direct = factory(**params, horizon=0.5)  # the factory's default domain
    assert (problem.a, problem.b) == (direct.a, direct.b)
    u = np.linspace(0.05, 0.95, 7)
    np.testing.assert_array_equal(problem.reaction.full(u), direct.reaction.full(u))
    x = np.linspace(direct.a, direct.b, 9)
    for t in (0.0, 0.25, 0.5):
        np.testing.assert_array_equal(problem.exact(x, t), direct.exact(x, t))
