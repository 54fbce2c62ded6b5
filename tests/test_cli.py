import dataclasses
import warnings

import numpy as np
import pytest

from helpers import load_csv

from drbem1d.cli import (
    RunConfig,
    _run_benchmark,
    build_grid,
    build_problem,
    cmd_check,
    cmd_solve,
    main,
    parse_config,
)
from drbem1d.exceptions import ConfigError
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
from drbem1d.stepping import StepConfig, run
from drbem1d.verification import compute_errors

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
        assert (config.a, config.b) == (-10.0, 10.0)
        assert config.h == 0.125 and config.n is None
        assert config.tau == 1e-3 and config.t_end == 1.0
        assert config.snapshots == (1.0,)
        assert config.epsilon == 1e-10 and config.max_iters == 100
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
        assert (config.a, config.b) == (-1.0, 1.0)  # equation default domain
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


def test_build_problem_rejects_generalized_fn_past_pi_half():
    config = parse_config(
        "equation = generalized_fn\nrho = 1\nh = 0.25\ntau = 0.01\nt_end = 1.6\n"
    )
    with pytest.raises(ConfigError):
        build_problem(config)


def test_build_grid_rejects_non_divisor_spacing():
    config = parse_config("equation = fisher\nh = 0.3\ntau = 0.01\nt_end = 0.1\n")
    with pytest.raises(ConfigError):
        build_grid(config)


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
        problem = build_problem(config)
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

    def test_summary_corrector_columns_follow_level_iterations(self, tmp_path):
        config = parse_config(
            "equation = generalized_fn\nrho = 1.0\nh = 0.25\ntau = 0.02\nt_end = 0.08\n"
            f'snapshots = 0, 0.04, 0.08\noutput_path = "{tmp_path}"\n'
        )
        assert cmd_solve(config) == 0
        _, summary = load_csv(tmp_path / "summary.csv")
        traj = run(build_problem(config), build_grid(config), StepConfig(tau=config.tau),
                   config.t_end)
        iters = traj.level_iterations
        # the last level takes fewer passes than the first, so a level's own count
        # and the running maximum differ at t_end
        assert len(iters) == 4 and iters[3] < max(iters)
        expected = [(0, 0), (iters[1], max(iters[:2])), (iters[3], max(iters))]
        assert [(int(row["corrector_iters"]), int(row["corrector_iters_max_to_t"]))
                for row in summary] == expected

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            config = parse_config(
                "equation = fisher\nn = 17\ntau = 0.01\nt_end = 0.1\n"
                f'output_path = "{out}"\n'
            )
            assert cmd_solve(config) == 0
        for name in ("profile_t0.100000.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


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
            "equation = fisher\nn = 9\ntau = 0.05\nt_end = 0.05\nmax_iters = 1\n"
            f'output_path = "{tmp_path}"\n'
        )
        assert main(["solve", str(path)]) == 2
        assert "solver" in capsys.readouterr().err

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

    def test_nonpositive_alpha_is_1(self, tmp_path, capsys):
        path = tmp_path / "alpha.cfg"
        path.write_text(
            "equation = generalized_fisher\nalpha = 0\nh = 0.25\ntau = 0.01\nt_end = 0.1\n"
            f'output_path = "{tmp_path}"\n'
        )
        assert main(["solve", str(path)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_good_run_is_0(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text(
            "equation = fisher\nn = 9\ntau = 0.01\nt_end = 0.05\n"
            f'output_path = "{tmp_path}"\n'
        )
        assert main(["solve", str(path)]) == 0
        capsys.readouterr()


def test_cmd_check_passes(capsys):
    assert cmd_check() == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "transcribed fisher wave rejected" in out


def test_shipped_configs_parse_and_build():
    from pathlib import Path

    config_dir = Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(config_dir.glob("*.cfg"))
    assert len(paths) >= 4
    for path in paths:
        config = parse_config(path.read_text())
        problem = build_problem(config)
        grid = build_grid(config)
        assert grid.a == problem.a and grid.b == problem.b


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
    problem = build_problem(parse_config(text))
    direct = factory(**params, horizon=0.5)  # the factory's default domain
    assert (problem.a, problem.b) == (direct.a, direct.b)
    u = np.linspace(0.05, 0.95, 7)
    np.testing.assert_array_equal(problem.reaction.full(u), direct.reaction.full(u))
    x = np.linspace(direct.a, direct.b, 9)
    for t in (0.0, 0.25, 0.5):
        np.testing.assert_array_equal(problem.exact(x, t), direct.exact(x, t))
