"""Command-line surface: subcommands, configs, exit codes, file formats.

Exit code map under test: 0 success, 1 failed verification check,
2 usage/config error, 3 numerical failure.  Everything runs in-process
through run() except two subprocess tests: one runs the
[project.scripts] entry point of pyproject.toml through a generated
console-script wrapper, the other runs `python -m fracode`.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

import fracode
from fracode import __version__
from fracode.cli import run
from fracode.fracops import Mesh, default_grading
from fracode.solver import FracProblem
from fracode.solver import solve as lib_solve
from fracode.verify import CORPUS_SEED, TrialRecord, run_corpus

PI_OVER_4 = 0.7853981633974483
INV_SQRT_PI = 0.5641895835477563


@pytest.fixture
def cli(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def invoke(*args: str):
        rc = run(list(args))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return invoke


class TestMittagLefflerCommand:
    def test_exponential_golden(self, cli):
        rc, out, _ = cli("ml", "--alpha", "1", "--beta", "1", "--z", "1")
        assert rc == 0
        assert out == "2.718281828459045\n"

    def test_beta_defaults_to_one(self, cli):
        rc, out, _ = cli("ml", "--alpha", "0.5", "--z", "-1")
        assert rc == 0
        # E_0.5(-1) = e erfc(1) = 0.42758357615580700441... (mpmath), so
        # this is the correctly rounded double
        assert out == "0.427583576155807\n"


class TestSolveCommand:
    def test_spec_row_count(self, cli, tmp_path):
        rc, out, _ = cli(
            "solve", "--gamma", "0.5", "--rhs", "-1*u", "--u0", "1",
            "--T", "1", "--n", "4096", "--out", "u.csv",
        )
        assert rc == 0
        lines = (tmp_path / "u.csv").read_text().splitlines()
        assert lines[0] == "t,u"
        assert len(lines) - 1 == 4097
        assert json.loads(out)["rows"] == 4097

    def test_csv_is_lf_only(self, cli, tmp_path):
        cli("solve", "--gamma", "0.5", "--rhs", "0", "--u0", "1", "--n", "16",
            "--out", "u.csv")
        raw = (tmp_path / "u.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"t,u\n0,1\n")

    def test_stdout_csv_without_out(self, cli):
        rc, out, _ = cli("solve", "--gamma", "0.5", "--rhs", "0", "--u0", "2",
                         "--n", "8")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t,u"
        assert len(lines) == 10
        assert all(ln.endswith(",2") for ln in lines[1:])

    def test_report_carries_version_and_status(self, cli):
        rc, out, _ = cli("solve", "--gamma", "0.5", "--rhs", "-1*u", "--u0", "1",
                         "--n", "32", "--out", "u.csv")
        rep = json.loads(out)
        assert rep["version"] == __version__
        assert rep["config"]["subcommand"] == "solve"
        assert rep["status"] == "COMPLETED"

    def test_csv_round_trips_losslessly(self, cli, tmp_path):
        cli("solve", "--gamma", "0.5", "--rhs", "-1*u", "--u0", "1", "--n", "64",
            "--mesh", "uniform", "--out", "u.csv")
        arr = np.loadtxt(tmp_path / "u.csv", delimiter=",", skiprows=1)
        path = lib_solve(
            FracProblem.from_rhs(0.5, "-1*u", 1.0, 1.0), Mesh.uniform(1.0, 64)
        )
        assert np.array_equal(arr[:, 0], path.mesh.nodes)
        assert np.array_equal(arr[:, 1], path.values)

    @pytest.mark.parametrize("mesh", ["uniform", "graded", "geometric"])
    def test_mesh_kinds(self, cli, mesh):
        rc, out, _ = cli("solve", "--gamma", "0.5", "--rhs", "0", "--u0", "1",
                         "--n", "16", "--mesh", mesh)
        assert rc == 0
        assert len(out.splitlines()) == 18

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("sub", ["solve", "asympt"])
    @pytest.mark.parametrize(
        "mesh,key",
        [
            ("uniform", "grading"),
            ("geometric", "grading"),
            ("uniform", "t_start"),
            ("graded", "t_start"),
        ],
    )
    def test_shape_of_another_mesh_kind_is_usage_error(self, cli, tmp_path, via, sub, mesh, key):
        settings = {"gamma": 0.5, "rhs": "-1*u", "u0": 1, "n": 16, "mesh": mesh, key: 0.5}
        if via == "flag":
            flags = [(f"--{k.replace('_', '-')}", str(v)) for k, v in settings.items()]
            rc, out, err = cli(sub, *[arg for pair in flags for arg in pair])
        else:
            (tmp_path / "c.json").write_text(json.dumps({"subcommand": sub, **settings}))
            rc, out, err = cli("--config", "c.json")
        assert rc == 2
        assert out == ""
        assert f"--{key.replace('_', '-')} goes only with --mesh" in err

    @pytest.mark.parametrize(
        "mesh,shape", [("uniform", []), ("graded", ["grading"]), ("geometric", ["t_start"])]
    )
    def test_echo_holds_only_the_shape_read(self, cli, mesh, shape):
        rc, out, _ = cli("solve", "--gamma", "0.5", "--rhs", "0", "--u0", "1", "--n", "16",
                         "--mesh", mesh, "--out", "u.csv")
        assert rc == 0
        keys = ["subcommand", "gamma", "rhs", "u0", "T", "mesh", "n", *shape, "out"]
        assert list(json.loads(out)["config"]) == keys

    def test_unknown_mesh_is_usage_error(self, cli):
        rc, _, err = cli("solve", "--gamma", "0.5", "--rhs", "0", "--u0", "1",
                         "--mesh", "random")
        assert rc == 2
        assert "mesh" in err

    def test_missing_flag_is_usage_error(self, cli):
        rc, _, err = cli("solve", "--gamma", "0.5", "--u0", "1")
        assert rc == 2
        assert "--rhs" in err

    def test_domain_violation_is_usage_error(self, cli):
        rc, _, err = cli("solve", "--gamma", "1.5", "--rhs", "0", "--u0", "1")
        assert rc == 2

    def test_evaluation_failure_exits_3(self, cli, tmp_path):
        rc, _, _ = cli("solve", "--gamma", "0.5", "--rhs", "log(u)", "--u0", "0.5",
                       "--n", "128", "--out", "trunc.csv")
        assert rc == 3
        # the partial path is still written for inspection
        assert (tmp_path / "trunc.csv").read_text().startswith("t,u\n")

    def test_rhs_failing_at_initial_value_exits_3(self, cli):
        # EvalError subclasses ValueError but is a numerical failure
        rc, out, err = cli("solve", "--gamma", "0.5", "--rhs", "log(u)", "--u0", "0",
                           "--n", "8")
        assert rc == 3
        assert out == ""
        assert "numerical failure" in err and "log" in err

    def test_blowup_truncation_is_informative(self, cli):
        rc, out, _ = cli("solve", "--gamma", "0.5", "--rhs", "u^2", "--u0", "1",
                         "--n", "64", "--mesh", "uniform", "--out", "b.csv")
        assert rc == 0
        assert json.loads(out)["status"] == "BLOWUP_SUSPECTED"


class TestConfigHandling:
    def test_minimal_config_runs(self, cli, tmp_path):
        cfg = {"subcommand": "solve", "gamma": 0.5, "rhs": "0", "u0": 1, "T": 1, "n": 16}
        (tmp_path / "min.json").write_text(json.dumps(cfg))
        rc, out, _ = cli("--config", "min.json")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) - 1 == 17
        assert all(ln.endswith(",1") for ln in lines[1:])

    def test_unknown_key_is_named(self, cli, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"subcommand": "solve", "gama": 0.5}))
        rc, _, err = cli("--config", "bad.json")
        assert rc == 2
        assert '"gama"' in err

    def test_flag_overrides_config(self, cli, tmp_path):
        cfg = {"subcommand": "solve", "gamma": 0.5, "rhs": "0", "u0": 1, "T": 1, "n": 16}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        rc, out, _ = cli("solve", "--config", "c.json", "--n", "32", "--out", "u.csv")
        rep = json.loads(out)
        assert rep["config"]["n"] == 32
        assert rep["rows"] == 33

    def test_echo_round_trip_is_bitwise(self, cli, tmp_path):
        rc, out, _ = cli("solve", "--gamma", "0.5", "--rhs", "-1*u", "--u0", "1",
                         "--n", "64", "--out", "a.csv")
        echo = json.loads(out)["config"]
        (tmp_path / "echo.json").write_text(json.dumps(echo))
        rc2, _, _ = cli("solve", "--config", "echo.json", "--out", "b.csv")
        assert rc == rc2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_whole_report_replays_as_config(self, cli, tmp_path):
        # a saved report carries its config; feeding it back replays the run
        rc, out, _ = cli("solve", "--gamma", "0.5", "--rhs", "-1*u", "--u0", "1",
                         "--n", "64", "--out", "a.csv")
        (tmp_path / "report.json").write_text(out)
        rc2, _, _ = cli("--config", "report.json", "--out", "b.csv")
        assert rc == rc2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_parse_error_reports_position(self, cli, tmp_path):
        (tmp_path / "broken.json").write_text('{"subcommand": "solve",}')
        rc, _, err = cli("--config", "broken.json")
        assert rc == 2
        assert "line 1" in err

    def test_subcommand_mismatch(self, cli, tmp_path):
        cfg = {"subcommand": "solve", "gamma": 0.5, "rhs": "0", "u0": 1}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        rc, _, err = cli("ml", "--config", "c.json", "--alpha", "1", "--z", "1")
        assert rc == 2
        assert "does not match" in err

    def test_missing_config_file(self, cli):
        rc, _, err = cli("--config", "nowhere.json")
        assert rc == 2
        assert "cannot read config" in err

    def test_dangling_config_flag(self, cli):
        rc, _, err = cli("--config")
        assert rc == 2

    def test_config_with_equals_sign_names_the_subcommand(self, cli, tmp_path):
        cfg = {"subcommand": "solve", "gamma": 0.5, "rhs": "0", "u0": 1, "T": 1, "n": 16}
        (tmp_path / "eq.json").write_text(json.dumps(cfg))
        rc, out, _ = cli("--config=eq.json")
        assert rc == 0
        assert out == cli("--config", "eq.json")[1]
        # the last --config wins, in either spelling
        rc, _, err = cli("--config=eq.json", "--config", "nowhere.json")
        assert rc == 2 and "cannot read config" in err
        rc, out2, _ = cli("--config", "nowhere.json", "--config=eq.json")
        assert rc == 0 and out2 == out

    def test_non_object_config(self, cli, tmp_path):
        (tmp_path / "list.json").write_text("[1, 2]")
        rc, _, err = cli("solve", "--config", "list.json")
        assert rc == 2
        assert "JSON object" in err


class TestTransformCommands:
    @pytest.fixture
    def ramp_csv(self, cli, tmp_path):
        # u(t) = t sampled on a uniform mesh
        t = np.linspace(0.0, 1.0, 129)
        rows = "\n".join(f"{x:.17g},{x:.17g}" for x in t)
        (tmp_path / "ramp.csv").write_text("t,u\n" + rows + "\n")
        return "ramp.csv"

    def test_caputo_of_ramp(self, cli, ramp_csv):
        # D^{1/2} t = t^{1/2} / Gamma(3/2)
        rc, out, _ = cli("caputo", "--gamma", "0.5", "--in", ramp_csv)
        assert rc == 0
        last = out.splitlines()[-1].split(",")
        want = 1.0 / math.gamma(1.5)
        assert abs(float(last[1]) - want) < 1e-2

    def test_jint_of_constant(self, cli, tmp_path):
        t = np.linspace(0.0, 1.0, 65)
        (tmp_path / "one.csv").write_text(
            "t,u\n" + "\n".join(f"{x:.17g},1" for x in t) + "\n"
        )
        rc, out, _ = cli("jint", "--gamma", "0.5", "--in", "one.csv")
        assert rc == 0
        # piecewise-linear quadrature is exact for a constant integrand
        last = float(out.splitlines()[-1].split(",")[1])
        assert abs(last - 1.0 / math.gamma(1.5)) < 1e-10

    def test_caputo_u0_defaults_to_first_sample(self, cli, ramp_csv):
        _, base, _ = cli("caputo", "--gamma", "0.5", "--in", ramp_csv)
        _, explicit, _ = cli("caputo", "--gamma", "0.5", "--in", ramp_csv, "--u0", "0")
        assert base == explicit
        _, shifted, _ = cli("caputo", "--gamma", "0.5", "--in", ramp_csv, "--u0", "0.5")
        assert shifted != base

    def test_headerless_csv_accepted(self, cli, tmp_path):
        (tmp_path / "raw.csv").write_text("0,1\n0.5,1\n1,1\n")
        rc, out, _ = cli("jint", "--gamma", "0.5", "--in", "raw.csv")
        assert rc == 0
        assert len(out.splitlines()) == 4

    def test_output_file_with_report(self, cli, tmp_path, ramp_csv):
        rc, out, _ = cli("caputo", "--gamma", "0.5", "--in", ramp_csv,
                         "--out", "d.csv")
        assert rc == 0
        rep = json.loads(out)
        assert rep["rows"] == 129
        assert (tmp_path / "d.csv").read_text().startswith("t,u\n")

    def test_rejects_wide_csv(self, cli, tmp_path):
        (tmp_path / "wide.csv").write_text("t,u,v\n0,1,2\n1,1,2\n")
        rc, _, err = cli("jint", "--gamma", "0.5", "--in", "wide.csv")
        assert rc == 2
        assert "two-column" in err

    def test_rejects_missing_input(self, cli):
        rc, _, err = cli("jint", "--gamma", "0.5", "--in", "void.csv")
        assert rc == 2

    def test_rejects_nonnumeric_cell(self, cli, tmp_path):
        (tmp_path / "junk.csv").write_text("t,u\n0,one\n")
        rc, _, err = cli("caputo", "--gamma", "0.5", "--in", "junk.csv")
        assert rc == 2
        assert "non-numeric" in err


class TestBlowupCommand:
    def test_reference_problem(self, cli):
        rc, out, _ = cli("blowup", "--gamma", "0.5", "--A", "1", "--p", "2",
                         "--u0", "1")
        assert rc == 0
        rep = json.loads(out)
        assert rep["theory_constant"] == pytest.approx(INV_SQRT_PI, rel=1e-9)
        assert rep["theory_exponent"] == 0.5
        assert abs(rep["exponent_fit"] - 0.5) <= 0.015
        assert 0.17 < rep["Tb_estimate"] < 0.19
        assert rep["refinement_drift"] <= 0.01

    def test_wrong_regime_is_usage_error(self, cli):
        rc, _, err = cli("blowup", "--gamma", "0.5", "--A", "-1", "--p", "2",
                         "--u0", "1")
        assert rc == 2

    def test_threshold_at_the_start_is_usage_error(self, capfd):
        # capfd, not capsys: a fit on too few nodes fails inside LAPACK,
        # which writes its DLASCL complaint to the process's own stderr
        rc = run(["blowup", "--gamma", "0.5", "--A", "1", "--p", "2", "--u0", "1",
                  "--u-max", "1"])
        err = capfd.readouterr().err
        assert rc == 2
        assert "u_max" in err
        assert "DLASCL" not in err

    @pytest.mark.parametrize("levels", ["0", "-3"])
    def test_fewer_than_one_refinement_level_is_usage_error(self, cli, levels):
        rc, out, err = cli("blowup", "--gamma", "0.5", "--A", "1", "--p", "2", "--u0", "1",
                           "--u-max", "1e4", "--refine-levels", levels)
        assert rc == 2
        assert out == ""
        assert "refine_levels" in err


class TestExtinctionCommand:
    def test_reference_problem(self, cli):
        rc, out, _ = cli("extinction", "--gamma", "0.5", "--A", "-1", "--p", "-1",
                         "--u0", "1")
        assert rc == 0
        rep = json.loads(out)
        assert 0.0 < rep["touch_time"] <= PI_OVER_4 * 1.02
        assert rep["upper_bound_time"] == pytest.approx(PI_OVER_4, rel=1e-12)

    @pytest.mark.parametrize("eps", ["2", "0", "-0.1"])
    def test_touch_threshold_outside_the_start_is_usage_error(self, cli, eps):
        rc, out, err = cli("extinction", "--gamma", "0.5", "--A", "-1", "--p", "-1",
                           "--u0", "1", "--eps-touch", eps)
        assert rc == 2
        assert out == ""
        assert "eps_touch" in err


class TestAsymptCommand:
    def test_sublinear_growth_far_field(self, cli):
        rc, out, _ = cli(
            "asympt", "--gamma", "0.5", "--A", "1", "--p", "0.5", "--u0", "1",
            "--T", "1000", "--mesh", "geometric", "--n", "2048",
            "--t-lo", "100", "--t-hi", "1000",
        )
        assert rc == 0
        rep = json.loads(out)
        assert abs(rep["exponent"] - 1.0) < 0.05
        assert rep["theory_exponent"] == pytest.approx(1.0)
        assert rep["theory_constant"] == pytest.approx(PI_OVER_4, rel=1e-10)
        assert 0.9 * PI_OVER_4 < rep["constant"] < 1.4 * PI_OVER_4

    def test_linear_decay_far_field(self, cli):
        rc, out, _ = cli(
            "asympt", "--gamma", "0.5", "--A", "-1", "--p", "1", "--u0", "1",
            "--T", "1000", "--mesh", "geometric", "--n", "2048",
            "--t-lo", "100", "--t-hi", "1000",
        )
        rep = json.loads(out)
        assert rc == 0
        assert rep["theory_exponent"] == -0.5
        assert abs(rep["exponent"] - (-0.5)) < 0.05
        assert rep["theory_constant"] is None

    def test_rhs_route_tags_theory(self, cli):
        rc, out, _ = cli("asympt", "--gamma", "0.5", "--rhs", "-1*u", "--u0", "1",
                         "--n", "256")
        assert rc == 0
        assert json.loads(out)["theory_exponent"] == -0.5

    def test_needs_exactly_one_problem_form(self, cli):
        rc, _, err = cli("asympt", "--gamma", "0.5", "--u0", "1", "--rhs", "u",
                         "--A", "1", "--p", "2")
        assert rc == 2
        assert "either --rhs or the pair" in err
        rc, _, err = cli("asympt", "--gamma", "0.5", "--u0", "1")
        assert rc == 2

    def test_window_flags_come_together(self, cli):
        rc, _, err = cli("asympt", "--gamma", "0.5", "--rhs", "u", "--u0", "1",
                         "--t-lo", "0.1")
        assert rc == 2
        assert "--t-lo and --t-hi" in err


class TestEnvelopeCommand:
    def test_sandwich_holds(self, cli):
        rc, out, _ = cli("envelope", "--gamma", "0.5", "--A", "1", "--p", "0.5",
                         "--u0", "1", "--T", "10", "--n", "512")
        assert rc == 0
        rep = json.loads(out)
        assert rep["sandwich_ok"] is True
        assert rep["params"]["a"] == pytest.approx(PI_OVER_4, rel=1e-10)
        assert rep["min_sub_margin_rel"] >= -1e-6
        assert rep["min_super_margin_rel"] >= -1e-6

    def test_wrong_regime_is_usage_error(self, cli):
        rc, _, _ = cli("envelope", "--gamma", "0.5", "--A", "1", "--p", "2",
                       "--u0", "1")
        assert rc == 2


class TestVerifyCommand:
    def test_help_names_the_modes_that_read_each_flag(self, cli, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--help"])
        assert exc.value.code == 0
        lines = {ln.split()[0]: ln for ln in capsys.readouterr().out.splitlines()
                 if ln.strip().startswith("--")}
        for flag in ("--seed", "--trials"):
            assert lines[flag].endswith("read by comparison, stability")
        for flag in ("--lam", "--gamma", "--T"):
            assert lines[flag].endswith("read by resolvent")
        for flag in ("--n", "--out"):
            assert lines[flag].endswith("read by comparison, resolvent, stability")

    def test_resolvent_passes(self, cli):
        rc, out, _ = cli("verify", "resolvent", "--n", "1024")
        assert rc == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        rec = rep["records"][0]
        assert rec["max_residual"] <= 1e-3
        assert rec["min_r"] > 0.0
        assert rec["ml_identity_dev"] <= 1e-3

    def test_resolvent_default_resolution(self, cli):
        rc, out, _ = cli("verify", "resolvent")
        assert rc == 0
        assert json.loads(out)["config"]["n"] == 4096

    def test_coarse_resolvent_fails_with_exit_1(self, cli):
        rc, out, _ = cli("verify", "resolvent", "--n", "32")
        assert rc == 1
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize("n", ["-1", "0", "1", "9"])
    def test_resolvent_below_ten_nodes_is_usage_error(self, cli, n):
        rc, out, err = cli("verify", "resolvent", "--n", n)
        assert rc == 2
        assert out == ""
        assert "n >= 10" in err

    @pytest.mark.parametrize("mode", ["comparison", "stability"])
    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_corpus_without_nodes_is_usage_error(self, cli, mode, n, monkeypatch):
        # refused before the first trial runs, not reported as a
        # numerical failure of trial 0
        def no_trial(*args, **kwargs):
            raise AssertionError("a corpus trial ran")

        monkeypatch.setattr(fracode.cli, "check_comparison", no_trial)
        monkeypatch.setattr(fracode.cli, "stability_experiment", no_trial)
        rc, out, err = cli("verify", mode, "--trials", "2", "--n", n)
        assert rc == 2
        assert out == ""
        assert "n >= 1" in err

    def test_comparison_corpus(self, cli):
        rc, out, _ = cli("verify", "comparison", "--trials", "6", "--n", "64")
        assert rc == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["violations"] == 0
        assert rep["min_margin"] > 0.0
        assert len(rep["records"]) == 6
        assert rep["config"]["seed"] == CORPUS_SEED

    def test_stability_corpus(self, cli):
        rc, out, _ = cli("verify", "stability", "--trials", "6", "--n", "64")
        assert rc == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["min_y"] > 0.0
        assert rep["all_envelopes_ok"] is True
        for rec in rep["records"]:
            assert rec["min_y"] > 0.0
            assert math.isfinite(rec["sup_ratio"])

    def test_env_seed_fallback(self, cli, monkeypatch):
        monkeypatch.setenv("FRACODE_SEED", "99")
        rc, out, _ = cli("verify", "comparison", "--trials", "2", "--n", "32")
        assert json.loads(out)["config"]["seed"] == 99

    def test_flag_seed_beats_env(self, cli, monkeypatch):
        monkeypatch.setenv("FRACODE_SEED", "99")
        rc, out, _ = cli("verify", "comparison", "--trials", "2", "--n", "32",
                         "--seed", "7")
        assert json.loads(out)["config"]["seed"] == 7

    def test_bad_env_seed_is_usage_error(self, cli, monkeypatch):
        monkeypatch.setenv("FRACODE_SEED", "many")
        rc, _, err = cli("verify", "comparison", "--trials", "2", "--n", "32")
        assert rc == 2
        assert "FRACODE_SEED" in err

    @pytest.mark.parametrize("mode,trials", [("comparison", "0"), ("stability", "-3")])
    def test_empty_corpus_is_usage_error(self, cli, mode, trials):
        rc, out, err = cli("verify", mode, "--trials", trials, "--n", "32")
        assert rc == 2
        assert out == ""
        assert f"corpus needs trials >= 1, got {trials}" in err

    def test_unknown_mode(self, cli):
        rc, _, _ = cli("verify", "chaos")
        assert rc == 2

    def test_missing_mode(self, cli):
        rc, _, _ = cli("verify")
        assert rc == 2

    def test_report_file_matches_stdout(self, cli, tmp_path):
        rc, out, _ = cli("verify", "resolvent", "--n", "256", "--out", "r.json")
        assert (tmp_path / "r.json").read_text() == out

    def test_corpus_modes_agree_with_run_corpus(self, cli):
        lib = run_corpus(seed=CORPUS_SEED, trials=6, n=64)
        trial_fields = {f.name for f in dataclasses.fields(TrialRecord)}
        problem_fields = {"index", "gamma", "rhs", "u10", "u20"}
        expected = {
            "comparison": problem_fields | {"min_margin", "violations"},
            "stability": problem_fields | {"min_y", "ml_envelope_ok"},
        }
        reports = {}
        for mode, shared in expected.items():
            rc, out, _ = cli("verify", mode, "--trials", "6", "--n", "64")
            assert rc == 0
            reports[mode] = rep = json.loads(out)
            assert len(rep["records"]) == len(lib.records) == 6
            for rec, trial in zip(rep["records"], lib.records):
                assert set(rec) & trial_fields == shared
                for key in shared:
                    assert rec[key] == getattr(trial, key), (mode, trial.index, key)
        assert reports["comparison"]["min_margin"] == lib.comparison.min_margin
        assert reports["comparison"]["violations"] == lib.comparison.violations
        assert reports["stability"]["min_y"] == lib.min_y
        assert reports["stability"]["all_envelopes_ok"] is lib.all_envelopes_ok

    @pytest.mark.parametrize(
        "mode,args,keys",
        [
            ("comparison", ["--trials", "4", "--n", "64"], ["seed", "trials", "n", "out"]),
            ("stability", ["--trials", "2", "--n", "32"], ["seed", "trials", "n", "out"]),
            ("resolvent", ["--n", "256", "--lam", "2"], ["lam", "gamma", "T", "n", "out"]),
        ],
        ids=["comparison", "stability", "resolvent"],
    )
    def test_report_holds_its_mode_and_replays_as_config(self, cli, tmp_path, mode, args, keys):
        rc, out, _ = cli("verify", mode, *args)
        assert list(json.loads(out)["config"]) == ["subcommand", "mode", *keys]
        (tmp_path / "report.json").write_text(out)
        rc2, out2, _ = cli("--config", "report.json")
        assert rc == rc2 == 0
        assert out2 == out

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "mode,key",
        [
            ("comparison", "T"),
            ("comparison", "gamma"),
            ("comparison", "lam"),
            ("stability", "T"),
            ("stability", "gamma"),
            ("stability", "lam"),
            ("resolvent", "seed"),
            ("resolvent", "trials"),
        ],
    )
    def test_setting_of_another_mode_is_usage_error(self, cli, tmp_path, via, mode, key):
        if via == "flag":
            rc, out, err = cli("verify", mode, "--n", "16", f"--{key}", "1")
        else:
            cfg = {"subcommand": "verify", "mode": mode, "n": 16, key: 1}
            (tmp_path / "c.json").write_text(json.dumps(cfg))
            rc, out, err = cli("--config", "c.json")
        assert rc == 2
        assert out == ""
        assert (f"--{key} " if via == "flag" else f'"{key}"') in err
        assert f"verify {mode}" in err

    def test_resolvent_reads_no_seed(self, cli, monkeypatch):
        monkeypatch.setenv("FRACODE_SEED", "many")
        rc, out, _ = cli("verify", "resolvent", "--n", "1024")
        assert rc == 0
        assert "seed" not in json.loads(out)["config"]

    @pytest.mark.parametrize(
        "mode,check", [("comparison", "check_comparison"), ("stability", "stability_experiment")]
    )
    def test_failing_trial_exits_3_and_names_it(self, cli, monkeypatch, mode, check):
        # the check is looked up on the cli module at run time, so a
        # rebound attribute (the benchmark tracer's wrappers) is what runs
        original = getattr(fracode.cli, check)
        calls = []

        def flaky(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise ValueError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(fracode.cli, check, flaky)
        rc, out, err = cli("verify", mode, "--trials", "4", "--n", "32")
        assert rc == 3
        assert out == ""
        assert "corpus trial 2 failed: injected" in err
        assert len(calls) == 3


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, cli):
        rc, _, err = cli()
        assert rc == 2

    def test_unknown_subcommand(self, cli):
        rc, _, _ = cli("integrate")
        assert rc == 2

    def test_console_script_installed(self, tmp_path):
        # Write the wrapper an installer makes from the declared entry
        # point, so the test needs no installed package.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["fracode"]
        module, attr = entry.split(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        script = bindir / "fracode"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        # The subprocess imports the package under test, not any copy
        # installed elsewhere.
        srcdir = str(Path(fracode.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [srcdir, env.get("PYTHONPATH", "")] if p)
        proc = subprocess.run(
            ["fracode", "ml", "--alpha", "1", "--beta", "1", "--z", "1"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2.718281828459045\n"

    def test_python_dash_m(self, tmp_path):
        srcdir = str(Path(fracode.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [srcdir, env.get("PYTHONPATH", "")] if p)
        proc = subprocess.run(
            [sys.executable, "-m", "fracode", "ml", "--alpha", "1", "--beta", "1", "--z", "1"],
            capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2.718281828459045\n"
