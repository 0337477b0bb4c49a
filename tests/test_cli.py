import os

import pytest

from mildheat import experiments
from mildheat.cli import main
from mildheat.initial_data import catalog

DILATION_CFG = "kind = dilation-bound\ndatum = log_sine\n"


class TestListData:
    def test_prints_catalog(self, capsys):
        assert main(["list-data"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == catalog()


class TestSeedless:
    def test_flag_is_rejected(self, capsys):
        # no such option: argparse exits with its usage-error code 2
        with pytest.raises(SystemExit) as exc:
            main(["--seedless", "list-data"])
        assert exc.value.code == 2
        assert "--seedless" in capsys.readouterr().err


class TestOracle:
    def test_profile_midpoint(self, capsys):
        assert main(["oracle", "profile_F", "0.0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - 0.5) < 1e-10

    def test_heat_kernel_mass(self, capsys):
        assert main(["oracle", "heat_kernel_mass", "1.0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - 1.0) < 1e-10


class TestRun:
    def test_single_config(self, tmp_path, capsys):
        cfg = tmp_path / "dilation.cfg"
        cfg.write_text(DILATION_CFG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
        assert "pass: dilation-bound log_sine" in capsys.readouterr().out
        assert (out / "dilation-bound_log_sine.csv").exists()

    def test_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert "config-error" in capsys.readouterr().out

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = dilation-bound\n")  # datum missing
        assert main(["run", str(cfg)]) == 2
        assert "config-error" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("sliding-average", "R_ladder"),
            ("rescaled-check", "h_ladder"),
            ("log-kernel-bound", "x_values"),
            ("dilation-bound", "alphas"),
            ("dilation-bound", "s_values"),
            ("profile-error", "t_ladder"),
            ("accumulation", "lambda_ladder"),
        ],
    )
    def test_empty_list_is_a_config_error(self, tmp_path, capsys, kind, field):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(f"kind = {kind}\ndatum = constant:0.5\n{field} =\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        assert f"{field} must not be empty" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, datum, line",
        [
            ("profile-error", "sub_log:0.5", "L = nan"),
            ("profile-error", "sub_log:0.5", "t_ladder = nan"),
            ("sliding-average", "log_sine", "R_ladder = 10, inf"),
            # the largest time e^(tau + h) overflows a float
            ("rescaled-check", "constant:0.5", "tau = 800"),
        ],
    )
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys, kind, datum, line):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(f"kind = {kind}\ndatum = {datum}\n{line}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, datum", [("profile-error", "constant:nan"), ("dilation-bound", "gaussian:nan")]
    )
    def test_non_finite_datum_parameter_is_a_config_error(self, tmp_path, capsys, kind, datum):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(f"kind = {kind}\ndatum = {datum}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        assert f"config-error: bad datum id '{datum}'" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, line",
        [
            ("exact-step", "lambda_ladder = 3"),
            ("profile-error", "x_values = 1"),
            ("log-kernel-bound", "L = 4"),
            ("envelope-bound", "R_ladder = 10"),
            ("dilation-bound", "t_ladder = 5"),
            ("rescaled-check", "n = 51"),
            ("curvature-gap", "fd_t_final = 10"),
            ("flow-profile-error", "abs_tol = 1e-9"),
            ("accumulation", "tail_radius = 14"),
            ("sliding-average", "out_dir = elsewhere"),
        ],
    )
    def test_key_the_kind_does_not_read(self, tmp_path, capsys, kind, line):
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(f"kind = {kind}\ndatum = step:0,1\n{line}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        assert "line 3: unknown key" in capsys.readouterr().out
        assert not out.exists()

    def test_solver_failure_prints_its_reason(self, tmp_path, capsys):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("kind = profile-error\ndatum = sub_log:0.5\nabs_tol = 1e-300\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().out.startswith("solver-failure: ")
        assert not out.exists()

    @staticmethod
    def _params_after_tol(tmp_path, monkeypatch, text):
        seen = []
        real_run = experiments.run
        monkeypatch.setattr(experiments, "run", lambda cfg: seen.append(cfg) or real_run(cfg))
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out), "--tol", "1e-8"]) == 0
        return seen[0].params

    def test_tol_override(self, tmp_path, monkeypatch):
        text = "kind = sliding-average\ndatum = constant:1\nR_ladder = 1,10\n"
        params = self._params_after_tol(tmp_path, monkeypatch, text)
        assert params == {"R_ladder": (1.0, 10.0), "abs_tol": 1e-8}

    def test_tol_is_ignored_where_the_kind_does_not_read_it(self, tmp_path, monkeypatch):
        assert self._params_after_tol(tmp_path, monkeypatch, DILATION_CFG) == {}


class TestRunAll:
    def test_directory_of_configs(self, tmp_path):
        (tmp_path / "a.cfg").write_text(DILATION_CFG)
        (tmp_path / "b.cfg").write_text(
            "kind = sliding-average\ndatum = constant:0.5\nR_ladder = 1,10\n"
        )
        out = tmp_path / "out"
        assert main(["run-all", str(tmp_path), "--out-dir", str(out)]) == 0
        assert (out / "a" / "dilation-bound_log_sine.csv").exists()
        assert (out / "b" / "sliding-average_constant_0p5.csv").exists()

    def test_worst_exit_code_wins(self, tmp_path, capsys):
        (tmp_path / "a.cfg").write_text(DILATION_CFG)
        (tmp_path / "b.cfg").write_text("kind = dilation-bound\n")
        assert main(["run-all", str(tmp_path), "--out-dir", str(tmp_path / "o")]) == 2

    def test_empty_directory(self, tmp_path, capsys):
        os.makedirs(tmp_path / "empty")
        assert main(["run-all", str(tmp_path / "empty")]) == 2
        assert "no *.cfg" in capsys.readouterr().out

    def test_missing_directory(self, capsys):
        assert main(["run-all", "/no/such/dir"]) == 2
        assert "config-error" in capsys.readouterr().out
