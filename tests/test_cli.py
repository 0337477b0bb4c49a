import math
import os
import subprocess
import sys

import pytest

import mildheat
from mildheat import experiments, oracles
from mildheat.cli import main
from mildheat.initial_data import catalog

DILATION_CFG = "kind = dilation-bound\ndatum = log_sine\n"
# a default config that writes three files: a table, a chart and a manifest
SLIDING_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "10_sliding_average.cfg")


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

    def test_kernel_at_zero(self, capsys):
        assert main(["oracle", "kernel_G", "0.0"]) == 0
        assert math.isfinite(float(capsys.readouterr().out.strip()))

    @pytest.mark.parametrize("z", [14.0, 1e6, 1e300])
    def test_profile_far_right_is_one(self, capsys, z):
        # the trapezoid from -14 would outgrow the Gaussian; 1 - F(14) is
        # erfc(7) / 2 < 2e-23
        assert oracles.profile_F_trapezoid(z) == 1.0
        assert main(["oracle", "profile_F", repr(z)]) == 0
        assert capsys.readouterr().out == "1.000000000000000e+00\n"

    def test_kernel_far_right(self, capsys):
        # G(z) = E log(z + X) with X ~ N(0, 2) = log z - 1/z^2 - 3/z^4 - ...
        # for large z; past 1e4 the fixed panels outgrow the kernel
        z = 1e4
        assert abs(oracles.kernel_G_trapezoid(z) - (math.log(z) - 1.0 / z**2)) <= 1e-12
        assert main(["oracle", "kernel_G", "1e6"]) == 2
        assert capsys.readouterr().out.startswith("config-error: ")

    @pytest.mark.parametrize(
        "function, arg",
        [("kernel_G", "nan"), ("kernel_G", "inf"), ("profile_F", "nan"),
         ("heat_kernel_mass", "0"), ("heat_kernel_mass", "nan")],
    )
    def test_unusable_value_is_a_config_error(self, capsys, function, arg):
        assert main(["oracle", function, arg]) == 2
        assert capsys.readouterr().out.startswith("config-error: ")


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
        "kind, datum, line, named",
        [
            ("rescaled-check", "gaussian:1", "h_ladder = 1e-200", "h = 1e-200 over the window"),
            # 8 / 5e-324 is infinite: no int node count to round to
            ("rescaled-check", "gaussian:1", "h_ladder = 5e-324", "h = 5e-324 over the window"),
            ("curvature-gap", "smooth_log_sine:1", "fd_dx = 1e-300",
             "half_width 400 and dx 1e-300"),
            ("flow-profile-error", "sub_log:0.5", "fd_dx = 5e-324", "half_width 120 and dx"),
            ("profile-error", "sub_log:0.5", "n = 100000000000000000000", "n: 1e+20"),
            ("exact-step", "step:0,1", "n = 100000000000000000000", "n: 1e+20"),
        ],
        ids=["rescaled-check-h", "rescaled-check-h-subnormal", "curvature-gap-dx",
             "flow-profile-error-dx-subnormal", "profile-error-n", "exact-step-n"],
    )
    def test_grid_too_large_for_numpy_names_its_key(self, tmp_path, capsys, kind, datum, line,
                                                    named):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"kind = {kind}\ndatum = {datum}\n{line}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith(f"config-error: {named}")
        assert "grid nodes, more than one numpy array can hold" in printed
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, datum, line",
        [
            # 1e17 and 2e13 floats: numpy can index them but not allocate them
            ("profile-error", "sub_log:0.5", "n = 100000000000000000"),
            ("curvature-gap", "smooth_log_sine:1", "fd_half_width = 1e12"),
        ],
        ids=["profile-error-n", "curvature-gap-half-width"],
    )
    def test_allocation_failure_is_a_config_error(self, tmp_path, capsys, kind, datum, line):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"kind = {kind}\ndatum = {datum}\n{line}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith("config-error: ") and printed.count("\n") == 1
        assert "allocate" in printed
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

    @pytest.mark.parametrize("kind", ["curvature-gap", "flow-profile-error"])
    def test_cfl_is_not_a_key(self, tmp_path, capsys, kind):
        # the FD step is fixed at dt <= 0.4 dx^2
        cfg = tmp_path / "cfl.cfg"
        cfg.write_text(f"kind = {kind}\ndatum = smooth_log_sine:0.5\nfd_cfl = 0.4\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        assert "line 3: unknown key 'fd_cfl'" in capsys.readouterr().out
        assert not out.exists()

    def test_solver_failure_prints_its_reason(self, tmp_path, capsys):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("kind = profile-error\ndatum = sub_log:0.5\nabs_tol = 1e-300\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().out.startswith("solver-failure: ")
        assert not out.exists()

    def test_out_dir_that_is_a_file(self, tmp_path, capsys):
        cfg = tmp_path / "dilation.cfg"
        cfg.write_text(DILATION_CFG)
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith(f"config-error: cannot write {out}{os.sep}")
        assert len(printed.splitlines()) == 1
        assert out.read_text() == "not a directory\n"

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the second of the run's two files cannot be written: the first,
        # already in place, is deleted again
        real_write = experiments._atomic_write
        calls = []

        def fail_second(path, content):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            real_write(path, content)

        monkeypatch.setattr(experiments, "_atomic_write", fail_second)
        cfg = tmp_path / "dilation.cfg"
        cfg.write_text(DILATION_CFG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        assert len(calls) == 2
        assert capsys.readouterr().out == (
            f"config-error: cannot write {calls[1]}: [Errno 28] No space left on device\n")
        assert not out.exists()

    def test_failed_write_removes_only_the_directories_it_made(self, tmp_path, monkeypatch):
        # out/a/b is made by the run and removed again, deepest first; out
        # was there before and stays
        def fail(path, content):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(experiments, "_atomic_write", fail)
        cfg = tmp_path / "dilation.cfg"
        cfg.write_text(DILATION_CFG)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", str(cfg), "--out-dir", str(out / "a" / "b")]) == 2
        assert os.listdir(out) == []

    @staticmethod
    def _second_write_fails(monkeypatch, meddle):
        # the run's second file fails to write after meddle(first path) has
        # run, as another process might meddle between the two writes
        real_write = experiments._atomic_write
        calls = []

        def fail_second(path, content):
            calls.append(path)
            if len(calls) == 2:
                meddle(calls[0])
                raise OSError(28, "No space left on device")
            real_write(path, content)

        monkeypatch.setattr(experiments, "_atomic_write", fail_second)
        return calls

    def test_rollback_keeps_a_directory_another_run_wrote_into(
            self, tmp_path, capsys, monkeypatch):
        # another run drops other_run.csv into new/sub between this run's
        # writes: the rollback removes this run's file, keeps the directories
        # that are not empty, and still reports one line with exit 2
        sub = tmp_path / "new" / "sub"
        other = sub / "other_run.csv"
        calls = self._second_write_fails(monkeypatch, lambda first: other.write_text("x\n"))
        assert main(["run", SLIDING_CFG, "--out-dir", str(sub)]) == 2
        assert capsys.readouterr().out == (
            f"config-error: cannot write {calls[1]}: [Errno 28] No space left on device\n")
        assert os.listdir(sub) == ["other_run.csv"]
        assert other.read_text() == "x\n"

    def test_rollback_of_a_file_another_process_removed(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        calls = self._second_write_fails(monkeypatch, os.unlink)
        assert main(["run", SLIDING_CFG, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().out == (
            f"config-error: cannot write {calls[1]}: [Errno 28] No space left on device\n")
        assert not out.exists()

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, capsys, monkeypatch):
        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", SLIDING_CFG, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().out.startswith(f"config-error: cannot write {out}{os.sep}")
        assert os.listdir(out) == []

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xff\n" + DILATION_CFG.encode())
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith(f"config-error: {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert len(printed.splitlines()) == 1
        assert not out.exists()

    def test_abs_tol_is_set_in_the_config(self, tmp_path, monkeypatch):
        # the config is the one place a run's values come from: abs_tol
        # reaches experiments.run as the config file gives it
        seen = []
        real_run = experiments.run
        monkeypatch.setattr(experiments, "run", lambda cfg: seen.append(cfg) or real_run(cfg))
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("kind = sliding-average\ndatum = constant:1\nR_ladder = 1,10\n"
                       "abs_tol = 1e-8\n")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        assert seen[0].params == {"R_ladder": (1.0, 10.0), "abs_tol": 1e-8}

    @pytest.mark.parametrize("verb, arg", [("run", "no.cfg"), ("run-all", "no_configs")])
    def test_tol_is_not_an_option(self, tmp_path, monkeypatch, capsys, verb, arg):
        # abs_tol is a config key; argparse exits with its usage-error code 2
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([verb, arg, "--tol", "1e-8"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_default_out_dir_is_the_working_directory(self, tmp_path, monkeypatch):
        (tmp_path / "dilation.cfg").write_text(DILATION_CFG)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "dilation.cfg"]) == 0
        assert sorted(os.listdir(tmp_path)) == [
            "dilation-bound_log_sine.csv", "dilation-bound_log_sine_summary.json", "dilation.cfg"
        ]


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

    def test_each_config_writes_its_own_directory_by_default(self, tmp_path, monkeypatch):
        # two configs of one kind and datum: without --out-dir each still
        # writes under its own stem, so neither overwrites the other
        configs = tmp_path / "twins"
        configs.mkdir()
        for name, ladder in (("a", "10, 100"), ("b", "1000, 10000")):
            (configs / f"{name}.cfg").write_text(
                f"kind = sliding-average\ndatum = log_sine\nR_ladder = {ladder}\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["run-all", str(configs)]) == 0
        assert sorted(os.listdir(work)) == ["a", "b"]
        assert len(os.listdir(work / "a")) == len(os.listdir(work / "b")) == 3
        csv = "sliding-average_log_sine.csv"
        assert (work / "a" / csv).read_text() != (work / "b" / csv).read_text()

    def test_worst_exit_code_wins(self, tmp_path, capsys):
        (tmp_path / "a.cfg").write_text(DILATION_CFG)
        (tmp_path / "b.cfg").write_text("kind = dilation-bound\n")
        assert main(["run-all", str(tmp_path), "--out-dir", str(tmp_path / "o")]) == 2

    def test_out_dir_that_is_a_file(self, tmp_path, capsys):
        # every config is run and reported, not only the first
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.cfg").write_text(DILATION_CFG)
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert main(["run-all", str(tmp_path), "--out-dir", str(out)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for name, line in zip("abc", lines):
            csv = out / name / "dilation-bound_log_sine.csv"
            assert line.startswith(f"config-error: cannot write {csv}: ")
        assert out.read_text() == "not a directory\n"

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        # the undecodable config is reported and the others still run
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.cfg").write_text(DILATION_CFG)
        (tmp_path / "b.cfg").write_bytes(b"# caf\xff\n" + DILATION_CFG.encode())
        out = tmp_path / "out"
        assert main(["run-all", str(tmp_path), "--out-dir", str(out)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == lines[2] == "pass: dilation-bound log_sine"
        assert lines[1].startswith(f"config-error: {tmp_path / 'b.cfg'}: ")
        assert len(lines) == 3
        assert sorted(os.listdir(out)) == ["a", "c"]

    def test_empty_directory(self, tmp_path, capsys):
        os.makedirs(tmp_path / "empty")
        assert main(["run-all", str(tmp_path / "empty")]) == 2
        assert "no *.cfg" in capsys.readouterr().out

    def test_missing_directory(self, capsys):
        assert main(["run-all", "/no/such/dir"]) == 2
        assert "config-error" in capsys.readouterr().out

    def test_default_configs_run_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: with scipy unimportable the
        # default configs still write their 27 files
        configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
        script = ("import sys; sys.modules['scipy'] = None\n"
                  "from mildheat import cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))")
        src = os.path.dirname(os.path.dirname(mildheat.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-c", script, "run-all", configs, "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert sum(len(files) for _, _, files in os.walk(tmp_path)) == 27
