import json
import math
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from mildheat import experiments
from mildheat.cli import main
from mildheat.curvature_flow import SolverFailure
from mildheat.experiments import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    run,
)
from mildheat.kernels import UncertifiedQuadrature

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

MINIMAL = "kind = dilation-bound\ndatum = log_sine\n"


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(MINIMAL)
        assert cfg.kind == "dilation-bound"
        assert cfg.datum_id == "log_sine"
        assert cfg.params == {}

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# suite entry\nkind = exact-step\n\ndatum = step:0,1  # two levels\nL = 5\n"
        )
        assert cfg.datum_id == "step:0,1"
        assert cfg.params == {"L": 5.0}

    def test_list_field(self):
        cfg = parse_config(MINIMAL + "alphas = 1, 10, 100\n")
        assert cfg.params["alphas"] == (1.0, 10.0, 100.0)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 3: unknown key"):
            parse_config(MINIMAL + "wavelength = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(MINIMAL + "datum = log_sine\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("kind = profile-error\ndatum = log_sine\nL = wide\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("kind = exact-step\n")
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("datum = log_sine\n")

    def test_not_key_value(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("kind: exact-step\n")

    def test_typed_values(self):
        cfg = parse_config(
            "kind = profile-error\ndatum = log_sine\n"
            "t_ladder = 1,10\nabs_tol = 1e-9\nn = 51\n"
        )
        assert cfg.params["t_ladder"] == (1.0, 10.0)
        assert cfg.params["abs_tol"] == 1e-9
        assert cfg.params["n"] == 51 and isinstance(cfg.params["n"], int)

    @pytest.mark.parametrize("kind", sorted(experiments._HANDLERS))
    def test_every_key_parses_as_its_default(self, kind):
        # each key the kind reads is parsed with the type of its default
        reads = experiments._reads(kind)
        lines = [
            f"{k} = {', '.join(map(repr, v)) if isinstance(v, tuple) else repr(v)}"
            for k, v in reads.items()
        ]
        cfg = parse_config(f"kind = {kind}\ndatum = log_sine\n" + "\n".join(lines))
        assert cfg.params == reads
        assert [type(v) for v in cfg.params.values()] == [type(v) for v in reads.values()]


def _config(kind, datum_id, out_dir, **params):
    return ExperimentConfig(kind, datum_id, params, str(out_dir))


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            ExperimentConfig(kind="heat-death", datum_id="log_sine")

    def test_bad_window(self):
        with pytest.raises(ConfigError, match="L must be positive"):
            ExperimentConfig("profile-error", "log_sine", {"L": -1.0})

    def test_bad_grid(self):
        with pytest.raises(ConfigError, match="n must be"):
            ExperimentConfig("profile-error", "log_sine", {"n": 2})

    def test_non_increasing_ladder(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ExperimentConfig("profile-error", "log_sine", {"t_ladder": (10.0, 1.0)})

    @pytest.mark.parametrize(
        "key, value",
        [("L", math.nan), ("t_ladder", (1.0, math.inf)), ("abs_tol", -math.inf)],
    )
    def test_non_finite_value(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            ExperimentConfig("profile-error", "log_sine", {key: value})

    @pytest.mark.parametrize(
        "kind, key, value, message",
        [
            ("rescaled-check", "h_ladder", (1e-2, -1e-3), "h_ladder must be positive"),
            ("dilation-bound", "alphas", (0.5, 0.0), "alphas must be positive"),
            ("dilation-bound", "s_values", (-1.0, 0.0, 1.0), "s_values must not hold 0"),
        ],
    )
    def test_every_entry_is_checked_before_the_run(self, kind, key, value, message):
        # refused before the first entry is computed, not at the bad one
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(kind, "log_sine", {key: value})

    def test_key_the_kind_does_not_read(self):
        with pytest.raises(ConfigError, match="does not read key 't_ladder'"):
            ExperimentConfig("dilation-bound", "log_sine", {"t_ladder": (5.0,)})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("t_ladder", 5.0, "t_ladder must be a tuple of real numbers, got 5.0"),
            ("n", 401.0, "n must be an int, got 401.0"),
            ("L", (4.0,), r"L must be a real number, got \(4.0,\)"),
            ("L", True, "L must be a real number, got True"),
            ("n", True, "n must be an int, got True"),
            ("t_ladder", (1.0, "10"), "t_ladder must be a tuple of real numbers"),
        ],
        ids=["float-ladder", "float-n", "tuple-L", "bool-L", "bool-n", "str-in-ladder"],
    )
    def test_mistyped_value_is_a_config_error(self, tmp_path, key, value, message):
        # a programmatic config is checked against its defaults' types, so
        # run never sees a value its handler would raise TypeError on
        with pytest.raises(ConfigError, match=message):
            _config("profile-error", "log_sine", tmp_path, **{key: value})

    def test_integral_and_real_values_of_other_types_pass(self, tmp_path):
        cfg = _config("profile-error", "step:0,1", tmp_path,
                      t_ladder=(1, 10), L=np.float64(4.0), n=np.int64(21))
        assert run(cfg).exit_code == 0

    def test_config_error_leaves_no_output_directory(self, tmp_path):
        # exact-step on a datum that is not a step fails inside run
        out = tmp_path / "fresh" / "out"
        result = run(_config("exact-step", "log_sine", out))
        assert result.exit_code == 2
        assert result.reason.startswith("config-error")
        assert not (tmp_path / "fresh").exists()

    def test_default_time_ladders(self):
        assert experiments._reads("exact-step")["t_ladder"] == (0.1, 1.0, 10.0, 1e6)


class TestRun:
    def test_exact_step_passes(self, tmp_path):
        cfg = _config("exact-step", "step:0,1", tmp_path, t_ladder=(1.0, 10.0), n=21)
        result = run(cfg)
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "exact-step_step_0_1_summary.json").read_text())
        assert summary["pass"] is True
        assert summary["scalars"]["max_abs_diff"] <= 2e-10

    def test_exact_step_needs_step_datum(self, tmp_path):
        assert run(_config("exact-step", "log_sine", tmp_path)).exit_code == 2
        assert not os.listdir(tmp_path)

    def test_unknown_datum(self, tmp_path):
        result = run(_config("dilation-bound", "ramp:1", tmp_path))
        assert result.exit_code == 2
        assert result.reason.startswith("config-error")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("alphas, s_values", [((1e10,), (1e300,)), ((1e-320,), (1.0,))])
    def test_dilation_bound_that_overflows_is_a_config_error(self, tmp_path, alphas, s_values):
        cfg = _config("dilation-bound", "log_sine", tmp_path, alphas=alphas, s_values=s_values)
        result = run(cfg)
        assert result.exit_code == 2
        assert result.reason.startswith("config-error")
        assert not os.listdir(tmp_path)

    def test_log_kernel_bound_far_right_passes(self, tmp_path):
        # G(1e18) is about log(1e18) = 41.4, not 0: the bound holds there
        cfg = _config("log-kernel-bound", "sub_log:0.5", tmp_path,
                      x_values=(1e16, 1e18), t_ladder=(1.0,))
        result = run(cfg)
        assert result.exit_code == 0
        assert len(os.listdir(tmp_path)) == 2

    def test_dilation_bound_passes(self, tmp_path):
        result = run(_config("dilation-bound", "log_sine", tmp_path))
        assert result.exit_code == 0

    def test_sliding_average_constant_passes(self, tmp_path):
        result = run(_config("sliding-average", "constant:0.5", tmp_path))
        assert result.exit_code == 0
        assert result.summary["scalars"]["average_last"] == pytest.approx(0.5)

    def test_profile_error_of_a_step_is_exact(self, tmp_path):
        # a step evolves exactly onto its profile, so the derivative-free
        # verdict needs every sup error within 2 abs_tol, at every t
        cfg = _config("profile-error", "step:0,1", tmp_path, t_ladder=(1.0, 1e4), n=21)
        result = run(cfg)
        assert result.exit_code == 0
        scalars = result.summary["scalars"]
        assert max(scalars["sup_error_first"], scalars["sup_error_last"]) <= 2e-10

    def test_curvature_gap_of_a_constant_is_zero(self, tmp_path):
        # both flows keep a constant, so every gap is rounding and the run
        # passes on the gaps-below-1e-8 branch, not on their ratio
        cfg = _config("curvature-gap", "constant:0.5", tmp_path, t_ladder=(1.0, 4.0),
                      fd_half_width=40.0, fd_dx=0.2)
        result = run(cfg)
        assert result.exit_code == 0
        assert result.summary["scalars"]["gap_max"] <= 1e-8

    def test_assertion_failure_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            experiments.curvature_flow,
            "flow_profile_error",
            lambda *a, **k: [(1.0, 0.1), (4.0, 0.5)],
        )
        result = run(_config("flow-profile-error", "smooth_log_sine:0.5", tmp_path))
        assert result.exit_code == 1
        assert result.reason.startswith("assertion-failure")

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise SolverFailure("left the range")

        monkeypatch.setattr(experiments.curvature_flow, "curvature_heat_gap", boom)
        result = run(_config("curvature-gap", "smooth_log_sine:1", tmp_path))
        assert result.exit_code == 3
        assert result.reason.startswith("solver-failure")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize(
        "kind, datum",
        [("exact-step", "step:0,1"), ("accumulation", "log_sine")],
        ids=["exact-step", "accumulation"],
    )
    def test_uncertified_quadrature_exits_3(self, tmp_path, monkeypatch, kind, datum):
        def boom(*a, **k):
            raise UncertifiedQuadrature("reached the node cap")

        monkeypatch.setattr(experiments.semigroup, "scaled_evolve_many", boom)
        result = run(_config(kind, datum, tmp_path))
        assert result.exit_code == 3
        assert result.reason.startswith("solver-failure")
        assert not os.listdir(tmp_path)

    def test_outputs_are_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = _config(
                "accumulation", "log_sine", tmp_path / name, t_ladder=(1.0, 100.0), n=41
            )
            assert run(cfg).exit_code == 0
            files = sorted(os.listdir(tmp_path / name))
            outs.append([(f, (tmp_path / name / f).read_bytes()) for f in files])
        assert outs[0] == outs[1]

    def test_every_kind_writes_exactly_its_files(self, tmp_path):
        # the default configs cover every kind; each run writes the files
        # it lists, and no other
        kinds = set()
        for name in sorted(os.listdir(CONFIG_DIR)):
            with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
                cfg = replace(parse_config(fh.read()), out_dir=str(tmp_path / name))
            result = run(cfg)
            assert result.exit_code == 0, name
            assert sorted(os.listdir(cfg.out_dir)) == sorted(
                os.path.basename(p) for p in result.files
            )
            kinds.add(cfg.kind)
        assert kinds == set(experiments._HANDLERS)

    def test_csv_schemas(self, tmp_path, capsys):
        # the README's fixed CSV schemas, written out independently of the
        # handlers that produce them
        expected = {
            "01_exact_step/exact-step_step_0_1.csv": "t,x,numeric,closed_form,abs_diff",
            "02_profile_error/profile-error_sub_log_0p5.csv": "t,L,sup_error,coeff_left,coeff_right",
            "03_log_kernel_bound/log-kernel-bound_log_sine.csv": "x,t,lhs,rhs,margin",
            "04_envelope_bound/envelope-bound_log_sine.csv": "t,a,b,measured_error,bound,margin",
            "05_dilation_bound/dilation-bound_log_sine.csv": "alpha,s,lhs,rhs",
            "06_rescaled_check/rescaled-check_constant_0p5.csv": "h,residual",
            "07_curvature_gap/curvature-gap_smooth_log_sine_1.csv": "t,gap",
            "08_flow_profile_error/flow-profile-error_smooth_log_sine_0p5.csv": "t,sup_error",
            "09_accumulation/accumulation_log_sine.csv": "lambda,u_left,u_right",
            "09_accumulation/accumulation_log_sine_fit.csv": "t,alpha_fit,beta_fit",
            "10_sliding_average/sliding-average_log_sine.csv": "R,average,delta_prev",
        }
        assert main(["run-all", CONFIG_DIR, "--out-dir", str(tmp_path)]) == 0
        csvs = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv"))
        assert csvs == sorted(expected)
        for name, header in expected.items():
            assert (tmp_path / name).read_text().splitlines()[0] == header, name

    def test_no_stray_tmp_files(self, tmp_path):
        run(_config("dilation-bound", "log_sine", tmp_path))
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


class TestAtomicWrite:
    def test_no_temp_left_and_mode_of_plain_open(self, tmp_path):
        target = tmp_path / "out.csv"
        experiments._atomic_write(str(target), "a,b\n")
        experiments._atomic_write(str(target), "c,d\n")
        plain = tmp_path / "plain.csv"
        with open(plain, "w", encoding="utf-8") as fh:
            fh.write("c,d\n")
        assert target.read_text() == "c,d\n"
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "plain.csv"]

    def test_failed_write_removes_temp_and_keeps_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(TypeError):
            experiments._atomic_write(str(target), 42)
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_process_umask_is_left_alone(self, tmp_path, monkeypatch):
        # os.umask sets the mask of the whole process, so a file another
        # thread creates meanwhile would get the wrong mode
        plain = tmp_path / "plain.csv"
        with open(plain, "w", encoding="utf-8") as fh:
            fh.write("a\n")
        mode = stat.S_IMODE(plain.stat().st_mode)

        def no_umask(mask):
            raise AssertionError("os.umask was called")

        monkeypatch.setattr(os, "umask", no_umask)
        out = tmp_path / "out"
        result = run(_config("dilation-bound", "log_sine", out))
        assert result.exit_code == 0
        assert sorted(os.listdir(out)) == sorted(os.path.basename(f) for f in result.files)
        for name in result.files:
            assert stat.S_IMODE(os.stat(name).st_mode) == mode, name
