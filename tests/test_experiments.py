import json
import os
import stat
from dataclasses import replace

import pytest

from mildheat import experiments
from mildheat.curvature_flow import SolverFailure
from mildheat.experiments import (
    CSV_HEADERS,
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
        assert cfg.L == 4.0

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# suite entry\nkind = exact-step\n\ndatum = step:0,1  # two levels\nL = 5\n"
        )
        assert cfg.datum_id == "step:0,1"
        assert cfg.L == 5.0

    def test_list_field(self):
        cfg = parse_config(MINIMAL + "t_ladder = 1, 10, 100\n")
        assert cfg.t_ladder == (1.0, 10.0, 100.0)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 3: unknown key"):
            parse_config(MINIMAL + "wavelength = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(MINIMAL + "datum = log_sine\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(MINIMAL + "L = wide\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("kind = exact-step\n")
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("datum = log_sine\n")

    def test_not_key_value(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("kind: exact-step\n")

    def test_typed_values(self):
        cfg = parse_config(MINIMAL + "t_ladder = 1,10\nabs_tol = 1e-9\nn = 51\n")
        assert cfg.t_ladder == (1.0, 10.0)
        assert cfg.abs_tol == 1e-9
        assert cfg.n == 51 and isinstance(cfg.n, int)


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            ExperimentConfig(kind="heat-death", datum_id="log_sine")

    def test_bad_window(self):
        with pytest.raises(ConfigError, match="L must be positive"):
            ExperimentConfig(kind="profile-error", datum_id="log_sine", L=-1.0)

    def test_bad_grid(self):
        with pytest.raises(ConfigError, match="n must be"):
            ExperimentConfig(kind="profile-error", datum_id="log_sine", n=2)

    def test_non_increasing_ladder(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ExperimentConfig(
                kind="profile-error", datum_id="log_sine", t_ladder=(10.0, 1.0)
            )

    def test_ladder_beyond_fd_horizon(self, tmp_path):
        # a t_ladder time past fd_t_final is an error, not a dropped row
        cfg = ExperimentConfig(
            kind="curvature-gap",
            datum_id="smooth_log_sine:1",
            t_ladder=(1.0, 3.0, 10.0, 30.0),
            fd_half_width=80.0,
            fd_dx=0.2,
            fd_t_final=10.0,
            out_dir=str(tmp_path),
        )
        with pytest.raises(ConfigError, match="30 exceed fd_t_final = 10"):
            cfg.fd_config()
        result = run(cfg)
        assert result.exit_code == 2
        assert result.reason.startswith("config-error")
        assert not os.listdir(tmp_path)

    def test_config_error_leaves_no_output_directory(self, tmp_path):
        out = tmp_path / "fresh" / "out"
        cfg = ExperimentConfig(
            kind="curvature-gap",
            datum_id="smooth_log_sine:1",
            t_ladder=(1.0, 30.0),
            fd_t_final=10.0,
            out_dir=str(out),
        )
        assert run(cfg).exit_code == 2
        assert not (tmp_path / "fresh").exists()

    def test_default_time_ladders(self):
        cfg = ExperimentConfig(kind="exact-step", datum_id="step:0,1")
        assert cfg.times() == (0.1, 1.0, 10.0, 1e6)


class TestRun:
    def test_exact_step_passes(self, tmp_path):
        cfg = ExperimentConfig(
            kind="exact-step",
            datum_id="step:0,1",
            t_ladder=(1.0, 10.0),
            n=21,
            out_dir=str(tmp_path),
        )
        result = run(cfg)
        assert result.exit_code == 0
        csv = tmp_path / "exact-step_step_0_1.csv"
        assert csv.read_text().splitlines()[0] == CSV_HEADERS["exact-step"]
        summary = json.loads((tmp_path / "exact-step_step_0_1_summary.json").read_text())
        assert summary["pass"] is True
        assert summary["scalars"]["max_abs_diff"] <= 2e-10

    def test_exact_step_needs_step_datum(self, tmp_path):
        cfg = ExperimentConfig(
            kind="exact-step", datum_id="log_sine", out_dir=str(tmp_path)
        )
        assert run(cfg).exit_code == 2
        assert not os.listdir(tmp_path)

    def test_unknown_datum(self, tmp_path):
        cfg = ExperimentConfig(
            kind="dilation-bound", datum_id="ramp:1", out_dir=str(tmp_path)
        )
        result = run(cfg)
        assert result.exit_code == 2
        assert result.reason.startswith("config-error")
        assert not os.listdir(tmp_path)

    def test_dilation_bound_passes(self, tmp_path):
        cfg = ExperimentConfig(
            kind="dilation-bound", datum_id="log_sine", out_dir=str(tmp_path)
        )
        result = run(cfg)
        assert result.exit_code == 0
        header = (tmp_path / "dilation-bound_log_sine.csv").read_text().splitlines()[0]
        assert header == CSV_HEADERS["dilation-bound"]

    def test_sliding_average_constant_passes(self, tmp_path):
        cfg = ExperimentConfig(
            kind="sliding-average", datum_id="constant:0.5", out_dir=str(tmp_path)
        )
        result = run(cfg)
        assert result.exit_code == 0
        assert result.summary["scalars"]["average_last"] == pytest.approx(0.5)

    def test_assertion_failure_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            experiments.curvature_flow,
            "flow_profile_error",
            lambda *a, **k: [(1.0, 0.1), (4.0, 0.5)],
        )
        cfg = ExperimentConfig(
            kind="flow-profile-error",
            datum_id="smooth_log_sine:0.5",
            out_dir=str(tmp_path),
        )
        result = run(cfg)
        assert result.exit_code == 1
        assert result.reason.startswith("assertion-failure")

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise SolverFailure("left the range")

        monkeypatch.setattr(experiments.curvature_flow, "curvature_heat_gap", boom)
        cfg = ExperimentConfig(
            kind="curvature-gap",
            datum_id="smooth_log_sine:1",
            out_dir=str(tmp_path),
        )
        result = run(cfg)
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
        cfg = ExperimentConfig(kind=kind, datum_id=datum, out_dir=str(tmp_path))
        result = run(cfg)
        assert result.exit_code == 3
        assert result.reason.startswith("solver-failure")
        assert not os.listdir(tmp_path)

    def test_outputs_are_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig(
                kind="accumulation",
                datum_id="log_sine",
                t_ladder=(1.0, 100.0),
                n=41,
                out_dir=str(tmp_path / name),
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

    def test_no_stray_tmp_files(self, tmp_path):
        cfg = ExperimentConfig(
            kind="dilation-bound", datum_id="log_sine", out_dir=str(tmp_path)
        )
        run(cfg)
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
