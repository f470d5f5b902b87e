"""Run configs, order estimation, artifact layout, and the command layer.

Every command is exercised through a small fast configuration (N = 64,
16 path steps on T = 0.25) whose outcomes were measured once and frozen:
the zero-drift run passes the weak audit at the default tolerance, the
constant-drift crosscheck ladder is monotone on its last three levels,
and the piecewise-linear study is exact at the level matching the path
mesh. Reruns of the same config must reproduce artifact bytes exactly.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from _support import tree_digest
from stochtransport.errors import ConfigError, SupportMarginWarning
from stochtransport.experiments import (
    DEFAULT_WEAK_TOL,
    TOLERANCE_VERSION,
    CommandResult,
    ConvergenceTable,
    ExperimentConfig,
    cmd_hypotheses,
    cmd_solve,
    cmd_uniqueness_crosscheck,
    cmd_verify_weak,
    cmd_wong_zakai,
    estimate_order,
)
from stochtransport.cli import main
from stochtransport.fields import read_field_csv
from stochtransport.paths import sample_brownian, write_path_csv
from stochtransport.profiles import sample_profile


def base_dict(**overrides) -> dict:
    raw = {
        "d": 1,
        "L": 4.0,
        "N": 64,
        "T": 0.25,
        "dt": 0.25 / 16,
        "scheme": "semi_lagrangian",
        "p": 1.0,
        "seed": 3,
        "drift": {"id": "zero"},
        "u0": {"id": "bump", "center": 0.0, "radius": 1.0},
        "wz_levels": [4, 8, 16],
    }
    raw.update(overrides)
    return raw


@pytest.fixture()
def cfg() -> ExperimentConfig:
    return ExperimentConfig.from_dict(base_dict())


class TestConfigParsing:
    def test_minimal_dict_builds_with_defaults(self):
        c = ExperimentConfig.from_dict(
            {k: v for k, v in base_dict().items() if k != "wz_levels"})
        assert c.half_width == 4.0
        assert c.horizon == 0.25
        assert c.n_steps() == 16
        assert c.phi_count == 10
        assert c.wz_levels == (4, 8, 16, 32, 64, 128, 256)
        assert c.mollify_eps is None
        assert c.out_dir == "runs"

    def test_unknown_keys_are_listed(self):
        with pytest.raises(ConfigError, match="unknown config keys.*cfl.*colour"):
            ExperimentConfig.from_dict(base_dict(cfl=0.5, colour="red"))

    def test_missing_keys_are_listed(self):
        raw = base_dict()
        del raw["dt"], raw["seed"]
        with pytest.raises(ConfigError, match="missing config keys.*dt.*seed"):
            ExperimentConfig.from_dict(raw)

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_dict([1, 2, 3])

    def test_malformed_value_rejected(self):
        with pytest.raises(ConfigError, match="malformed config value"):
            ExperimentConfig.from_dict(base_dict(N="many"))

    def test_json_round_trip(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(base_dict()), encoding="utf-8")
        assert ExperimentConfig.from_json(p) == ExperimentConfig.from_dict(base_dict())

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            ExperimentConfig.from_json(tmp_path / "absent.json")


class TestConfigValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            ExperimentConfig.from_dict(base_dict(scheme="spectral"))

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ConfigError, match="does not divide"):
            ExperimentConfig.from_dict(base_dict(dt=0.11))

    def test_exponent_floor(self):
        with pytest.raises(ConfigError, match="p must satisfy"):
            ExperimentConfig.from_dict(base_dict(p=0.5))

    def test_phi_count_floor(self):
        with pytest.raises(ConfigError, match="phi_count"):
            ExperimentConfig.from_dict(base_dict(phi_count=0))

    def test_wz_levels_must_be_positive(self):
        with pytest.raises(ConfigError, match="levels must be positive"):
            ExperimentConfig.from_dict(base_dict(wz_levels=[4, 0]))

    def test_negative_mollifier_width_rejected(self):
        with pytest.raises(ConfigError, match="mollify_eps"):
            ExperimentConfig.from_dict(base_dict(mollify_eps=-0.1))

    def test_initial_data_must_clear_margin(self):
        with pytest.raises(ConfigError, match="wrap-around margin"):
            ExperimentConfig.from_dict(
                base_dict(u0={"id": "bump", "center": 3.5, "radius": 1.0}))

    def test_upwind_cfl_precheck(self):
        with pytest.raises(ConfigError, match="CFL precheck"):
            ExperimentConfig.from_dict(
                base_dict(scheme="upwind_fv", drift={"id": "constant", "c": [50.0]}))

    def test_path_replay_must_match_config(self, cfg, tmp_path):
        p = tmp_path / "path.csv"
        write_path_csv(sample_brownian(3, 0.25, 8, 1), p)
        with pytest.raises(ConfigError, match="steps"):
            cfg.path(path_file=p)
        write_path_csv(sample_brownian(3, 0.5, 16, 1), p)
        with pytest.raises(ConfigError, match="horizon"):
            cfg.path(path_file=p)
        write_path_csv(sample_brownian(3, 0.25, 16, 2), p)
        with pytest.raises(ConfigError, match="dimension"):
            cfg.path(path_file=p)

    def test_path_replay_round_trip(self, cfg, tmp_path):
        p = tmp_path / "path.csv"
        original = cfg.path()
        write_path_csv(original, p)
        replayed = cfg.path(path_file=p)
        assert np.array_equal(replayed.values, original.values)
        assert np.array_equal(replayed.times, original.times)

    def test_seed_override(self, cfg):
        assert not np.array_equal(cfg.path(seed=4).values, cfg.path().values)


class TestEstimateOrder:
    def test_exact_halving_ladder(self):
        assert estimate_order([0.4, 0.2, 0.1]) == [1.0, 1.0]

    def test_single_ratio(self):
        (order,) = estimate_order([0.9, 0.1])
        assert abs(order - math.log2(9.0)) <= 1.0e-12

    def test_zero_tail_reports_exact(self):
        orders = estimate_order([0.4, 0.2, 0.0])
        assert orders[0] == 1.0
        assert orders[1] == math.inf

    def test_zero_before_nonzero_rejected(self):
        with pytest.raises(ConfigError, match="exactly-zero tail"):
            estimate_order([0.4, 0.0, 0.2])

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            estimate_order([0.4, -0.1])

    def test_short_ladder_rejected(self):
        with pytest.raises(ConfigError, match="at least two"):
            estimate_order([0.4])

    def test_all_zero_ladder_rejected(self):
        with pytest.raises(ConfigError, match="starts at zero"):
            estimate_order([0.0, 0.0])


class TestConvergenceTable:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="differ in length"):
            ConvergenceTable((64, 128), (0.4,))

    def test_negative_error_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            ConvergenceTable((64, 128), (0.4, -0.2))

    def test_csv_tags(self, tmp_path):
        p = tmp_path / "table.csv"
        ConvergenceTable((4, 8, 16), (0.4, 0.2, 0.0)).to_csv(p)
        rows = p.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "level,error,empirical_order"
        assert rows[1].split(",")[2] == ""
        assert rows[2].split(",")[2] == repr(1.0)
        assert rows[3].split(",")[2] == "exact"

    def test_csv_after_zero_leaves_order_blank(self, tmp_path):
        p = tmp_path / "table.csv"
        ConvergenceTable((4, 8, 16), (0.4, 0.0, 0.0)).to_csv(p)
        rows = p.read_text(encoding="utf-8").splitlines()
        assert rows[2].split(",")[2] == "exact"
        assert rows[3].split(",")[2] == ""


class TestConfigHash:
    def test_deterministic(self, cfg):
        again = ExperimentConfig.from_dict(base_dict())
        assert cfg.config_hash() == again.config_hash()
        assert len(cfg.config_hash()) == 16

    def test_placement_does_not_change_hash(self, cfg):
        moved = ExperimentConfig.from_dict(base_dict(out_dir="elsewhere"))
        assert moved.config_hash() == cfg.config_hash()
        assert "out_dir" not in cfg.canonical_dict()

    def test_seed_changes_hash(self, cfg):
        other = ExperimentConfig.from_dict(base_dict(seed=4))
        assert other.config_hash() != cfg.config_hash()


class TestSolveCommand:
    def test_artifact_inventory(self, cfg, tmp_path):
        out = tmp_path / "run"
        result = cmd_solve(cfg, out_dir=out)
        assert result.exit_code == 0
        names = sorted(os.listdir(out))
        assert [n for n in names if n.startswith("u_t")] == [
            f"u_t{m:04d}.csv" for m in range(17)]
        assert [n for n in names if n.startswith("v_t")] == [
            f"v_t{m:04d}.csv" for m in range(17)]
        for required in ("path.csv", "norms.csv", "manifest.csv"):
            assert required in names

    def test_manifest_row(self, cfg, tmp_path):
        out = tmp_path / "run"
        cmd_solve(cfg, out_dir=out)
        rows = (out / "manifest.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == ("seed,scheme,N,dt,p,drift_id,path_kind,n_level,"
                           "config_hash,tolerance_version")
        cells = rows[1].split(",")
        assert cells[0] == "3"
        assert cells[1] == "semi_lagrangian"
        assert cells[2] == "64"
        assert cells[5] == "zero"
        assert cells[6] == "brownian"
        assert cells[7] == ""
        assert cells[8] == cfg.config_hash()
        assert cells[9] == TOLERANCE_VERSION

    def test_first_snapshot_is_initial_data(self, cfg, tmp_path):
        out = tmp_path / "run"
        cmd_solve(cfg, out_dir=out)
        u0 = sample_profile(cfg.grid(), cfg.profile())
        first = read_field_csv(out / "u_t0000.csv")
        assert np.array_equal(first.values, u0.values)

    def test_norm_series_shape(self, cfg, tmp_path):
        out = tmp_path / "run"
        cmd_solve(cfg, out_dir=out)
        rows = (out / "norms.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "m,t,lp_norm"
        assert len(rows) == 18
        assert float(rows[-1].split(",")[1]) == 0.25

    def test_zero_initial_data_gives_zero_run(self, tmp_path):
        quiet = ExperimentConfig.from_dict(
            base_dict(u0={"id": "bump", "center": 0.0, "radius": 1.0,
                          "amplitude": 0.0}))
        out = tmp_path / "run"
        cmd_solve(quiet, out_dir=out)
        for m in range(17):
            snap = read_field_csv(out / f"u_t{m:04d}.csv")
            assert np.all(snap.values == 0.0)
        rows = (out / "norms.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)

    def test_rerun_is_byte_identical(self, cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_solve(cfg, out_dir=a)
        cmd_solve(cfg, out_dir=b)
        assert tree_digest(a) == tree_digest(b)

    def test_path_replay_reproduces_run(self, cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_solve(cfg, out_dir=a)
        cmd_solve(cfg, out_dir=b, path_file=a / "path.csv")
        assert tree_digest(a) == tree_digest(b)


class TestVerifyWeakCommand:
    def test_pass_on_intact_artifacts(self, cfg, tmp_path):
        out = tmp_path / "run"
        cmd_solve(cfg, out_dir=out)
        result = cmd_verify_weak(cfg, out_dir=out)
        assert result.exit_code == 0
        assert result.lines[0].startswith("PASS verify-weak")
        assert (out / "weak_report.csv").exists()

    def test_fail_on_corrupted_snapshot(self, cfg, tmp_path):
        out = tmp_path / "run"
        cmd_solve(cfg, out_dir=out)
        target = out / "u_t0008.csv"
        field = read_field_csv(target)
        from stochtransport.fields import ScalarField, write_field_csv

        write_field_csv(ScalarField(field.grid, 1.5 * field.values + 0.2), target)
        result = cmd_verify_weak(cfg, out_dir=out)
        assert result.exit_code == 1
        assert result.lines[0].startswith("FAIL verify-weak")

    def test_missing_artifacts_rejected(self, cfg, tmp_path):
        with pytest.raises(ConfigError, match="no run artifacts"):
            cmd_verify_weak(cfg, out_dir=tmp_path / "empty")

    def test_missing_manifest_rejected(self, cfg, tmp_path):
        out = tmp_path / "run"
        cmd_solve(cfg, out_dir=out)
        os.remove(out / "manifest.csv")
        with pytest.raises(ConfigError, match="no manifest.csv"):
            cmd_verify_weak(cfg, out_dir=out)

    def test_manifest_of_other_tolerance_version_rejected(self, cfg, tmp_path):
        out = tmp_path / "run"
        cmd_solve(cfg, out_dir=out)
        text = (out / "manifest.csv").read_text(encoding="utf-8")
        (out / "manifest.csv").write_text(text.replace(",1\n", ",0\n"), encoding="utf-8")
        with pytest.raises(ConfigError, match="tolerance_version=0"):
            cmd_verify_weak(cfg, out_dir=out)


class TestUniquenessCommand:
    def test_zero_drift_schemes_tie_exactly(self, cfg, tmp_path):
        out = tmp_path / "run"
        result = cmd_uniqueness_crosscheck(cfg, out_dir=out)
        assert result.exit_code == 0
        rows = (out / "crosscheck.csv").read_text(encoding="utf-8").splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["8", "16", "32", "64"]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows[1:])

    def test_constant_drift_ladder(self, tmp_path):
        c = ExperimentConfig.from_dict(
            base_dict(N=128, drift={"id": "constant", "c": [0.6]}))
        out = tmp_path / "run"
        # the N = 16 upwind level smears mass into the edge band
        with pytest.warns(SupportMarginWarning):
            result = cmd_uniqueness_crosscheck(c, out_dir=out)
        assert result.exit_code == 0
        assert result.lines[0].startswith("PASS uniqueness")
        assert "exploratory" not in result.lines[0]
        assert result.lines[1].startswith("uniqueness: final discrepancy")
        rows = (out / "crosscheck.csv").read_text(encoding="utf-8").splitlines()
        errs = [float(r.split(",")[1]) for r in rows[1:]]
        assert len(errs) == 4
        assert errs[-1] < errs[-2] < errs[-3]
        manifest = (out / "manifest.csv").read_text(encoding="utf-8").splitlines()
        assert len(manifest) == 5
        assert [r.split(",")[7] for r in manifest[1:]] == ["16", "32", "64", "128"]

    def test_ladder_needs_room(self):
        c = ExperimentConfig.from_dict(base_dict(N=32))
        with pytest.raises(ConfigError, match="ladder"):
            cmd_uniqueness_crosscheck(c, out_dir="unused")


class TestSupportMarginLines:
    # c = 2.8 carries the unit bump into the edge band of [-4, 4] before T = 1
    RAW = base_dict(T=1.0, dt=1.0 / 64, drift={"id": "constant", "c": [2.8]})

    def margin_lines(self, result, command):
        prefix = f"{command}: support touched the wrap-around margin"
        return [line for line in result.lines if line.startswith(prefix)]

    def test_uniqueness_names_each_offending_solve(self, tmp_path):
        c = ExperimentConfig.from_dict(self.RAW)
        with pytest.warns(SupportMarginWarning):
            result = cmd_uniqueness_crosscheck(c, out_dir=tmp_path / "run")
        lines = self.margin_lines(result, "uniqueness")
        assert result.lines[0].startswith("PASS uniqueness")
        assert result.lines[-len(lines):] == lines
        for scheme in ("semi_lagrangian", "upwind_fv"):
            assert any(f" in the N=64 {scheme} solve at steps [" in line for line in lines)
        assert all(line.endswith(", ...]") for line in lines)

    def test_wong_zakai_names_each_offending_solve(self, tmp_path):
        c = ExperimentConfig.from_dict(self.RAW)
        with pytest.warns(SupportMarginWarning):
            result = cmd_wong_zakai(c, out_dir=tmp_path / "run")
        lines = self.margin_lines(result, "wong-zakai")
        wheres = [line.split(" at steps ")[0].split("margin")[1] for line in lines]
        assert wheres == [" in the seed 3 reference semi_lagrangian solve"] + [
            f" in the seed 3 level {lvl} semi_lagrangian solve" for lvl in (4, 8, 16)]
        assert result.lines[1:] == lines


class TestWongZakaiCommand:
    def test_pass_and_exact_final_level(self, cfg, tmp_path):
        out = tmp_path / "run"
        result = cmd_wong_zakai(cfg, out_dir=out)
        assert result.exit_code == 0
        assert result.lines[0].startswith("PASS wong-zakai")
        rows = (out / "wong_zakai.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 4
        # level 16 interpolates at every path knot, so the runs coincide
        last = rows[3].split(",")
        assert float(last[1]) == 0.0
        assert last[2] == "exact"

    def test_level_must_divide_steps(self, tmp_path):
        c = ExperimentConfig.from_dict(base_dict(wz_levels=[3, 16]))
        with pytest.raises(ConfigError, match="does not divide"):
            cmd_wong_zakai(c, out_dir=tmp_path / "run")

    def test_multiple_seeds(self, cfg, tmp_path):
        result = cmd_wong_zakai(cfg, out_dir=tmp_path / "run", n_seeds=2)
        assert result.exit_code == 0
        manifest = (tmp_path / "run" / "manifest.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(manifest) == 1 + 2 * 3
        assert {r.split(",")[0] for r in manifest[1:]} == {"3", "4"}

    def test_seed_count_floor(self, cfg, tmp_path):
        with pytest.raises(ConfigError, match="--seeds"):
            cmd_wong_zakai(cfg, out_dir=tmp_path / "run", n_seeds=0)

    def test_replay_forbids_multiple_seeds(self, cfg, tmp_path):
        p = tmp_path / "path.csv"
        write_path_csv(cfg.path(), p)
        with pytest.raises(ConfigError, match="single path"):
            cmd_wong_zakai(cfg, out_dir=tmp_path / "run", n_seeds=2, path_file=p)


class TestHypothesesCommand:
    def test_divergence_free_field_passes(self, tmp_path):
        c = ExperimentConfig.from_dict(base_dict(
            d=2, N=32, p=2.0,
            drift={"id": "stream", "amplitude": 1.0},
            u0={"id": "bump", "center": [0.0, 0.0], "radius": 1.0},
        ))
        result = cmd_hypotheses(c, out_dir=tmp_path / "run")
        assert result.exit_code == 0
        assert result.lines[0].startswith("PASS hypotheses[")
        report = (tmp_path / "run" / "hypotheses.csv").read_text(encoding="utf-8")
        assert len(report.splitlines()) == 5

    def test_rough_power_field_fails(self, tmp_path):
        c = ExperimentConfig.from_dict(base_dict(
            p=2.0, drift={"id": "power1d", "alpha": 0.25}))
        result = cmd_hypotheses(c, out_dir=tmp_path / "run")
        assert result.exit_code == 1
        assert result.lines[0].startswith("FAIL hypotheses[")


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _with_cell(lines, row, col, cell):
    """Snapshot ``lines`` with cell ``col`` of data row ``row`` replaced."""
    cells = lines[2 + row].rstrip("\n").split(",")
    cells[col] = cell
    return lines[:2 + row] + [",".join(cells) + "\n"] + lines[3 + row:]


def _with_t(lines, moved):
    """Path ``lines`` with the t cell of each data row k in ``moved`` set to ``moved[k]``."""
    for k, t in moved.items():
        lines = _with_cell(lines, k, 1, repr(t))
    return lines


class TestCommandLine:
    def write_config(self, tmp_path, raw) -> str:
        p = tmp_path / "config.json"
        p.write_text(json.dumps(raw), encoding="utf-8")
        return str(p)

    def test_solve_then_verify(self, tmp_path, capsys):
        config = self.write_config(tmp_path, base_dict())
        out = str(tmp_path / "run")
        assert main(["solve", "--config", config, "--out", out]) == 0
        assert main(["verify-weak", "--config", config, "--out", out]) == 0
        assert "PASS verify-weak" in capsys.readouterr().out

    def test_rough_drift_solve_then_verify(self, tmp_path, capsys):
        # the weak audit's cell-averaged divergence stays finite at the
        # singular node x = 0 of |x|^(alpha-1)
        config = self.write_config(tmp_path, base_dict(
            p=2.0, drift={"id": "power1d", "alpha": 0.75, "scale": -1.0}))
        out = str(tmp_path / "run")
        assert main(["solve", "--config", config, "--out", out]) == 0
        assert main(["verify-weak", "--config", config, "--out", out]) == 0
        assert "PASS verify-weak" in capsys.readouterr().out

    def test_cli_and_mollified_solves_load_no_scipy(self):
        # numpy is the only runtime dependency: neither the CLI import nor a
        # mollified 1D solve or 2D table loads any scipy module.
        code = "\n".join([
            "import sys",
            "import stochtransport.cli",
            "from stochtransport.drifts import power_drift, stream_function_drift",
            "from stochtransport.fields import SpatialGrid",
            "from stochtransport.paths import sample_brownian",
            "from stochtransport.profiles import bump, sample_profile",
            "from stochtransport.spde import solve_spde",
            "from stochtransport.transport import mollified_drift",
            "u0 = sample_profile(SpatialGrid(1, 4.0, 64), bump(1, center=0.0, radius=1.2))",
            "sol = solve_spde(power_drift(0.75, scale=-1.0), sample_brownian(3, 0.25, 32, 1), u0)",
            "assert sol.mollify_epsilon > 0",
            "mollified_drift(stream_function_drift(4.0), 0.5, reach=5.0)",
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        ])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=_src_env(), check=True)
        assert out.stdout.strip() == "[]"

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, base_dict(colour="red"))
        assert main(["solve", "--config", config]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("key, value", [
        ("N", 64.9), ("d", 1.7), ("seed", 3.9), ("seed", True), ("phi_count", 2.5),
        ("wz_levels", [4, 8.5]), ("wz_levels", "48"),
        ("p", "inf"), ("p", "nan"), ("L", "nan"),
    ])
    def test_ill_typed_or_non_finite_value_exits_2(self, tmp_path, capsys, key, value):
        config = self.write_config(tmp_path, base_dict(**{key: value}))
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config value:")
        assert key in err

    @pytest.mark.parametrize("key, value", [
        ("p", True), ("L", "4.0"), ("drift", [["id", "zero"]]), ("u0", "bump"),
        ("out_dir", None), ("out_dir", 7), ("scheme", None),
    ])
    def test_bool_string_or_non_object_value_exits_2(self, tmp_path, capsys, key, value):
        config = self.write_config(tmp_path, base_dict(**{key: value}))
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config value:")
        assert key in err

    @pytest.mark.parametrize("remove, add, named", [
        (["u_t0005.csv"], [], "u_t0005.csv"),
        ([f"u_t{m:04d}.csv" for m in range(3, 17)], [], "u_t0003.csv"),
        ([], ["u_t0017.csv"], "u_t0017.csv"),
    ], ids=["one-missing", "only-first-three", "one-extra"])
    def test_snapshot_set_other_than_solve_wrote_exits_2(self, tmp_path, capsys,
                                                         remove, add, named):
        config = self.write_config(tmp_path, base_dict())
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        for name in remove:
            os.remove(out / name)
        for name in add:
            shutil.copy(out / "u_t0016.csv", out / name)
        capsys.readouterr()
        assert main(["verify-weak", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err

    @pytest.mark.parametrize("corrupt, named", [
        (lambda lines: _with_cell(lines, 5, 0, "x"),
         "row 5: index 'x' is not an integer"),
        (lambda lines: _with_cell(lines, 7, -1, "abc"),
         "row 7: value 'abc' is not a number"),
        (lambda lines: _with_cell(lines, 9, -1, "nan"),
         "row 9: value nan is not finite"),
        (lambda lines: lines[:3] + [lines[4], lines[3]] + lines[5:], "rows out of order at 1"),
        (lambda lines: lines[:-1], "expected 64 rows, got 63"),
        (lambda lines: lines[1:], "missing grid header line"),
    ], ids=["non-integer-index", "non-numeric-value", "non-finite-value",
            "rows-out-of-order", "missing-rows", "missing-grid-header"])
    def test_corrupt_snapshot_exits_2(self, tmp_path, capsys, corrupt, named):
        config = self.write_config(tmp_path, base_dict())
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        target = out / "u_t0008.csv"
        lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
        target.write_text("".join(corrupt(lines)), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify-weak", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unreadable snapshot u_t0008.csv:")
        assert f"{target}: {named}" in err
        assert not (out / "weak_report.csv").exists()

    def test_undecodable_snapshot_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, base_dict())
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        (out / "u_t0008.csv").write_bytes(b"# grid d=1 L=4.0 N=64\n\xff\xfe\n")
        capsys.readouterr()
        assert main(["verify-weak", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unreadable snapshot u_t0008.csv:")
        assert "'utf-8' codec can't decode" in err

    @pytest.mark.parametrize("overrides, named", [
        ({"d": 3}, "dimension"),
        ({"N": 4}, "points per axis"),
        ({"L": -1.0}, "half_width"),
        ({"u0": {"id": "bump", "center": [0.0, 1.0]}}, "broadcast"),
        ({"drift": {"id": "linear", "matrix": "abc"}}, "could not convert"),
        ({"drift": {"id": "time_modulated", "gain_id": "ramp"}}, "'base'"),
        ({"drift": {"id": "power1d", "alpha": 0.5, "scale": "x"}}, "ufunc"),
    ], ids=["d-3", "N-4", "L-negative", "u0-center-2d", "matrix-string",
            "modulated-without-base", "scale-string"])
    def test_value_a_builder_rejects_exits_2(self, tmp_path, capsys, overrides, named):
        raw = dict(base_dict(T=1.0, dt=1.0 / 128, p=2.0, seed=24,
                             drift={"id": "linear", "matrix": [[-1.0]]},
                             u0={"id": "bump", "center": 0.0, "radius": 1.2}), **overrides)
        config = self.write_config(tmp_path, raw)
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err

    @pytest.mark.parametrize("knots, named", [
        (None, "no path.csv under"),
        (3, "replayed path horizon 0.03125 != T=0.25"),
    ], ids=["deleted", "first-three-knots"])
    def test_missing_or_mismatched_path_csv_exits_2(self, tmp_path, capsys, knots, named):
        config = self.write_config(tmp_path, base_dict())
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        if knots is None:
            os.remove(out / "path.csv")
        else:  # the header comment and column names, then the first knots
            lines = (out / "path.csv").read_text(encoding="utf-8").splitlines(keepends=True)
            (out / "path.csv").write_text("".join(lines[:2 + knots]), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify-weak", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err

    @pytest.mark.parametrize("corrupt, named", [
        (lambda lines: _with_cell(lines, 3, 1, "abc"),
         "row 3: could not convert string to float: 'abc'"),
        (lambda lines: lines[:7] + [lines[7].rsplit(",", 1)[0] + "\n"] + lines[8:],
         "row 5: 2 cells for 3 columns"),
        (lambda lines: [lines[0].replace("seed=3", "seed=x")] + lines[1:],
         "seed 'x' is not an integer"),
        (lambda lines: [lines[0].rstrip("\n") + " junk\n"] + lines[1:],
         "header token 'junk' is not key=value"),
        (lambda lines: _with_cell(lines, 0, 0, "x"),
         "row 0: invalid literal for int() with base 10: 'x'"),
        (lambda lines: _with_cell(lines, 1, 0, "7"), "row 1: k=7 is not the row's position"),
        # the inner knots moved by T/64: the configured horizon and step
        # count, but knots off the snapshot times
        (lambda lines: _with_t(lines, {k: k / 64 + 0.25 / 64 for k in range(1, 16)}),
         "row 1: t=0.01953125 is off the uniform mesh linspace(0, 0.25, 17)"),
        (lambda lines: _with_t(lines, {2: 3 / 64, 3: 2 / 64}),
         "row 2: t=0.046875 is off the uniform mesh linspace(0, 0.25, 17)"),
    ], ids=["non-numeric-t", "missing-W1", "non-integer-seed", "token-without-equals",
            "non-integer-k", "k-out-of-place", "moved-knots", "non-increasing-t"])
    def test_corrupt_path_csv_exits_2(self, tmp_path, capsys, corrupt, named):
        config = self.write_config(tmp_path, base_dict())
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        target = out / "path.csv"
        lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
        target.write_text("".join(corrupt(lines)), encoding="utf-8")
        capsys.readouterr()
        for argv in (["verify-weak", "--out", str(out)],
                     ["solve", "--out", str(tmp_path / "replay"), "--path-file", str(target)]):
            assert main(argv[:1] + ["--config", config] + argv[1:]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert f"{target}: {named}" in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_path_file_that_cannot_be_opened_exits_2(self, tmp_path, capsys, kind):
        config = self.write_config(tmp_path, base_dict())
        target = tmp_path / "nothere.csv"
        if kind == "directory":
            target.mkdir()
        for command in ("solve", "uniqueness", "wong-zakai"):
            assert main([command, "--config", config, "--out", str(tmp_path / command),
                         "--path-file", str(target)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: {target}: [Errno")

    @pytest.mark.parametrize("levels", [[16, 8, 4, 2], [4, 4, 4, 4]],
                             ids=["decreasing", "repeated"])
    def test_wz_levels_that_do_not_increase_exit_2(self, tmp_path, capsys, levels):
        config = self.write_config(tmp_path, base_dict(wz_levels=levels))
        assert main(["wong-zakai", "--config", config, "--out", str(tmp_path / "wz")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: wz_levels must strictly increase, got {levels}")

    def test_manifest_seed_is_the_driving_paths(self, tmp_path):
        # a seed-7 path replayed under the config's seed 3 is attributed to
        # seed 7; the same knots without the header comment have no seed
        config = self.write_config(tmp_path, base_dict())
        drawn = tmp_path / "drawn"
        assert main(["solve", "--config", config, "--out", str(drawn), "--seed", "7"]) == 0
        lines = (drawn / "path.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == "# path kind=brownian seed=7\n"
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(lines[1:]), encoding="utf-8")
        for path_file, seed in ((drawn / "path.csv", "7"), (bare, "")):
            for command in ("solve", "uniqueness", "wong-zakai"):
                out = tmp_path / f"{command}-{seed or 'none'}"
                assert main([command, "--config", config, "--out", str(out),
                             "--path-file", str(path_file)]) in (0, 1)
                rows = (out / "manifest.csv").read_text(encoding="utf-8").splitlines()[1:]
                assert rows and {row.split(",")[0] for row in rows} == {seed}

    def test_empty_wz_levels_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, base_dict(wz_levels=[]))
        assert main(["wong-zakai", "--config", config, "--out", str(tmp_path / "wz")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "wz_levels" in err

    def test_integral_float_reads_as_its_integer(self, cfg):
        same = ExperimentConfig.from_dict(base_dict(N=64.0, wz_levels=[4.0, 8, 16]))
        assert same == cfg
        assert same.config_hash() == cfg.config_hash()

    def test_sub_grid_mollifier_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, base_dict(mollify_eps=1e-6))
        assert main(["solve", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "mollify_eps=1e-06 is below the grid spacing" in err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2

    def test_failed_check_exits_1(self, tmp_path):
        config = self.write_config(tmp_path, base_dict())
        out = str(tmp_path / "run")
        main(["solve", "--config", config, "--out", out])
        target = os.path.join(out, "u_t0008.csv")
        field = read_field_csv(target)
        from stochtransport.fields import ScalarField, write_field_csv

        write_field_csv(ScalarField(field.grid, 1.5 * field.values + 0.2), target)
        assert main(["verify-weak", "--config", config, "--out", out]) == 1

    def test_runtime_error_exits_3(self, tmp_path, capsys):
        # a valid config whose drift overflows on the grid
        config = self.write_config(tmp_path, base_dict(drift={"id": "linear",
                                                              "matrix": [[1e200]]}))
        with np.errstate(over="ignore"):
            assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err.startswith(
            "runtime error: drift 'linear' returned non-finite values")

    def test_seeds_flag_is_wong_zakai_only(self, tmp_path):
        config = self.write_config(tmp_path, base_dict())
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", config, "--seeds", "2"])
        assert exc.value.code == 2

    def test_path_file_flag_is_replay_only(self, tmp_path):
        config = self.write_config(tmp_path, base_dict())
        for command in ("verify-weak", "hypotheses"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", config, "--path-file", "path.csv"])
            assert exc.value.code == 2

    def test_seed_flag_is_for_commands_that_draw(self, tmp_path):
        config = self.write_config(tmp_path, base_dict())
        with pytest.raises(SystemExit) as exc:
            main(["hypotheses", "--config", config, "--seed", "3"])
        assert exc.value.code == 2

    def _audit_with(self, tmp_path, capsys, **overrides):
        """Solve a linear-drift run, then audit it with an altered config."""
        run = base_dict(drift={"id": "linear", "matrix": [[-1.0]]})
        out = str(tmp_path / "run")
        assert main(["solve", "--config", self.write_config(tmp_path, run),
                     "--out", out]) == 0
        audit = tmp_path / "audit.json"
        audit.write_text(json.dumps(dict(run, **overrides)), encoding="utf-8")
        capsys.readouterr()
        code = main(["verify-weak", "--config", str(audit), "--out", out])
        assert not os.path.exists(os.path.join(out, "weak_report.csv"))
        hashes = (ExperimentConfig.from_dict(run).config_hash(),
                  ExperimentConfig.from_json(audit).config_hash())
        return code, capsys.readouterr().err, hashes

    def test_verify_weak_rejects_other_horizon(self, tmp_path, capsys):
        code, err, (written, current) = self._audit_with(tmp_path, capsys, T=0.125)
        assert code == 2
        assert err.startswith("config error:")
        assert f"config_hash={written}" in err and f"config_hash={current}" in err

    def test_verify_weak_rejects_other_drift(self, tmp_path, capsys):
        code, err, (written, current) = self._audit_with(tmp_path, capsys,
                                                         drift={"id": "zero"})
        assert code == 2
        assert err.startswith("config error:")
        assert f"config_hash={written}" in err and f"config_hash={current}" in err

    def test_wong_zakai_with_seeds(self, tmp_path, capsys):
        config = self.write_config(tmp_path, base_dict())
        out = str(tmp_path / "run")
        assert main(["wong-zakai", "--config", config, "--out", out,
                     "--seeds", "2"]) == 0
        assert "PASS wong-zakai" in capsys.readouterr().out

    @pytest.mark.parametrize("module", ["stochtransport", "stochtransport.cli"])
    def test_documented_entry_points_run(self, tmp_path, module):
        config = self.write_config(tmp_path, base_dict())
        runs = [subprocess.run([sys.executable, "-m", module, "hypotheses", "--config", c,
                                "--out", str(tmp_path / "out")],
                               capture_output=True, text=True, env=_src_env())
                for c in (config, str(tmp_path / "absent.json"))]
        assert runs[0].returncode == 0
        assert runs[0].stdout.startswith("PASS hypotheses[zero]")
        assert runs[1].returncode == 2
        assert runs[1].stderr.startswith("config error: cannot read config")

    def test_config_flag_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2


class TestConstants:
    def test_documented_tolerances(self):
        assert DEFAULT_WEAK_TOL == 0.05
        assert TOLERANCE_VERSION == "1"

    def test_command_result_accumulates(self):
        r = CommandResult(0)
        r.add("one")
        r.add("two")
        assert r.lines == ["one", "two"]
