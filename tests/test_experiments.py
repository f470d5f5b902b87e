"""Run configs, order estimation, artifact layout, and the command layer.

Every command is exercised through a small fast configuration (N = 64,
16 path steps on T = 0.25) whose outcomes were measured once and frozen:
the zero-drift run passes the weak audit at the default tolerance, the
constant-drift crosscheck ladder is monotone on its last three levels,
and the piecewise-linear study is exact at the level matching the path
mesh. Reruns of the same config must reproduce artifact bytes exactly.
"""

import dataclasses
import json
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from _support import tree_digest
from stochtransport.errors import ConfigError, SupportMarginWarning
from stochtransport.experiments import (
    DEFAULT_WEAK_TOL,
    TOLERANCE_VERSION,
    CommandResult,
    ExperimentConfig,
    _FIELDS,
    _write_ladder,
    cmd_hypotheses,
    cmd_solve,
    cmd_uniqueness_crosscheck,
    cmd_verify_weak,
    cmd_wong_zakai,
    estimate_order,
)
from stochtransport.cli import main
from stochtransport.drifts import drift_from_spec
from stochtransport.artifacts import read_field_csv, write_field_csv, write_path_csv
from stochtransport.fields import ScalarField
from stochtransport.paths import sample_brownian
from stochtransport.profiles import profile_from_spec, sample_profile
from stochtransport.schema import CONFIG, DRIFT, PROFILE, check, check_keys
from stochtransport.spde import SNAPSHOT_INTERVALS


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
        with pytest.raises(ConfigError, match="^N must be an integer, got 'many'$"):
            ExperimentConfig.from_dict(base_dict(N="many"))

    @pytest.mark.parametrize("d, n", [(1, 2**22 + 1), (1, 2**70), (2, 2049), (2, 40000),
                                      (2, 10**160)])
    def test_an_oversized_grid_is_refused_before_it_is_allocated(self, d, n):
        # every N here is refused: none may be run to see whether it fits
        raw = base_dict(d=d, N=n, u0={"id": "bump", "center": [0.0] * d, "radius": 1.0})
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as info:
                ExperimentConfig.from_dict(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"N={n} exceeds {2**22 if d == 1 else 2048} in {d}D: "
                                   "a grid holds at most N**d = 2**22 nodes")
        assert peak < 2**20

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
        with pytest.raises(ConfigError, match=r"^scheme must be one of \['semi_lagrangian', "
                                              r"'upwind_fv'\], got 'spectral'$"):
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

    @pytest.mark.parametrize("errors, order", [
        ([1.0, 5e-324], 1074.0), ([1e300, 1e-300], 1993.1568569324174),
        ([1e-300, 1e300], -1993.1568569324174),
    ], ids=["overflow-subnormal", "overflow", "underflow"])
    def test_a_ratio_beyond_the_float_range_has_a_finite_order(self, errors, order):
        (got,) = estimate_order(errors)
        assert math.isfinite(got) and abs(got - order) <= 1.0e-12 * abs(order)
        assert got == math.log2(errors[0]) - math.log2(errors[1])


class TestWriteLadder:
    def test_csv_tags(self, tmp_path):
        p = tmp_path / "table.csv"
        _write_ladder(p, (4, 8, 16), (0.4, 0.2, 0.0))
        rows = p.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "level,error,empirical_order"
        assert rows[1].split(",")[2] == ""
        assert rows[2].split(",")[2] == repr(1.0)
        assert rows[3].split(",")[2] == "exact"

    def test_csv_after_zero_leaves_order_blank(self, tmp_path):
        p = tmp_path / "table.csv"
        _write_ladder(p, (4, 8, 16), (0.4, 0.0, 0.0))
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

    def test_the_hash_of_a_config_is_pinned(self, cfg):
        # The manifests of runs already written carry it; verify-weak refuses
        # artifacts whose hash differs.
        assert cfg.config_hash() == "34fcd3991081a17d"

    def test_the_key_table_holds_the_schema_keys(self):
        assert list(_FIELDS) == list(CONFIG)
        assert sorted(name for name, _ in _FIELDS.values()) == sorted(
            f.name for f in dataclasses.fields(ExperimentConfig))


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

    @pytest.mark.parametrize("steps", [2**24, 2**24 + 1])
    def test_step_count_bound(self, steps):
        raw = base_dict(T=steps * (0.25 / 16))  # exact: dt is 2**-6
        if steps <= 2**24:
            assert ExperimentConfig.from_dict(raw).n_steps() == steps
        else:
            with pytest.raises(ConfigError, match="at most 2\\*\\*24"):
                ExperimentConfig.from_dict(raw)

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

    def test_modulated_constant_prints_no_oracle_line(self, tmp_path):
        # g(t) * c has no closed form; the plain constant's oracle must not leak
        c = ExperimentConfig.from_dict(base_dict(drift={
            "id": "time_modulated", "gain_id": "ramp", "base": {"id": "constant", "c": [0.5]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportMarginWarning)
            result = cmd_uniqueness_crosscheck(c, out_dir=tmp_path / "run")
        assert result.lines[0].split()[1] == "uniqueness:"
        assert not any("oracle" in line for line in result.lines)

    def test_ladder_needs_room(self, tmp_path):
        c = ExperimentConfig.from_dict(base_dict(N=32))
        out = tmp_path / "unused"
        with pytest.raises(ConfigError, match="ladder"):
            cmd_uniqueness_crosscheck(c, out_dir=out)
        assert not out.exists()


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


def _stream2d(kind, **params) -> dict:
    """Config overrides for a 2D run of a ``stream`` or ``shear`` drift."""
    return {"d": 2, "drift": dict({"id": kind}, **params),
            "u0": {"id": "bump", "center": [0.0, 0.0], "radius": 1.2}}


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
            "(sol,) = solve_spde(power_drift(0.75, scale=-1.0), [sample_brownian(3, 0.25, 32, 1)], u0)",
            "assert sol.mollify_epsilon > 0",
            "mollified_drift(stream_function_drift(4.0), 0.5, reach=5.0)",
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        ])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=_src_env(), check=True)
        assert out.stdout.strip() == "[]"

    #: a drift whose mollifier table would exceed 2**22 nodes: rejected after --out is made
    HUGE_DRIFT = {"id": "power1d", "alpha": 0.75, "scale": 1e160}

    @pytest.mark.parametrize("command", ["solve", "uniqueness", "wong-zakai"])
    def test_a_config_error_after_the_directory_is_made_removes_it(self, tmp_path, capsys,
                                                                   command):
        config = self.write_config(tmp_path, base_dict(drift=self.HUGE_DRIFT))
        out = tmp_path / "made" / "run"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert "2**22 nodes" in capsys.readouterr().err
        assert not (tmp_path / "made").exists()

    def test_a_config_error_keeps_an_out_that_existed(self, tmp_path, capsys):
        config = self.write_config(tmp_path, base_dict(drift=self.HUGE_DRIFT))
        out = tmp_path / "run"
        out.mkdir()
        assert main(["solve", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert out.is_dir() and not any(out.iterdir())

    def test_the_margin_is_reported_on_stdout_and_not_warned(self, tmp_path, capfd):
        # a 2D bump centred at x = 1 whose support the stream field carries into the margin
        config = self.write_config(tmp_path, base_dict(
            d=2, N=32, T=1.0, dt=1.0 / 64, p=2.0, drift={"id": "stream", "amplitude": 1.0},
            u0={"id": "bump", "center": [1.0], "radius": 1.2}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", SupportMarginWarning)
            assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 0
        out, err = capfd.readouterr()
        assert "solve: support touched the wrap-around margin at steps [" in out
        assert err == ""

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, base_dict(colour="red"))
        assert main(["solve", "--config", config]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    #: What a value of each top-level key swept below must be.
    _KINDS = {"d": "an integer", "N": "an integer", "seed": "an integer",
              "phi_count": "an integer", "wz_levels": "a list of integers",
              "L": "a finite real number", "p": "a finite real number",
              "mollify_eps": "a finite real number >= 0 or null", "drift": "an object",
              "u0": "an object", "out_dir": "a string",
              "scheme": "one of ['semi_lagrangian', 'upwind_fv']"}

    @pytest.mark.parametrize("key, value", [
        ("N", 64.9), ("d", 1.7), ("seed", 3.9), ("seed", True), ("phi_count", 2.5),
        ("wz_levels", [4, 8.5]), ("wz_levels", "48"),
        ("p", "inf"), ("p", "nan"), ("L", "nan"), pytest.param("L", 10**400, id="L-10**400"),
        ("mollify_eps", math.inf),
    ])
    def test_ill_typed_or_non_finite_value_exits_2(self, tmp_path, capsys, key, value):
        config = self.write_config(tmp_path, base_dict(**{key: value}))
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (f"config error: {key} must be {self._KINDS[key]}, "
                                           f"got {value!r}\n")

    @pytest.mark.parametrize("key, value", [
        ("p", True), ("L", "4.0"), ("drift", [["id", "zero"]]), ("u0", "bump"),
        ("out_dir", None), ("out_dir", 7), ("scheme", None),
    ])
    def test_bool_string_or_non_object_value_exits_2(self, tmp_path, capsys, key, value):
        config = self.write_config(tmp_path, base_dict(**{key: value}))
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (f"config error: {key} must be {self._KINDS[key]}, "
                                           f"got {value!r}\n")

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
        (lambda lines: _with_cell(lines, 10, 1, "99.0"),
         "row 10: x1 '99.0' is not the grid's '-2.75'"),
        (lambda lines: lines[:13] + [lines[13].rstrip("\n") + ",junk,7\n"] + lines[14:],
         "row 11: cell 'junk' follows the value cell"),
        (lambda lines: lines[:14] + [lines[14].rpartition(",")[0] + "\n"] + lines[15:],
         "row 12: 2 cells, expected 3: index,x1,value"),
        (lambda lines: _with_cell(_with_cell(lines, 3, 1, "-3.5"), 4, 1, "-3.625"),
         "row 3: x1 '-3.5' is not the grid's '-3.625'"),
    ], ids=["non-integer-index", "non-numeric-value", "non-finite-value",
            "rows-out-of-order", "missing-rows", "missing-grid-header", "wrong-coordinate",
            "extra-cells", "missing-cell", "swapped-coordinates"])
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
        ({"drift": {"id": "linear", "matrix": "abc"}},
         "drift.matrix must be a 1 x 1 matrix: a list of 1 rows of 1 finite real numbers, "
         "got 'abc'"),
        ({"drift": {"id": "time_modulated", "gain_id": "ramp"}},
         "missing config keys: ['drift.base']"),
        ({"drift": {"id": "power1d", "alpha": 0.5, "scale": "x"}},
         "scale must be a finite real number, got 'x'"),
        (_stream2d("stream", half_width=3.0), "not periodic on the box"),
        (_stream2d("shear", half_width=3.0), "not periodic on the box"),
        (_stream2d("stream", amplitude=math.nan), "amplitude must be a finite real number, got nan"),
        (_stream2d("stream", amplitude=True),
         "drift.amplitude must be a finite real number, got True"),
        ({"drift": {"id": "power1d", "alpha": 0.75, "scale": 2.0**70}},
         "needs more than 2**22 nodes; the drift or the path moves too far for the radius"),
    ], ids=["d-3", "N-4", "L-negative", "u0-center-2d", "matrix-string",
            "modulated-without-base", "scale-string", "stream-half-width-3",
            "shear-half-width-3", "amplitude-nan", "amplitude-true", "table-too-wide"])
    def test_value_a_builder_rejects_exits_2(self, tmp_path, capsys, overrides, named):
        raw = dict(base_dict(T=1.0, dt=1.0 / 128, p=2.0, seed=24,
                             drift={"id": "linear", "matrix": [[-1.0]]},
                             u0={"id": "bump", "center": 0.0, "radius": 1.2}), **overrides)
        config = self.write_config(tmp_path, raw)
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err

    @pytest.mark.parametrize("overrides, named", [
        ({"drift": {"id": "power1d", "alpha": 0.75, "scale": [1.0]}},
         "scale must be a finite real number, got [1.0]"),
        ({"drift": {"id": "power1d", "alpha": [0.75]}}, "alpha must be a finite real number"),
        ({"drift": {"id": "power1d", "alpha": 0.75, "scale": -math.inf}},
         "scale must be a finite real number, got -inf"),
        (_stream2d("stream", amplitude=[1.0]), "amplitude must be a finite real number"),
        (_stream2d("shear", half_width={}), "half_width must be a finite real number"),
        ({"u0": {"id": "bump", "center": 1e308, "radius": 1.0}},
         "u0 samples to zero at every grid node"),
        ({"u0": {"id": "bump", "center": 0.0, "radius": 1e-300}},
         "u0 samples to zero at every grid node"),
        ({"u0": {"id": "bump", "center": 20.0, "radius": 1.0}},
         "u0 samples to zero at every grid node"),
        ({"u0": {"id": "bump", "radius": 1.2, "amplitude": math.inf}},
         "u0.amplitude must be a finite real number, got inf"),
        ({"T": 1e308}, "steps; a run takes at most 2**24 = 16777216 steps"),
        ({"T": 2.0**70}, "steps; a run takes at most 2**24 = 16777216 steps"),
        ({"dt": 1e-300}, "steps; a run takes at most 2**24 = 16777216 steps"),
        ({"u0": {"id": "bump", "radius": 1.2, "amplitude": [1.0]}},
         "u0.amplitude must be a finite real number, got [1.0]"),
        ({"u0": {"id": "bump", "radius": [1.2]}},
         "u0.radius must be a finite real number, got [1.2]"),
        ({"u0": {"id": "bump", "radius": True}},
         "u0.radius must be a finite real number, got True"),
        ({"u0": {"id": "bump", "center": math.nan, "radius": 1.0}},
         "u0.center must be a finite real number or a list of them that broadcasts "
         "to 1 coordinates, got nan"),
        ({"u0": {"id": "step", "center": [[0.0]], "half_width": 1.0}},
         "u0.center must be a finite real number or a list"),
        ({"u0": {"id": "step", "half_width": "1"}},
         "u0.half_width must be a finite real number, got '1'"),
        ({"u0": {"id": "double_bump", "amplitudes": [1.0, math.inf]}},
         "u0.amplitudes must be two finite real numbers, got [1.0, inf]"),
        ({"u0": {"id": "double_bump", "amplitudes": [1.0, 0.5, 0.25]}},
         "u0.amplitudes must be two finite real numbers, got [1.0, 0.5, 0.25]"),
        ({"u0": {"id": "double_bump", "centers": [-1.5, [1.5, 0.0]]}},
         "u0.centers must be two centers, each a finite real number"),
        ({"u0": {"id": "sinusoid", "mode": 1}},
         "u0.id must be one of ['bump', 'double_bump', 'step'], got 'sinusoid'"),
        ({"u0": {"id": "step", "half_width": math.inf}},
         "u0.half_width must be a finite real number, got inf"),
        ({"N": 1e160}, "exceeds 4194304 in 1D: a grid holds at most N**d = 2**22 nodes"),
        (dict(_stream2d("stream"), N=40000),
         "N=40000 exceeds 2048 in 2D: a grid holds at most N**d = 2**22 nodes"),
        (_stream2d("stream", half_width=1e-300),
         "drift.half_width = 1e-300 puts 4e+300 periods of the drift on the box, more than "
         "the N/2 = 32 that N = 64 nodes per axis resolve"),
        (_stream2d("shear", half_width=4.0 / 33),
         "drift.half_width = 0.12121212121212122 puts 33 periods of the drift on the box, "
         "more than the N/2 = 32"),
    ], ids=["scale-list", "alpha-list", "scale-inf", "amplitude-list", "half-width-object",
            "u0-center-1e308", "u0-radius-1e-300", "u0-outside-the-box", "u0-infinite",
            "T-1e308", "T-2**70", "dt-1e-300", "u0-amplitude-list", "u0-radius-list",
            "u0-radius-true", "u0-center-nan", "step-center-nested", "step-half-width-string",
            "double-bump-amplitude-inf", "double-bump-three-amplitudes",
            "double-bump-center-2d", "sinusoid-is-no-config-profile",
            "step-half-width-inf", "N-1e160", "N-40000-2d", "stream-half-width-1e-300",
            "shear-half-width-L/33"])
    @pytest.mark.parametrize("command", ["solve", "hypotheses"])
    def test_a_value_no_run_can_use_exits_2_in_one_line(self, tmp_path, capsys, command,
                                                       overrides, named):
        config = self.write_config(tmp_path, base_dict(**overrides))
        assert main([command, "--config", config, "--out", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error:") and named in err

    def test_an_overflowing_drift_fails_hypotheses_without_warnings(self, tmp_path, capsys):
        config = self.write_config(tmp_path, base_dict(**_stream2d("stream", amplitude=1e308)))
        assert main(["hypotheses", "--config", config, "--out", str(tmp_path / "hyp")]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("FAIL hypotheses[stream]") and err == ""

    @pytest.mark.parametrize("L", [1e160, 1e200, 1e300])
    def test_a_box_too_wide_to_square_its_radius_exits_2_in_every_command(self, tmp_path,
                                                                           capsys, L):
        # At L = 1e160 the radius 2h squared to inf, and the mollifier kernel
        # collapsed to one tap with two numpy warnings; uniqueness then passed.
        config = self.write_config(tmp_path, base_dict(L=L, N=64))
        for command in ("solve", "verify-weak", "uniqueness", "wong-zakai", "hypotheses"):
            assert main([command, "--config", config, "--out", str(tmp_path / "run")]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == (f"config error: L={L!r} exceeds 1e+150: the mollifier "
                                         "squares its radius, and the squares of such a box "
                                         "overflow\n")
        assert not (tmp_path / "run").exists()

    def test_a_drift_that_overflows_at_step_1_is_a_runtime_error(self, tmp_path, capsys):
        # Its values at the nodes are finite, so the config is valid; the
        # march is what overflows, and that is exit 3 naming the step and path.
        config = self.write_config(tmp_path, base_dict(**_stream2d("stream", amplitude=1e308)))
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "runtime error: non-finite field at step 1 of path 0\n"

    def test_a_drift_that_overflows_at_a_stage_point_is_a_runtime_error(self, tmp_path, capsys):
        # finite at every node, so the config is valid; a stage read of the march
        # overflows, and that is exit 3 naming the drift and the time of the read
        config = self.write_config(tmp_path, base_dict(
            N=32, T=1.0, dt=1.0 / 64, drift={"id": "linear", "matrix": [[1e160]]}))
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == ("runtime error: drift 'linear' returned non-finite values "
                                     "at t=0.0078125\n")

    #: The grid of the ``rough_tm1d`` benchmark, with a constant drift.
    ROUGH_GRID = {"d": 1, "L": 4.0, "N": 256, "T": 1.0, "dt": 1.0 / 256, "p": 2.0, "seed": 24,
                  "drift": {"id": "constant", "c": [0.5]}}

    @pytest.mark.parametrize("overrides, norm", [
        ({"u0": {"id": "step", "amplitude": 1e160}}, "p=2.0 is inf"),
        ({"u0": {"id": "bump", "radius": 1.2}, "p": 1e300}, "p=1e+300 is 0.0"),
    ], ids=["overflow", "underflow"])
    def test_a_u0_without_a_finite_positive_norm_exits_2(self, tmp_path, capfd, overrides,
                                                         norm):
        # the overflow once wrote lp_norm = inf in every row of norms.csv, and
        # verify-weak then passed with an infinite normalizer
        config = self.write_config(tmp_path, base_dict(**dict(self.ROUGH_GRID, **overrides)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("solve", "verify-weak", "hypotheses"):
                argv = [command, "--config", config, "--out", str(tmp_path / "run")]
                assert main(argv) == 2
                assert capfd.readouterr() == ("", f"config error: the L^p norm of u0 at {norm}: "
                                                  "a nonzero u0 needs a finite positive norm\n")
        assert not (tmp_path / "run").exists()

    def test_a_later_norm_that_overflows_is_a_runtime_error(self, tmp_path, capfd):
        # |u0|_p is 1 at p = 1e300, but the frame shift's cubic read overshoots 1
        config = self.write_config(tmp_path, base_dict(
            **dict(self.ROUGH_GRID, u0={"id": "step"}, p=1e300)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 3
        assert capfd.readouterr() == ("", "runtime error: the L^p norm at p=1e+300 overflows: "
                                          "the p-th powers of the values exceed the float range\n")
        assert os.listdir(tmp_path / "run") == []

    #: The values the sweeps below draw from for every key the schema lists.
    _SWEEP_VALUES = [None, True, False, "x", 1e308, -1e308, math.nan, math.inf, -math.inf,
                     [], {}, [1.0], 2**70, 1e-300, 1e160, 0, -1, [[1.0]],
                     [[1.0, 0.0], [0.0, 1.0]], -0.0]

    #: A valid value of each required catalog parameter, for the sweeps' base configs.
    _REQUIRED = {"matrix": [[-1.0]], "alpha": 0.75, "gain_id": "sin_squared",
                 "base": {"id": "power1d", "alpha": 0.75}}

    #: What a run that passes the config checks may print when it exits 3: a
    #: value that overflows in the march, in a drift read, or in a snapshot's
    #: norm, as README states.
    _RUNTIME_ERROR = re.compile(
        r"runtime error: (non-finite field at step \d+ of path \d+|drift '[^']+' "
        r"(returned non-finite values|Jacobian non-finite) at t=\S+|the L\^p norm at p=\S+ "
        r"overflows: the p-th powers of the values exceed the float range)\n")

    @classmethod
    def _schema_keys(cls, spec, kind, path):
        """The key path of every key the schema gives the catalog object
        ``spec`` of ``kind``, its id first, nested objects included."""
        for key, param in kind.catalog[spec["id"]].items():
            yield f"{path}.{key}"
            if param.catalog is not None and key in spec:
                yield from cls._schema_keys(spec[key], param, f"{path}.{key}")

    @staticmethod
    def _base_configs(**overrides) -> dict:
        """The base config of each dimension: a 1D ``power1d`` drift and a 2D
        ``stream`` drift, each with a bump and K = 16 steps."""
        return {1: base_dict(p=2.0, mollify_eps=1.0, phi_count=4,
                             drift={"id": "power1d", "alpha": 0.75, "scale": -1.0},
                             u0={"id": "bump", "center": 0.0, "radius": 1.2}, **overrides),
                2: base_dict(p=2.0, phi_count=4, **_stream2d("stream", amplitude=1.0),
                             **overrides)}

    @classmethod
    def _schema_configs(cls, **overrides):
        """(config, key paths) pairs that cover the schema. First the base
        config of each dimension (:meth:`_base_configs`), with every top-level
        key of ``CONFIG`` and the key path of every key the schema gives its
        drift and u0; then, for each catalog drift and profile that no base
        holds, the base of the first dimension it builds in, 1 or 2, with that
        entry in place, and the key paths of the entry. An entry states its
        required parameters (``_REQUIRED``)."""
        bases = cls._base_configs(**overrides)
        held = set()
        for raw in bases.values():
            yield raw, [*CONFIG, *cls._schema_keys(raw["drift"], DRIFT, "drift"),
                        *cls._schema_keys(raw["u0"], PROFILE, "u0")]
            held |= {raw["drift"]["id"], raw["u0"]["id"]}
        for top, kind in (("drift", DRIFT), ("u0", PROFILE)):
            build = (partial(drift_from_spec, half_width=4.0, n=16) if top == "drift"
                     else profile_from_spec)
            for ident, params in kind.catalog.items():
                if ident in held:
                    continue
                spec = {key: ident if key == "id" else cls._REQUIRED[key]
                        for key, param in params.items() if param.required}
                for d in (1, 2):
                    try:
                        build(d, spec=spec)
                        break
                    except ConfigError:
                        continue
                yield dict(bases[d], **{top: spec}), list(cls._schema_keys(spec, kind, top))

    @staticmethod
    def _sweep_cases(configs, rng, per_key):
        """Each config of ``configs`` with one key path set to one of ``per_key``
        values drawn from ``_SWEEP_VALUES`` by ``rng``, for every key path given:
        ``(key path, value, case)``."""
        for raw, keys in configs:
            for key in keys:
                for i in sorted(rng.choice(len(TestCommandLine._SWEEP_VALUES), per_key,
                                           replace=False)):
                    case = json.loads(json.dumps(raw))
                    *parents, last = key.split(".")
                    node = case
                    for k in parents:
                        node = node[k]
                    node[last] = TestCommandLine._SWEEP_VALUES[i]
                    yield key, TestCommandLine._SWEEP_VALUES[i], case

    @staticmethod
    def _kind_fault(key, case):
        """The schema's fault in the mutated ``key`` of ``case``, or None when
        its value is of its kind: the message ``check`` raises."""
        top = key.partition(".")[0]
        try:
            if key == top:
                check_keys(case, CONFIG)
            else:
                check(case[top], DRIFT if top == "drift" else PROFILE, top, case["d"])
        except ConfigError as exc:
            return str(exc)
        return None

    def _sweep_faults(self, tmp_path, capsys, configs, commands, rng, per_key) -> tuple:
        """Run every case of :meth:`_sweep_cases` through each of ``commands``.
        Returns the number of cases and the runs that were not clean. A clean
        run exits 0, 1 or 2, with no traceback and no RuntimeWarning; an exit
        2 prints nothing to stdout and one ``config error:`` line, which is the
        schema's own message naming the key path when the value is not of the
        key's kind. Exit 3 is a runtime error of ``_RUNTIME_ERROR`` only."""
        faults = []
        for n, (key, value, case) in enumerate(self._sweep_cases(configs, rng, per_key)):
            config = self.write_config(tmp_path, case)
            kind_fault = self._kind_fault(key, case)
            runs = commands
            try:
                ExperimentConfig.from_dict(case)
            except ConfigError:  # every command loads the config first, the same way
                runs = commands[:1]
            except Exception:  # the runs below report it
                pass
            for command in runs:
                argv = [command, "--config", config, "--out", str(tmp_path / f"run{n}")]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = main(argv)
                    except Exception as exc:  # each case is reported, not the first alone
                        code = f"{type(exc).__name__}: {exc}"
                out, err = capsys.readouterr()
                numpy_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
                clean = code in (0, 1, 2) or code == 3 and self._RUNTIME_ERROR.fullmatch(err)
                clean = clean and not numpy_warnings and "Traceback" not in err \
                    and "RuntimeWarning" not in err
                if code == 2:
                    clean = clean and out == "" and err.count("\n") == 1 \
                        and err.startswith("config error:")
                if kind_fault is not None:
                    clean = clean and code == 2 and key in kind_fault \
                        and err == f"config error: {kind_fault}\n"
                if not clean:
                    faults.append((command, key, value, code, err, numpy_warnings))
        return n + 1, faults

    def test_a_mutated_config_exits_cleanly(self, tmp_path, capsys):
        """Every key path the schema lists, in a tiny config (N = 16, K = 16)
        that holds it (:meth:`_schema_configs`), set in turn to a seeded draw
        of 8 wrong values, through ``solve`` and ``hypotheses``: every run is
        clean (:meth:`_sweep_faults`)."""
        count, faults = self._sweep_faults(tmp_path, capsys, self._schema_configs(N=16),
                                           ("solve", "hypotheses"),
                                           np.random.default_rng(2026), per_key=8)
        assert count > 500 and faults == []

    def test_a_mutated_config_exits_cleanly_in_the_studies(self, tmp_path, capsys):
        """The sweep of :meth:`test_a_mutated_config_exits_cleanly` on N = 64,
        K = 16 configs, through the refinement studies: a seeded draw of 4
        wrong values per key path of the 1D base config through ``uniqueness``
        and ``wong-zakai``, and of the 2D base config through ``wong-zakai``;
        and of 1 per key path of every other catalog entry through both."""
        rng = np.random.default_rng(2026)
        configs = list(self._schema_configs())
        count, faults = 0, []
        for k, (group, commands, per_key) in enumerate((
                (configs[:1], ("uniqueness", "wong-zakai"), 4),
                (configs[1:2], ("wong-zakai",), 4),
                (configs[2:], ("uniqueness", "wong-zakai"), 1))):
            (tmp_path / str(k)).mkdir()
            n, found = self._sweep_faults(tmp_path / str(k), capsys, group, commands, rng,
                                          per_key)
            count, faults = count + n, faults + found
        assert count >= 190 and faults == []

    def test_a_solve_imports_neither_numpy_ma_nor_scipy(self, tmp_path):
        # A lazy import on the march path costs every process its time and
        # memory, so a tiny solve in a fresh interpreter must not make one.
        config = self.write_config(tmp_path, base_dict(N=16, **_stream2d("stream")))
        argv = ["solve", "--config", config, "--out", str(tmp_path / "run")]
        script = ("import sys\n"
                  "from stochtransport.cli import main\n"
                  f"assert main({argv!r}) == 0\n"
                  "print(sorted(m for m in sys.modules if m == 'numpy.ma'\n"
                  "             or m.startswith(('numpy.ma.', 'scipy'))))\n")
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=_src_env())
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"

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

    @pytest.mark.parametrize("eps", [1e150, 1e308])
    def test_mollifier_wider_than_the_box_exits_2(self, tmp_path, capsys, eps):
        drift = {"id": "power1d", "alpha": 0.75}
        config = self.write_config(tmp_path, base_dict(drift=drift, mollify_eps=eps))
        out = tmp_path / "run"
        assert main(["solve", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: mollify_eps={eps} exceeds the box half-width "
                       "L=4.0; a forced radius must be at most L\n")
        assert not out.exists()
        # the half-width itself is a radius the config accepts
        assert ExperimentConfig.from_dict(base_dict(mollify_eps=4.0)).mollify_eps == 4.0

    @pytest.mark.parametrize("command, overrides, flags, named", [
        ("solve", {}, ["--path-file", "absent.csv"], "absent.csv: [Errno 2]"),
        ("uniqueness", {}, ["--path-file", "absent.csv"], "absent.csv: [Errno 2]"),
        # unchecked, N = 100 marches a 12/25/50/100 ladder whose ratios read as order 2
        ("uniqueness", {"N": 100}, [], "N=100 is not a multiple of 8, so its N/8 ladder"),
        ("wong-zakai", {}, ["--path-file", "absent.csv"], "absent.csv: [Errno 2]"),
        ("wong-zakai", {}, ["--seeds", "0"], "--seeds must be positive"),
        ("wong-zakai", {}, ["--seeds", "2", "--path-file", "absent.csv"],
         "--path-file replays a single path"),
        ("wong-zakai", {"wz_levels": [3]}, [], "wong-zakai level 3 does not divide"),
    ], ids=["solve-path-file", "uniqueness-path-file", "uniqueness-N100",
            "wong-zakai-path-file", "wong-zakai-seeds0", "wong-zakai-replay-seeds",
            "wong-zakai-level"])
    def test_rejected_command_leaves_no_out(self, tmp_path, capsys, command, overrides, flags,
                                            named):
        config = self.write_config(tmp_path, base_dict(**overrides))
        out = tmp_path / "run"
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        assert main([command, "--config", config, "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "uniqueness", "wong-zakai", "hypotheses"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, command):
        config = self.write_config(tmp_path, base_dict())
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        for out in (taken, taken / "run"):  # a file, and a directory under a file
            assert main([command, "--config", config, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(
                f"config error: cannot make the artifact directory {out}: [Errno")
        assert taken.read_text(encoding="utf-8") == "kept\n"

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2

    def test_failed_check_exits_1(self, tmp_path):
        config = self.write_config(tmp_path, base_dict())
        out = str(tmp_path / "run")
        main(["solve", "--config", config, "--out", out])
        target = os.path.join(out, "u_t0008.csv")
        field = read_field_csv(target)
        write_field_csv(ScalarField(field.grid, 1.5 * field.values + 0.2), target)
        assert main(["verify-weak", "--config", config, "--out", out]) == 1

    def test_runtime_error_exits_3(self, tmp_path, capsys):
        # a valid config whose drift overflows on the grid
        config = self.write_config(tmp_path, base_dict(drift={"id": "linear",
                                                              "matrix": [[1e200]]}))
        assert main(["solve", "--config", config, "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err.startswith(
            "runtime error: drift 'linear' returned non-finite values")

    def test_runtime_error_is_the_only_line_on_stderr(self, tmp_path):
        config = self.write_config(tmp_path, base_dict(drift={"id": "linear",
                                                              "matrix": [[1e200]]}))
        run = subprocess.run([sys.executable, "-m", "stochtransport", "solve", "--config", config,
                              "--out", str(tmp_path / "run")],
                             capture_output=True, text=True, env=_src_env())
        assert run.returncode == 3
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("runtime error: drift 'linear' returned non-finite values")

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

    # A seed keys numpy.random.Philox, which takes keys 0 <= key < 2**128 only.
    @pytest.mark.parametrize("command, seed, why", [
        case for command in ("solve", "verify-weak", "uniqueness", "wong-zakai", "hypotheses")
        for case in (pytest.param(command, -1, "be nonnegative", id=command),
                     pytest.param(command, 2**130, "be below 2**128", id=f"{command}-2**130"))])
    def test_negative_config_seed_exits_2(self, tmp_path, capsys, command, seed, why):
        config = self.write_config(tmp_path, base_dict(seed=seed))
        assert main([command, "--config", config, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"config error: seed must {why}, got {seed}\n"

    @pytest.mark.parametrize("command, seed, why", [
        case for command in ("solve", "verify-weak", "uniqueness", "wong-zakai")
        for case in (pytest.param(command, -5, "be nonnegative", id=command),
                     pytest.param(command, 2**128, "be below 2**128", id=f"{command}-2**128"))])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, command, seed, why):
        config = self.write_config(tmp_path, base_dict())
        out = tmp_path / "run"
        assert main([command, "--config", config, "--out", str(out), "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == f"config error: --seed must {why}, got {seed}\n"
        assert not out.exists()

    def test_seeds_past_the_key_range_exit_2(self, tmp_path, capsys):
        # the seed is valid, but the third of three seeds from it is 2**128
        config = self.write_config(tmp_path, base_dict())
        argv = ["wong-zakai", "--config", config, "--out", str(tmp_path / "run"),
                "--seed", str(2**128 - 2), "--seeds", "3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: the last seed of --seeds 3 must be below 2**128, got {2**128}\n")
        assert main(argv[:-1] + ["2"]) == 0

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

    def test_benchmark_copies_the_solver_constants(self):
        # The benchmark restates two constants; read its module from source
        # (no bytecode is written) and hold the copies to the originals.
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
        bench = runpy.run_path(path, run_name="bench_workloads")
        assert bench["WEAK_TOL"] == DEFAULT_WEAK_TOL
        assert bench["_SNAPSHOT_FILES"] == SNAPSHOT_INTERVALS + 1

    def test_benchmark_tracer_sees_every_mollified_read(self, tmp_path):
        # The benchmark's trace mode re-wraps each mollified drift's ``fn``
        # with ``dataclasses.replace``. Its wrappers stay installed, so it
        # runs in a fresh process, reading the tracer from source.
        tracer = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
        config = tmp_path / "rough.json"
        config.write_text(json.dumps(base_dict(drift={
            "id": "time_modulated", "gain_id": "sin_squared",
            "base": {"id": "power1d", "alpha": 0.75}})), encoding="utf-8")
        script = "; ".join([
            "import runpy, sys",
            "import stochtransport.cli as cli",
            "tracer = runpy.run_path(sys.argv[1], run_name='bench_tracer')['Tracer']()",
            "tracer.install()",
            "code = cli.main(['solve', '--config', sys.argv[2], '--out', sys.argv[3]])",
            "print(code, tracer.stats['transport.mollified_fn'].calls)",
        ])
        run = subprocess.run([sys.executable, "-c", script, os.path.abspath(tracer),
                              str(config), str(tmp_path / "out")],
                             capture_output=True, text=True, env=_src_env())
        assert run.returncode == 0, run.stderr
        # 64 nodes, 16 steps: 16 blocks of 1 step, one read per RK4 stage
        assert run.stdout.splitlines()[-1] == f"0 {4 * 16}"

    def test_benchmark_tracer_sees_the_wong_zakai_batch(self, tmp_path):
        # The reference and every level of a seed march in one solve_spde
        # call, so the trace mode counts one solve per seed.
        tracer = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
        config = tmp_path / "wz.json"
        config.write_text(json.dumps(base_dict()), encoding="utf-8")
        script = "; ".join([
            "import runpy, sys",
            "import stochtransport.cli as cli",
            "tracer = runpy.run_path(sys.argv[1], run_name='bench_tracer')['Tracer']()",
            "tracer.install()",
            "code = cli.main(['wong-zakai', '--config', sys.argv[2], '--out', sys.argv[3],"
            " '--seeds', '3'])",
            "print(code, tracer.stats['spde.solve_spde'].calls)",
        ])
        run = subprocess.run([sys.executable, "-c", script, os.path.abspath(tracer),
                              str(config), str(tmp_path / "out")],
                             capture_output=True, text=True, env=_src_env())
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 3"

    def test_command_result_accumulates(self):
        r = CommandResult(0)
        r.add("one")
        r.add("two")
        assert r.lines == ["one", "two"]
