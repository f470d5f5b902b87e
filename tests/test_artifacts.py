"""Exact text of every CSV artifact kind, pinned on tiny hand-built inputs.

Each writer is fed a small input whose expected file is spelled out in
full: comment header, column line, one line per row, floats as their
shortest round-trip text. Every kind includes a float that needs 17
significant digits (0.1 + 0.2 = 0.30000000000000004), so a writer that
rounds or reformats floats changes the bytes and fails here.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from stochtransport.drifts import HypothesisReport, write_hypothesis_csv
from stochtransport.errors import FieldValidationError
from stochtransport.experiments import (ConvergenceTable, ExperimentConfig,
                                        _write_manifest, cmd_solve)
from stochtransport.fields import (ScalarField, SpatialGrid, read_field_csv,
                                   write_field_csv)
from stochtransport.paths import SamplePath, read_path_csv, write_path_csv
from stochtransport.weakform import (WeakResidualReport, WeakResidualSeries,
                                     write_weak_report_csv)

#: A double whose shortest round-trip text has 17 significant digits.
X17 = 0.1 + 0.2
X17_TEXT = "0.30000000000000004"

#: Node coordinates of an 8-point axis on L = 4 (h = 1).
AXIS = ["-4.0", "-3.0", "-2.0", "-1.0", "0.0", "1.0", "2.0", "3.0"]


def text(target) -> str:
    with open(target, "rb") as fh:
        return fh.read().decode("utf-8")


class TestFieldText:
    def test_1d(self, tmp_path):
        grid = SpatialGrid(1, 4.0, 8)
        vals = np.zeros(8)
        vals[2] = X17
        vals[5] = -1.5
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField(grid, vals), target)
        values = ["0.0"] * 8
        values[2] = X17_TEXT
        values[5] = "-1.5"
        want = "# grid d=1 L=4.0 N=8\nindex,x1,value\n" + "".join(
            f"{i},{AXIS[i]},{values[i]}\n" for i in range(8))
        assert text(target) == want

    def test_2d(self, tmp_path):
        grid = SpatialGrid(2, 4.0, 8)
        vals = np.zeros((8, 8))
        vals[1, 3] = X17
        vals[7, 0] = 2.0
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField(grid, vals), target)
        values = ["0.0"] * 64
        values[1 * 8 + 3] = X17_TEXT
        values[7 * 8 + 0] = "2.0"
        want = "# grid d=2 L=4.0 N=8\nindex,x1,x2,value\n" + "".join(
            f"{i},{AXIS[i // 8]},{AXIS[i % 8]},{values[i]}\n" for i in range(64))
        assert text(target) == want

    def test_1d_edge_floats(self, tmp_path):
        grid = SpatialGrid(1, 4.0, 8)
        vals = np.array([-0.0, 5e-324, 1e-05, 1e16, 1e22, X17, 0.0, -1.0])
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField(grid, vals), target)
        assert text(target) == (
            "# grid d=1 L=4.0 N=8\nindex,x1,value\n"
            "0,-4.0,-0.0\n1,-3.0,5e-324\n2,-2.0,1e-05\n3,-1.0,1e+16\n"
            f"4,0.0,1e+22\n5,1.0,{X17_TEXT}\n6,2.0,0.0\n7,3.0,-1.0\n"
        )

    def test_2d_edge_floats(self, tmp_path):
        grid = SpatialGrid(2, 4.0, 8)
        vals = np.zeros((8, 8))
        vals[0, 1], vals[2, 7], vals[4, 4], vals[6, 0], vals[7, 7] = (
            -0.0, 5e-324, 1e-05, 1e16, 1e22)
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField(grid, vals), target)
        values = ["0.0"] * 64
        values[1], values[23], values[36], values[48], values[63] = (
            "-0.0", "5e-324", "1e-05", "1e+16", "1e+22")
        want = "# grid d=2 L=4.0 N=8\nindex,x1,x2,value\n" + "".join(
            f"{i},{AXIS[i // 8]},{AXIS[i % 8]},{values[i]}\n" for i in range(64))
        assert text(target) == want

    @pytest.mark.parametrize("d, n", [(2, 128), (1, 256)])
    def test_bytes_of_the_row_formatter(self, tmp_path, d, n):
        # the reference formats every cell of every row with str; two fields
        # on one grid, so the second write reuses the first's prefixes
        grid = SpatialGrid(d, 4.0, n)
        rng = np.random.default_rng(5)
        for k in range(2):
            vals = rng.normal(size=grid.shape) * 10.0 ** rng.integers(-30, 30, size=grid.shape)
            vals.ravel()[:5] = [-0.0, 5e-324, 1e-05, 1e16, 1e22]
            target = tmp_path / f"f{k}.csv"
            write_field_csv(ScalarField(grid, vals), target)
            row_format = ",".join(["%s"] * (d + 2)) + "\n"
            rows = zip(range(grid.size), *grid.nodes().T.tolist(), vals.ravel().tolist())
            want = (f"# grid d={d} L=4.0 N={n}\n"
                    + ",".join(["index"] + [f"x{a + 1}" for a in range(d)] + ["value"]) + "\n"
                    + "".join(row_format % row for row in rows))
            assert target.read_bytes() == want.encode("utf-8")

    def test_equal_grids_write_identical_files(self, tmp_path):
        first, second = SpatialGrid(2, 4.0, 16), SpatialGrid(2, 4.0, 16)
        assert first == second and first is not second
        vals = np.random.default_rng(7).normal(size=first.shape)
        write_field_csv(ScalarField(first, vals), tmp_path / "a.csv")
        write_field_csv(ScalarField(second, vals), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_row_prefixes_are_immutable(self):
        grid = SpatialGrid(2, 4.0, 8)
        prefixes = grid._row_prefixes()
        assert isinstance(prefixes, tuple)
        assert prefixes[:2] == ("0,-4.0,-4.0,", "1,-4.0,-3.0,")
        assert grid._row_prefixes() is prefixes
        with pytest.raises(TypeError):
            prefixes[0] = "0,0.0,0.0,"
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid._prefixes = ()
        # the cache is not part of the grid's value
        assert grid == SpatialGrid(2, 4.0, 8)
        assert hash(grid) == hash(SpatialGrid(2, 4.0, 8))

    def test_round_trip_of_pinned_text(self, tmp_path):
        grid = SpatialGrid(2, 4.0, 8)
        vals = np.arange(64.0).reshape(8, 8) / 7.0
        vals[0, 0] = X17
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField(grid, vals), target)
        back = read_field_csv(target)
        assert back.grid == grid
        assert np.array_equal(back.values, vals)

    def test_rows_out_of_order_rejected(self, tmp_path):
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField.zeros(SpatialGrid(1, 4.0, 8)), target)
        lines = text(target).splitlines(keepends=True)
        lines[3], lines[4] = lines[4], lines[3]
        target.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(FieldValidationError, match="rows out of order at 1"):
            read_field_csv(target)

    def test_missing_rows_rejected(self, tmp_path):
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField.zeros(SpatialGrid(1, 4.0, 8)), target)
        lines = text(target).splitlines(keepends=True)
        target.write_text("".join(lines[:-1]), encoding="utf-8")
        with pytest.raises(FieldValidationError, match="expected 8 rows, got 7"):
            read_field_csv(target)

    @pytest.mark.parametrize("row, col, cell, named", [
        (3, 0, "x", "row 3: index 'x' is not an integer"),
        (3, 0, "3.0", "row 3: index '3.0' is not an integer"),
        (5, -1, "abc", "row 5: value 'abc' is not a number"),
        (6, -1, "nan", "row 6: value nan is not finite"),
        (7, -1, "-inf", "row 7: value -inf is not finite"),
    ])
    def test_malformed_cell_rejected(self, tmp_path, row, col, cell, named):
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField.zeros(SpatialGrid(1, 4.0, 8)), target)
        lines = text(target).splitlines(keepends=True)
        cells = lines[2 + row].rstrip("\n").split(",")
        cells[col] = cell
        lines[2 + row] = ",".join(cells) + "\n"
        target.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(FieldValidationError) as exc:
            read_field_csv(target)
        assert str(exc.value) == f"{target}: {named}"

    def test_reader_streams_rows(self, tmp_path):
        # a 128^2 field is 16,384 rows; holding each row as a list of
        # strings would take several MB
        grid = SpatialGrid(2, 4.0, 128)
        f = ScalarField(grid, np.random.default_rng(3).normal(size=grid.shape))
        target = tmp_path / "f.csv"
        write_field_csv(f, target)
        tracemalloc.start()
        try:
            back = read_field_csv(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, f.values)
        assert peak <= 1_000_000

    def test_missing_grid_header_rejected(self, tmp_path):
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField.zeros(SpatialGrid(1, 4.0, 8)), target)
        target.write_text("".join(text(target).splitlines(keepends=True)[1:]),
                          encoding="utf-8")
        with pytest.raises(FieldValidationError, match="missing grid header"):
            read_field_csv(target)

    @pytest.mark.parametrize("header, named", [
        ("# grid d=1 L=4.0", "bad grid header: 'N'"),
        ("# grid d=1 L=4.0 N=x", "bad grid header: invalid literal for int()"),
        ("# grid d=1 L=4.0 N=4", "bad grid header: need at least 8 points per axis"),
    ], ids=["no-N", "N-not-integer", "N-too-small"])
    def test_bad_grid_header_rejected(self, tmp_path, header, named):
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField.zeros(SpatialGrid(1, 4.0, 8)), target)
        lines = text(target).splitlines(keepends=True)
        target.write_text("".join([header + "\n"] + lines[1:]), encoding="utf-8")
        with pytest.raises(FieldValidationError, match="^" + re.escape(f"{target}: {named}")):
            read_field_csv(target)


class TestPathText:
    def test_brownian_1d(self, tmp_path):
        path = SamplePath(np.array([[0.0], [X17], [-1.25]]), 1.0, "brownian", seed=7)
        target = tmp_path / "p.csv"
        write_path_csv(path, target)
        assert text(target) == (
            "# path kind=brownian seed=7\nk,t,W1\n"
            f"0,0.0,0.0\n1,0.5,{X17_TEXT}\n2,1.0,-1.25\n"
        )

    def test_bv_2d_without_seed(self, tmp_path):
        path = SamplePath(np.array([[0.0, 0.0], [0.25, -3.0]]), X17, "piecewise_linear_bv")
        target = tmp_path / "p.csv"
        write_path_csv(path, target)
        assert text(target) == (
            "# path kind=piecewise_linear_bv seed=none\nk,t,W1,W2\n"
            f"0,0.0,0.0,0.0\n1,{X17_TEXT},0.25,-3.0\n"
        )

    def test_missing_comment_line_reads_as_brownian(self, tmp_path):
        target = tmp_path / "p.csv"
        target.write_text(f"k,t,W1\n0,0.0,0.0\n1,0.5,{X17_TEXT}\n\n",
                          encoding="utf-8")
        back = read_path_csv(target)
        assert back.kind == "brownian"
        assert back.seed is None
        assert back.times.tolist() == [0.0, 0.5]
        assert back.values.tolist() == [[0.0], [X17]]


def test_weak_report_text(tmp_path):
    series = WeakResidualSeries(
        phi_index=3,
        times=np.array([0.0, 0.5]),
        residuals=np.array([0.0, X17]),
        term_initial=np.array([0.0, -1.0]),
        term_drift=np.array([0.0, 0.25]),
        term_div=np.array([0.0, 0.0]),
        term_stoch=np.array([0.0, -2.5]),
        normalizer=X17,
    )
    target = tmp_path / "weak.csv"
    write_weak_report_csv(WeakResidualReport((series,)), target)
    assert text(target) == (
        "phi_index,t,residual,term_initial,term_drift,term_div,term_stoch,normalizer\n"
        f"3,0.0,0.0,0.0,0.0,0.0,0.0,{X17_TEXT}\n"
        f"3,0.5,{X17_TEXT},-1.0,0.25,0.0,-2.5,{X17_TEXT}\n"
    )


def test_hypotheses_text(tmp_path):
    report = HypothesisReport(
        drift_id="power1d", div_bound=X17, div_ok=False, lq_evidence=1.5, lq_loc_ok=True,
        w1q_evidence=0.0, w1q_loc_ok=True, growth_evidence=12.0, growth_ok=True,
        rel_changes={}, divergence_is_exact=True,
    )
    target = tmp_path / "hyp.csv"
    write_hypothesis_csv(report, target)
    assert text(target) == (
        "check,ok,evidence,threshold\n"
        f"div_bound,false,{X17_TEXT},1000000000000.0\n"
        "lq_loc,true,1.5,1000000000000.0\n"
        "w1q_loc,true,0.0,1000000000000.0\n"
        "growth,true,12.0,1000000000000.0\n"
    )


def test_manifest_text(tmp_path):
    rows = [
        {"seed": 3, "scheme": "semi_lagrangian", "N": 64, "dt": X17, "p": 1.0,
         "drift_id": "zero", "path_kind": "brownian", "n_level": "",
         "config_hash": "0123456789abcdef", "tolerance_version": "1"},
        {"seed": 4, "scheme": "upwind_fv", "N": 8, "dt": 0.015625, "p": 2.0,
         "drift_id": "linear", "path_kind": "piecewise_linear_bv", "n_level": 16,
         "config_hash": "fedcba9876543210", "tolerance_version": "1"},
    ]
    target = tmp_path / "manifest.csv"
    _write_manifest(rows, target)
    assert text(target) == (
        "seed,scheme,N,dt,p,drift_id,path_kind,n_level,config_hash,tolerance_version\n"
        f"3,semi_lagrangian,64,{X17_TEXT},1.0,zero,brownian,,0123456789abcdef,1\n"
        "4,upwind_fv,8,0.015625,2.0,linear,piecewise_linear_bv,16,fedcba9876543210,1\n"
    )


def test_norms_text(tmp_path):
    # zero initial data keeps every norm exactly 0.0; T = 0.3 puts
    # 17-digit snapshot times on the uniform mesh
    cfg = ExperimentConfig.from_dict({
        "d": 1, "L": 4.0, "N": 64, "T": 0.3, "dt": 0.3 / 16,
        "scheme": "semi_lagrangian", "p": 1.0, "seed": 3, "drift": {"id": "zero"},
        "u0": {"id": "bump", "center": 0.0, "radius": 1.0, "amplitude": 0.0},
    })
    cmd_solve(cfg, out_dir=tmp_path / "run")
    times = ["0.0", "0.01875", "0.0375", "0.056249999999999994", "0.075",
             "0.09375", "0.11249999999999999", "0.13125", "0.15",
             "0.16874999999999998", "0.1875", "0.20625", "0.22499999999999998",
             "0.24375", "0.2625", "0.28125", "0.3"]
    want = "m,t,lp_norm\n" + "".join(f"{m},{t},0.0\n" for m, t in enumerate(times))
    assert text(tmp_path / "run" / "norms.csv") == want


def test_convergence_table_text(tmp_path):
    # 4 * X17 is exact, so the first order is exactly 2.0
    table = ConvergenceTable((4, 8, 16, 32), (4.0 * X17, X17, 0.0, 0.0))
    target = tmp_path / "table.csv"
    table.to_csv(target)
    assert text(target) == (
        "level,error,empirical_order\n"
        "4,1.2000000000000002,\n"
        f"8,{X17_TEXT},2.0\n"
        "16,0.0,exact\n"
        "32,0.0,\n"
    )


def test_manifest_round_trip(tmp_path):
    from stochtransport.experiments import _read_manifest

    rows = [{"seed": 3, "scheme": "semi_lagrangian", "N": 64, "dt": X17, "p": 1.0,
             "drift_id": "zero", "path_kind": "brownian", "n_level": "",
             "config_hash": "0123456789abcdef", "tolerance_version": "1"}]
    target = tmp_path / "manifest.csv"
    _write_manifest(rows, target)
    back = _read_manifest(target)
    assert back == [{k: str(v) for k, v in rows[0].items()}]
    assert float(back[0]["dt"]) == X17
