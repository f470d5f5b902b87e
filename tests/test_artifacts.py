"""Exact text of every CSV artifact kind, pinned on tiny hand-built inputs.

Each writer is fed a small input whose expected file is spelled out in
full: comment header, column line, one line per row, floats as their
shortest round-trip text. Every kind includes a float that needs 17
significant digits (0.1 + 0.2 = 0.30000000000000004), so a writer that
rounds or reformats floats changes the bytes and fails here.
"""

import ast
import dataclasses
import os
import re
import tracemalloc

import numpy as np
import pytest

import stochtransport
from stochtransport import artifacts as artifacts_module
from stochtransport.artifacts import (_read_field, _read_manifest, _row_template, _write_field,
                                      read_field_csv, read_path_csv, write_field_csv,
                                      write_manifest, write_path_csv)
from stochtransport.drifts import HypothesisReport, write_hypothesis_csv
from stochtransport.errors import FieldValidationError
from stochtransport.experiments import ExperimentConfig, _write_ladder, cmd_solve
from stochtransport.fields import ScalarField, SpatialGrid
from stochtransport.paths import SamplePath, sample_brownian
from stochtransport.profiles import bump, sample_profile
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
        # on one grid, each write building the grid's row template afresh
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

    def test_row_template_is_immutable(self):
        grid = SpatialGrid(2, 4.0, 8)
        cache = _row_template(grid)
        template, offsets = cache
        assert isinstance(cache, tuple) and isinstance(offsets, tuple)
        assert template.startswith("0,-4.0,-4.0,%s\n1,-4.0,-3.0,%s\n")
        assert offsets == (0, len(template)) and template.count("%s\n") == 64
        # built afresh by each call, and kept by nothing: not by the grid
        assert _row_template(grid) == cache and "_template" not in vars(grid)
        with pytest.raises(TypeError):
            cache[0] = "0,0.0,0.0,%s\n"
        with pytest.raises(TypeError):
            offsets[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid._template = ()
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

    def test_reader_with_its_grid_streams_chunks(self, tmp_path):
        # the template path holds one chunk of 1,024 rows at a time, and the
        # grid's template is built before the trace, as a run reader does
        grid = SpatialGrid(2, 4.0, 128)
        f = ScalarField(grid, np.random.default_rng(3).normal(size=grid.shape))
        target = tmp_path / "f.csv"
        write_field_csv(f, target)
        template = _row_template(grid)
        tracemalloc.start()
        try:
            back = _read_field(target, grid, template)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, f.values)
        assert peak <= 1_000_000

    def test_warm_writer_peak(self, tmp_path):
        # one body string and the values as Python floats; joining one
        # string per row took 2.7 MB. The template is built before the
        # trace, as a run writer does
        grid = SpatialGrid(2, 4.0, 128)
        f = ScalarField(grid, np.random.default_rng(3).normal(size=grid.shape))
        write_field_csv(f, tmp_path / "cold.csv")
        template = _row_template(grid)
        tracemalloc.start()
        try:
            _write_field(f, tmp_path / "warm.csv", template)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        assert peak <= 1_500_000

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


    @pytest.mark.parametrize("edit, named", [
        (lambda rows: rows.__setitem__(3, "3,99.0,0.0"), "row 3: x1 '99.0' is not the grid's '-1.0'"),
        (lambda rows: rows.__setitem__(3, "3,-1.0,0.0,junk,7"),
         "row 3: cell 'junk' follows the value cell"),
        (lambda rows: rows.__setitem__(3, "3,0.0"), "row 3: 2 cells, expected 3: index,x1,value"),
        (lambda rows: rows.__setitem__(3, "03,-1.0,0.0"), "row 3: index '03' is not the grid's '3'"),
        (lambda rows: rows.__setitem__(3, "3,-1.00,0.0"), "row 3: x1 '-1.00' is not the grid's '-1.0'"),
        (lambda rows: rows.__setitem__(3, "3,-1.0,"), "row 3: value '' is not a number"),
        (lambda rows: rows.append(""), "expected 8 rows, got 9"),
    ], ids=["wrong-coordinate", "extra-cells", "missing-cell", "index-text", "coordinate-text",
            "empty-value", "extra-row"])
    def test_every_cell_of_a_row_is_checked(self, tmp_path, edit, named):
        target = tmp_path / "f.csv"
        write_field_csv(ScalarField.zeros(SpatialGrid(1, 4.0, 8)), target)
        head, columns, *rows = text(target).splitlines()
        edit(rows)
        target.write_text("\n".join([head, columns] + rows) + "\n", encoding="utf-8")
        for grid in (None, SpatialGrid(1, 4.0, 8)):
            with pytest.raises(FieldValidationError) as exc:
                read_field_csv(target, grid)
            assert str(exc.value) == f"{target}: {named}"

    def test_header_and_columns_must_match(self, tmp_path):
        target = tmp_path / "f.csv"
        vals = np.arange(8.0)
        write_field_csv(ScalarField(SpatialGrid(1, 4.0, 8), vals), target)
        assert np.array_equal(read_field_csv(target, SpatialGrid(1, 4.0, 8)).values, vals)
        with pytest.raises(FieldValidationError, match="the header states .* expected"):
            read_field_csv(target, SpatialGrid(1, 2.0, 8))
        head, _, *rows = text(target).splitlines()
        target.write_text("\n".join([head, "index,x,value"] + rows) + "\n", encoding="utf-8")
        with pytest.raises(FieldValidationError, match="columns 'index,x,value', expected "
                                                       "'index,x1,value'"):
            read_field_csv(target)


def _outcome(read):
    """What a read returns, as comparable data: the grid and the value
    bits, or the type and text of the error it raised."""
    try:
        f = read()
    except (FieldValidationError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    return f.grid, f.values.tobytes()


def _edited(lines, edit, row):
    """A snapshot's lines (header and column lines first) with ``edit``
    applied at snapshot row ``row``."""
    i = 2 + row
    if edit == "missing-row":
        return lines[:i] + lines[i + 1:]
    if edit == "extra-row":
        return lines[:i + 1] + [lines[i]] + lines[i + 1:]
    if edit == "swapped-pair":
        j = i if i + 1 < len(lines) else i - 1
        return lines[:j] + [lines[j + 1], lines[j]] + lines[j + 2:]
    if edit == "wrong-coordinate":
        cells = lines[i].split(",")
        cells[1] = "99.0"
        return lines[:i] + [",".join(cells)] + lines[i + 1:]
    head = lines[i].rpartition(",")[0]  # edit is the text of the value cell
    return lines[:i] + [f"{head},{edit}"] + lines[i + 1:]


#: Whole-file edits of a snapshot's text.
_FILE_EDITS = {
    "no-final-newline": lambda body: body[:-1],
    "crlf": lambda body: body.replace("\n", "\r\n"),
    "trailing-blank-line": lambda body: body + "\n",
}


class TestFieldCsv:
    @pytest.fixture
    def bump512(self):
        return sample_profile(SpatialGrid(d=1, half_width=4.0, n=512),
                              bump(1, center=0.0, radius=1.0))

    def test_round_trip_is_bit_exact(self, tmp_path, bump512):
        target = tmp_path / "field.csv"
        write_field_csv(bump512, target)
        back = read_field_csv(target)
        assert np.array_equal(back.values, bump512.values)
        assert back.grid == bump512.grid

    def test_header_row_names_all_columns(self, tmp_path, bump512):
        target = tmp_path / "field.csv"
        write_field_csv(bump512, target)
        lines = [l for l in target.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "index,x1,value"


class TestTemplateReader:
    """A read with the snapshot's grid checks 1,024-row chunks against the
    grid's row template and takes the row-by-row rule for a chunk that
    differs; a read without a grid takes that rule for every row. Each
    file below must read the same way all three ways: the same values bit
    for bit, or the same error."""

    #: (d, N) of the snapshots: one short chunk, a partial last chunk, 16 chunks.
    GRIDS = {"1d-8": (1, 8), "1d-2500": (1, 2500), "2d-128": (2, 128)}

    @staticmethod
    def _write(tmp_path, key):
        d, n = TestTemplateReader.GRIDS[key]
        grid = SpatialGrid(d, 4.0, n)
        vals = np.random.default_rng(11).normal(size=grid.shape) * 3.0
        vals.ravel()[:4] = [-0.0, 5e-324, 1e22, X17]
        target = tmp_path / f"{key}.csv"
        write_field_csv(ScalarField(grid, vals), target)
        return grid, vals, target

    @staticmethod
    def _three_reads(monkeypatch, target, grid):
        template = _outcome(lambda: read_field_csv(target, grid))
        without = _outcome(lambda: read_field_csv(target))
        with monkeypatch.context() as patch:
            patch.setattr(artifacts_module, "_template_values", lambda part, rows, n: None)
            row_rule = _outcome(lambda: read_field_csv(target, grid))
        assert template == row_rule == without
        return template

    @pytest.mark.parametrize("key", sorted(GRIDS))
    def test_valid_file_never_enters_the_row_loop(self, tmp_path, monkeypatch, key):
        grid, vals, target = self._write(tmp_path, key)
        assert self._three_reads(monkeypatch, target, grid) == (grid, vals.tobytes())

        def row_loop(*args):
            raise AssertionError("a valid file entered the row loop")

        monkeypatch.setattr(artifacts_module, "_read_rows", row_loop)
        assert read_field_csv(target, grid).values.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("edit", ["missing-row", "extra-row", "swapped-pair",
                                      "wrong-coordinate"])
    @pytest.mark.parametrize("key, row", [
        ("1d-8", 0), ("1d-8", 7),
        ("1d-2500", 1023), ("1d-2500", 1024), ("1d-2500", 2047), ("1d-2500", 2048),
        ("1d-2500", 2499),
        ("2d-128", 0), ("2d-128", 1023), ("2d-128", 16383),
    ])
    def test_corrupt_row(self, tmp_path, monkeypatch, key, row, edit):
        grid, _, target = self._write(tmp_path, key)
        lines = text(target).split("\n")[:-1]
        target.write_text("\n".join(_edited(lines, edit, row)) + "\n", encoding="utf-8")
        outcome = self._three_reads(monkeypatch, target, grid)
        assert outcome[0] == "FieldValidationError"

    @pytest.mark.parametrize("edit", sorted(_FILE_EDITS))
    @pytest.mark.parametrize("key", sorted(GRIDS))
    def test_whole_file_edit(self, tmp_path, monkeypatch, key, edit):
        grid, vals, target = self._write(tmp_path, key)
        target.write_bytes(_FILE_EDITS[edit](text(target)).encode("utf-8"))
        outcome = self._three_reads(monkeypatch, target, grid)
        if edit == "trailing-blank-line":
            assert outcome == ("FieldValidationError",
                               f"{target}: expected {grid.size} rows, got {grid.size + 1}")
        else:  # universal newlines read both as the written rows
            assert outcome == (grid, vals.tobytes())

    @pytest.mark.parametrize("cell, accepted", [
        ("%", False), ("%s", False), ("1%", False), (" 1.0", True), ("1e999", False),
    ])
    @pytest.mark.parametrize("key, row", [("1d-8", 5), ("1d-2500", 2047), ("2d-128", 1024)])
    def test_odd_value_cell(self, tmp_path, monkeypatch, key, row, cell, accepted):
        grid, vals, target = self._write(tmp_path, key)
        lines = text(target).split("\n")[:-1]
        target.write_text("\n".join(_edited(lines, cell, row)) + "\n", encoding="utf-8")
        outcome = self._three_reads(monkeypatch, target, grid)
        if accepted:
            vals.ravel()[row] = float(cell)
            assert outcome == (grid, vals.tobytes())
        elif cell == "1e999":
            assert outcome == ("FieldValidationError",
                               f"{target}: row {row}: value inf is not finite")
        else:
            assert outcome == ("FieldValidationError",
                               f"{target}: row {row}: value {cell!r} is not a number")

    @pytest.mark.parametrize("fault_row", [None, 1030])
    def test_undecodable_text_after_a_fault(self, tmp_path, monkeypatch, fault_row):
        # the chunk holding row 1500 stops at its undecodable byte; a fault in
        # an earlier row of that chunk is still the error, as row by row
        grid, _, target = self._write(tmp_path, "1d-2500")
        lines = text(target).split("\n")[:-1]
        if fault_row is not None:
            lines = _edited(lines, "wrong-coordinate", fault_row)
        raw = "\n".join(lines).encode("utf-8") + b"\n"
        at = raw.index(b"\n1500,") + 1
        target.write_bytes(raw[:at] + b"\xff" + raw[at:])
        kind, message = self._three_reads(monkeypatch, target, grid)
        if fault_row is None:
            assert kind == "UnicodeDecodeError"
        else:
            assert (kind, message) == ("FieldValidationError",
                                       f"{target}: row 1030: x1 '99.0' is not the grid's "
                                       f"{repr(grid.axis().tolist()[1030])!r}")


class TestPathCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        p = sample_brownian(77, 1.0, 128, 2)
        target = tmp_path / "path.csv"
        write_path_csv(p, target)
        back = read_path_csv(target)
        assert np.array_equal(back.values, p.values)
        assert np.array_equal(back.times, p.times)
        assert back.kind == p.kind

    def test_header_row_names_all_columns(self, tmp_path):
        p = sample_brownian(77, 1.0, 16, 1)
        target = tmp_path / "path.csv"
        write_path_csv(p, target)
        lines = [l for l in target.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split(",")[0] == "k"


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
    write_manifest(tmp_path, rows)
    assert text(tmp_path / "manifest.csv") == (
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


@pytest.mark.parametrize("errors, want", [
    # 4 * X17 is exact, so the first order is exactly 2.0
    ((4.0 * X17, X17, 0.0, 0.0),
     f"4,1.2000000000000002,\n8,{X17_TEXT},2.0\n16,0.0,exact\n32,0.0,\n"),
    # no order follows a zero error, though a nonzero error follows it
    ((X17, 0.0, X17), f"4,{X17_TEXT},\n8,0.0,exact\n16,{X17_TEXT},\n"),
    ((0.0, 0.0, 0.0), "4,0.0,\n8,0.0,\n16,0.0,\n"),
    # the worst errors of the Wong-Zakai study are an array's np.float64 values
    (np.array([4.0 * X17, X17, 0.0]), f"4,1.2000000000000002,\n8,{X17_TEXT},2.0\n16,0.0,exact\n"),
    # a ratio of errors beyond the float range has a finite order, not "exact"
    ((1.0, 5e-324), "4,1.0,\n8,5e-324,1074.0\n"),
    ((1e300, 1e-300), "4,1e+300,\n8,1e-300,1993.1568569324174\n"),
    ((1e-300, 1e300), "4,1e-300,\n8,1e+300,-1993.1568569324174\n"),
], ids=["zero-tail", "zero-then-nonzero", "all-zero", "np-float64", "overflow-subnormal",
        "overflow", "underflow"])
def test_convergence_table_text(tmp_path, errors, want):
    target = tmp_path / "table.csv"
    _write_ladder(target, (4, 8, 16, 32)[:len(errors)], errors)
    assert text(target) == "level,error,empirical_order\n" + want


def test_manifest_round_trip(tmp_path):
    rows = [{"seed": 3, "scheme": "semi_lagrangian", "N": 64, "dt": X17, "p": 1.0,
             "drift_id": "zero", "path_kind": "brownian", "n_level": "",
             "config_hash": "0123456789abcdef", "tolerance_version": "1"}]
    write_manifest(tmp_path, rows)
    back = _read_manifest(tmp_path)
    assert back == [{k: str(v) for k, v in rows[0].items()}]
    assert float(back[0]["dt"]) == X17


#: The names of the files of a ``solve`` run, which only the run store spells.
RUN_FILE_NAMES = ("u_t", "v_t", "path.csv", "norms.csv", "manifest.csv")

#: What each module of the package may not import, by the layering of the run store.
FORBIDDEN_IMPORTS = {
    "fields": {"artifacts"},
    "paths": {"artifacts"},
    "artifacts": {"drifts", "weakform", "spde", "experiments", "cli"},
}


def _package_modules() -> dict:
    """Each module of the package, by name, as its parsed source."""
    root = os.path.dirname(stochtransport.__file__)
    return {name[:-3]: ast.parse(open(os.path.join(root, name), encoding="utf-8").read())
            for name in sorted(os.listdir(root)) if name.endswith(".py")}


def _imported(tree) -> set:
    """The package modules a module imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("stochtransport").lstrip(".")
            if node.level or node.module and node.module.startswith("stochtransport"):
                found |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("stochtransport.")}
    return found


def _opens_for_writing(node) -> bool:
    """A call that opens a file for writing: ``open`` with a mode that writes,
    appends or creates, or a copy or a save of a file."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    if name == "open":
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
        return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+")
                   for m in modes)
    return name in ("copyfile", "write_text", "write_bytes", "save", "savez", "savetxt",
                    "tofile")


@pytest.mark.parametrize("module", sorted(_package_modules()))
def test_the_run_store_alone_owns_the_run_files(module):
    tree = _package_modules()[module]
    assert not _imported(tree) & FORBIDDEN_IMPORTS.get(module, set())
    if module == "artifacts":
        return
    spelled = [(node.lineno, node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and any(name in node.value for name in RUN_FILE_NAMES)]
    assert not spelled, f"{module} spells a run file name: {spelled}"
    writes = [node.lineno for node in ast.walk(tree) if _opens_for_writing(node)]
    assert not writes, f"{module} opens a file for writing at lines {writes}"


def test_the_layering_check_sees_a_violation():
    # the checks above read these sources as they would read a module at fault
    tree = ast.parse("from .artifacts import write_csv\nimport stochtransport.spde\n"
                     "open(target, 'w')\nopen(target, mode='ab')\nopen(target)\n"
                     "shutil.copyfile(a, b)\nname = f'u_t{m:04d}.csv'\n")
    assert _imported(tree) == {"artifacts", "spde"}
    assert [n.lineno for n in ast.walk(tree) if _opens_for_writing(n)] == [3, 4, 6]
    assert any(isinstance(n, ast.Constant) and "u_t" in str(n.value) for n in ast.walk(tree))
