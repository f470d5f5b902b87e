"""The run store, and the CSV format of every artifact.

A file is an optional comment line ``# <tag> key=value ...``, a line of
column names, then one line per row. Cells are joined by commas, every
line ends in ``\\n`` and the text is UTF-8. Cells are written with
``str``: a Python float becomes its shortest round-trip text (its
``repr``), so a value read back with ``float`` is the same float bit for
bit. Callers pass Python scalars (``ndarray.tolist()``).

This module alone opens an artifact for writing. It owns the files of a
``solve`` run (:func:`write_run`, :func:`read_run`) and their text: the
snapshots (:func:`write_field_csv`), the path (:func:`write_path_csv`)
and the manifest. Other reports are rows handed to :func:`write_csv`.
"""

from __future__ import annotations

import contextlib
import glob
import itertools
import os
import shutil

import numpy as np

from .errors import ConfigError, FieldValidationError
from .fields import ScalarField, SpatialGrid
from .paths import SamplePath

__all__ = ["write_csv", "read_csv", "write_field_csv", "read_field_csv", "write_path_csv",
           "read_path_csv", "write_manifest", "write_run", "read_run"]

#: Snapshot rows the reader checks against the grid's row template at once.
_CHUNK_ROWS = 1024

#: The column names of a snapshot of a d-dimensional grid.
_FIELD_COLUMNS = {d: ["index"] + [f"x{a + 1}" for a in range(d)] + ["value"] for d in (1, 2)}

_MANIFEST_COLUMNS = ("seed", "scheme", "N", "dt", "p", "drift_id", "path_kind",
                     "n_level", "config_hash", "tolerance_version")


def write_csv(path, columns, rows, header=None) -> None:
    """Write ``rows`` (tuples of str, int or float) under a column line, after
    ``header``, None or a ``(tag, {key: value})`` pair: ``# tag key=value ...``."""
    row_format = ",".join(["%s"] * len(columns)) + "\n"
    _write_body(path, columns, "".join(row_format % row for row in rows), header)


def _write_body(path, columns, body: str, header=None) -> None:
    """Write an artifact whose rows are already text: ``body`` is every row
    line, each ending in ``\\n``, in file order. ``columns`` and ``header``
    are as in :func:`write_csv`."""
    head = ""
    if header is not None:
        tag, meta = header
        head = " ".join(["#", tag] + [f"{k}={v}" for k, v in meta.items()]) + "\n"
    head += ",".join(columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        fh.write(body)


def read_csv(path):
    """Read an artifact: ``(header, columns, rows)``, with ``header`` the comment
    line's ``(tag, {key: value})`` pair or None, and ``rows`` a list of lists
    of cells, all strings. A header token without ``=`` raises ``ValueError``."""
    with _read_body(path) as (header, columns, rows):
        return header, columns, [row.rstrip("\n").split(",") for row in rows]


@contextlib.contextmanager
def _read_body(path):
    """A context manager that yields ``(header, columns, rows)`` as
    :func:`read_csv` does, with ``rows`` the open file after the column line,
    so each row is read as its line of text, ``\n`` included."""
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline().rstrip("\n")
        header = None
        if line.startswith("#"):
            tag, _, rest = line[1:].strip().partition(" ")
            pairs = [tok.partition("=") for tok in rest.split()]
            for key, eq, _ in pairs:
                if not eq:
                    raise ValueError(f"header token {key!r} is not key=value")
            header = (tag, {key: value for key, _, value in pairs})
            line = fh.readline().rstrip("\n")
        yield header, line.split(",") if line else [], fh


def _row_template(grid: SpatialGrid) -> tuple:
    """The text of every snapshot row of ``grid`` as one ``%`` template, and
    the offset in it of every ``_CHUNK_ROWS``-th row and of its end. Each row
    is ``"i,x1[,x2],"``, each cell its shortest round-trip text, then
    ``"%s\\n"`` for its value. A run builds it once, and nothing keeps it."""
    axis = [f"{x}," for x in grid.axis().tolist()]
    coords = (axis if grid.d == 1
              else itertools.starmap(str.__add__, itertools.product(axis, axis)))
    prefixes = (f"{i},{cells}" for i, cells in enumerate(coords))
    pieces, offsets = [], [0]
    while chunk := list(itertools.islice(prefixes, _CHUNK_ROWS)):
        pieces.append("%s\n".join(chunk) + "%s\n")
        offsets.append(offsets[-1] + len(pieces[-1]))
    return "".join(pieces), tuple(offsets)


def write_field_csv(f: ScalarField, path) -> None:
    """Write a field snapshot: header comment, column names, row-major rows."""
    _write_field(f, path, _row_template(f.grid))


def _write_field(f: ScalarField, path, template: tuple) -> None:
    """The rows are ``template``, of ``f``'s grid, filled in one ``%``."""
    grid = f.grid
    header = ("grid", {"d": grid.d, "L": float(grid.half_width), "N": grid.n})
    body = template[0] % tuple(f.values.ravel().tolist())
    _write_body(path, _FIELD_COLUMNS[grid.d], body, header)


def read_field_csv(path, grid: SpatialGrid | None = None) -> ScalarField:
    """Read a snapshot written by :func:`write_field_csv`, on ``grid`` if given.

    Every row must be the writer's own text for the header's grid, then one
    value cell, a finite number. A chunk of ``_CHUNK_ROWS`` rows that is the
    row template (:func:`_row_template`) filled with its value cells is
    taken whole; one that differs is checked row by row (:func:`_read_rows`),
    which alone names a fault. A missing or malformed grid header, another
    grid, other column names, a row that breaks the rule, or a row count
    other than the grid's raises :class:`FieldValidationError` naming the
    file, and the row and cell.
    """
    return _read_field(path, grid, None)


def _read_field(path, grid: SpatialGrid | None, template: tuple | None) -> ScalarField:
    """:func:`read_field_csv` with ``grid``'s row template, or None: built here."""
    with _read_body(path) as (header, columns, lines):
        if header is None or header[0] != "grid":
            raise FieldValidationError(f"{path}: missing grid header line")
        meta = header[1]
        try:
            stated = SpatialGrid(d=int(meta["d"]), half_width=float(meta["L"]),
                                 n=int(meta["N"]))
        except (KeyError, ValueError, FieldValidationError) as exc:
            raise FieldValidationError(f"{path}: bad grid header: {exc}") from None
        if grid is None:
            grid = stated
        elif stated != grid:
            raise FieldValidationError(f"{path}: the header states {stated}, expected {grid}")
        names = _FIELD_COLUMNS[grid.d]
        if columns != names:
            raise FieldValidationError(
                f"{path}: columns {','.join(columns)!r}, expected {','.join(names)!r}")
        template, offsets = template or _row_template(grid)
        values = np.empty(grid.size)
        n_rows = 0
        for k, start in enumerate(range(0, grid.size, _CHUNK_ROWS)):
            n = min(_CHUNK_ROWS, grid.size - start)
            part = template[offsets[k]:offsets[k + 1]]
            rows, undecodable = [], None
            try:
                rows += itertools.islice(lines, n)
            except UnicodeDecodeError as exc:  # raised after the rows before it are checked
                undecodable = exc
            chunk = _template_values(part, rows, n)
            if chunk is None:
                chunk = _read_rows(path, rows, part.split("%s\n"), start, names)
            if undecodable is not None:
                raise undecodable
            values[start:start + len(chunk)] = chunk
            n_rows += len(rows)
        n_rows += sum(1 for _ in lines)
    if n_rows != grid.size:
        raise FieldValidationError(f"{path}: expected {grid.size} rows, got {n_rows}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FieldValidationError(
            f"{path}: row {bad[0]}: value {float(values[bad[0]])!r} is not finite")
    return ScalarField(grid, values.reshape(grid.shape))


def _template_values(part: str, rows: list, n: int):
    """The value cells of ``rows`` as floats, when they are all ``n`` rows of
    a chunk and their text is ``part``, a slice of a row template, filled
    with those cells; else None.

    Each cell is the text after its row's last comma, with the row's
    ``\\n``, which ``float`` ignores. Equal text makes every row its
    template prefix and one value cell: the rule of :func:`_read_rows`.
    """
    if len(rows) != n:
        return None
    cells = tuple([row.rpartition(",")[2] for row in rows])
    if part % cells != "\n".join(rows) + "\n":
        return None
    try:
        return list(map(float, cells))
    except ValueError:
        return None


def _read_rows(path, rows: list, prefixes, start: int, names: list) -> list:
    """The value of each of ``rows`` as a float, row ``start + k`` checked
    against the k-th of ``prefixes``: the row, without its ``\\n``, must be
    that prefix and one value cell, a number. The first row that is not
    raises :class:`FieldValidationError`. Takes one prefix per row."""
    vals = []
    for count, (line, prefix) in enumerate(zip(rows, prefixes), start):
        line = line.rstrip("\n")
        # The row is its prefix and one cell exactly when its last comma ends the prefix.
        head, _, cell = line.rpartition(",")
        if len(head) + 1 != len(prefix) or not line.startswith(prefix):
            raise FieldValidationError(f"{path}: {_row_fault(line, prefix, count, names)}")
        try:
            vals.append(float(cell))
        except ValueError:
            raise FieldValidationError(
                f"{path}: row {count}: value {cell!r} is not a number") from None
    return vals


def _row_fault(line: str, prefix: str, count: int, names: list) -> str:
    """Why snapshot row ``count`` is not ``prefix`` plus one value cell, naming
    the first cell at fault. A row of as many cells as ``names`` and the
    right index is such a row only when a cell before its value differs."""
    cells = line.split(",")
    try:
        index = int(cells[0])
    except ValueError:
        return f"row {count}: index {cells[0]!r} is not an integer"
    if index != count:
        return f"rows out of order at {count}"
    if len(cells) > len(names):
        return f"row {count}: cell {cells[len(names)]!r} follows the value cell"
    if len(cells) < len(names):
        return f"row {count}: {len(cells)} cells, expected {len(names)}: {','.join(names)}"
    for name, cell, written in zip(names, cells, prefix.split(",")):
        if cell != written:
            return f"row {count}: {name} {cell!r} is not the grid's {written!r}"


def write_path_csv(path: SamplePath, file) -> None:
    """Write knots as rows ``k,t,W1[,W2]`` after a kind/seed header comment."""
    columns = ["k", "t"] + [f"W{a + 1}" for a in range(path.d)]
    rows = zip(range(path.times.size), path.times.tolist(), *path.values.T.tolist())
    seed = "none" if path.seed is None else path.seed
    write_csv(file, columns, rows, ("path", {"kind": path.kind, "seed": seed}))


def read_path_csv(file) -> SamplePath:
    """Read a path written by :func:`write_path_csv`.

    A file without the header comment reads as a Brownian path with no seed.
    A file that cannot be read, a header that does not parse, a seed that
    is not an integer, a row whose cell count differs from the column
    line's, a ``k`` cell that is not the row's integer position, a ``t``
    or ``W`` cell that is not a number, values that make no path, or a
    ``t`` column other than the uniform mesh ``linspace(0, t_K, K + 1)``,
    bit for bit, raises ``ConfigError`` naming the file (and the row).
    The writer prints ``t`` by ``repr``, so every file it writes reads back.
    """
    try:
        header, columns, rows = read_csv(file)
        rows = [row for row in rows if row[0] != ""]
    except (OSError, ValueError) as exc:  # no such file, a malformed header token, not UTF-8
        raise ConfigError(f"{file}: {exc}") from None
    meta = {} if header is None else header[1]
    seed = meta.get("seed", "none")
    try:
        seed = None if seed == "none" else int(seed)
    except ValueError:
        raise ConfigError(f"{file}: seed {seed!r} is not an integer") from None
    times, values = [], []
    for count, row in enumerate(rows):
        if len(row) != len(columns):
            raise ConfigError(
                f"{file}: row {count}: {len(row)} cells for {len(columns)} columns")
        try:
            k = int(row[0])
            t, *w = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise ConfigError(f"{file}: row {count}: {exc}") from None
        if k != count:
            raise ConfigError(f"{file}: row {count}: k={k} is not the row's position")
        times.append(t)
        values.append(w)
    try:
        path = SamplePath(values, times[-1] if times else 0.0, meta.get("kind", "brownian"), seed)
    except ConfigError as exc:
        raise ConfigError(f"{file}: {exc}") from None
    off = np.flatnonzero(np.asarray(times) != path.times)
    if off.size:
        raise ConfigError(f"{file}: row {off[0]}: t={times[off[0]]!r} is off the uniform mesh "
                          f"linspace(0, {path.horizon!r}, {path.n_steps + 1})")
    return path


def write_manifest(out_dir, rows) -> None:
    """Write ``manifest.csv`` under ``out_dir``: one dict of cells per solve."""
    write_csv(os.path.join(out_dir, "manifest.csv"), _MANIFEST_COLUMNS,
              [tuple(row[c] for c in _MANIFEST_COLUMNS) for row in rows])


def _read_manifest(out_dir) -> list:
    """Rows of the manifest under ``out_dir`` as dicts of strings, keyed by column."""
    _, columns, rows = read_csv(os.path.join(out_dir, "manifest.csv"))
    return [dict(zip(columns, row)) for row in rows]


def write_run(out_dir, sol, norms, manifest_row: dict) -> None:
    """Write the files of the ``solve`` run ``sol`` (``spde.SpdeSolution``)
    under ``out_dir``, in order: ``u_t%04d.csv`` then ``v_t%04d.csv`` for
    each snapshot m, ``path.csv``, ``norms.csv`` (m, t and ``norms[m]``, the
    L^p norm of u) and ``manifest.csv`` (the row ``manifest_row``)."""
    template = _row_template(sol.grid)
    for m, (u, v) in enumerate(zip(sol.fields, sol.aux_fields)):
        u_file, v_file = (os.path.join(out_dir, f"{x}_t{m:04d}.csv") for x in "uv")
        _write_field(u, u_file, template)
        # u = v at t = 0, where W(0) = 0: the same bytes make the same text
        if u.values.tobytes() == v.values.tobytes():
            shutil.copyfile(u_file, v_file)
        else:
            _write_field(v, v_file, template)
    write_path_csv(sol.path, os.path.join(out_dir, "path.csv"))
    write_csv(os.path.join(out_dir, "norms.csv"), ("m", "t", "lp_norm"),
              [(m, t, norm) for m, (t, norm) in enumerate(zip(sol.times.tolist(), norms))])
    write_manifest(out_dir, [manifest_row])


def read_run(out_dir, grid: SpatialGrid, n_snapshots: int, stamp: tuple, check_path):
    """The u snapshots and the path of a :func:`write_run` run, ``(fields, path)``.

    ``out_dir`` must hold exactly ``n_snapshots`` snapshots, a manifest whose
    every row carries ``stamp``, ``(config_hash, tolerance_version)``, and
    a path, which ``check_path`` returns or refuses before any snapshot is
    read on ``grid``. Anything else is a ``ConfigError``.
    """
    names = [f"u_t{m:04d}.csv" for m in range(n_snapshots)]
    found = {os.path.basename(f) for f in glob.glob(os.path.join(out_dir, "u_t*.csv"))}
    if not found:
        raise ConfigError(f"no run artifacts under {out_dir} "
                          f"(expected {names[0]} to {names[-1]})")
    missing = [name for name in names if name not in found]
    extra = sorted(found - set(names))
    if missing or extra:
        raise ConfigError(
            f"{'missing' if missing else 'unexpected'} snapshot files under {out_dir}: "
            f"{', '.join(missing or extra)}; solve writes exactly {names[0]} to {names[-1]}")
    if not os.path.isfile(os.path.join(out_dir, "manifest.csv")):
        raise ConfigError(f"no manifest.csv under {out_dir}; cannot match the artifacts "
                          f"to config_hash={stamp[0]}")
    for row in _read_manifest(out_dir) or [{}]:
        written = (row.get("config_hash"), row.get("tolerance_version"))
        if written != stamp:
            raise ConfigError(
                f"artifacts under {out_dir} were written with config_hash={written[0]} "
                f"tolerance_version={written[1]}; this config has "
                f"config_hash={stamp[0]} tolerance_version={stamp[1]}")
    path_file = os.path.join(out_dir, "path.csv")
    if not os.path.isfile(path_file):
        raise ConfigError(f"no path.csv under {out_dir}; solve writes it with the snapshots")
    path = check_path(read_path_csv(path_file))
    template = _row_template(grid)
    fields = []
    for name in names:
        try:
            fields.append(_read_field(os.path.join(out_dir, name), grid, template))
        except (FieldValidationError, OSError, ValueError) as exc:
            raise ConfigError(f"unreadable snapshot {name}: {exc}") from None
    return tuple(fields), path
