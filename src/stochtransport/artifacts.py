"""The CSV format of every artifact: one writer and one reader.

A file is an optional comment line ``# <tag> key=value ...``, a line of
column names, then one line per row. Cells are joined by commas, every
line ends in ``\\n`` and the text is UTF-8. Cells are written with
``str``: a Python float becomes its shortest round-trip text (its
``repr``), so a value read back with ``float`` is the same float bit for
bit. Callers pass Python scalars (``ndarray.tolist()``); NumPy scalars
are not part of the format.

:func:`write_body` is the only code that opens an artifact for writing:
it writes the comment and column lines, then a body of rows that are
already text. :func:`write_csv` formats its rows' cells and hands them to
it; a writer that keeps its rows' fixed cells as text from one file to
the next (``fields.SpatialGrid._row_template``) builds its body itself.
:func:`read_csv` splits each row into its cells; :func:`read_body` hands
over the open file, whose lines are the rows, for a reader that checks
their text (``fields.read_field_csv``).
"""

from __future__ import annotations

import contextlib

__all__ = ["write_csv", "write_body", "read_csv", "read_body"]


def write_csv(path, columns, rows, header=None) -> None:
    """Write ``rows`` (tuples of str, int or float) under a column line.

    ``header`` is None or a ``(tag, {key: value})`` pair, written first as
    ``# tag key=value ...``.
    """
    row_format = ",".join(["%s"] * len(columns)) + "\n"
    write_body(path, columns, "".join(row_format % row for row in rows), header)


def write_body(path, columns, body: str, header=None) -> None:
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
    """Read a file in the artifact format: ``(header, columns, rows)``.

    ``header`` is the ``(tag, {key: value})`` pair of the comment line, or
    None when the file starts with its column line. ``rows`` is the list
    of rows, each a list of cells. Every cell, header values included, is
    a string. A header token without ``=`` raises ``ValueError``.
    """
    with read_body(path) as (header, columns, rows):
        return header, columns, [row.rstrip("\n").split(",") for row in rows]


@contextlib.contextmanager
def read_body(path):
    """The reader of :func:`write_body`: a context manager that yields
    ``(header, columns, rows)`` as :func:`read_csv` does, with ``rows`` the
    open file after the column line, so each row is read as its line of
    text, ``\n`` included. The file closes when the block ends."""
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
