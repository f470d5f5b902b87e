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
it; a writer that keeps some cells as text from one file to the next
(``fields.write_field_csv``) builds its body itself.
"""

from __future__ import annotations

__all__ = ["write_csv", "write_body", "read_csv"]


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
    None when the file starts with its column line. ``rows`` is an
    iterator that reads one row at a time, as a list of cells, and
    closes the file when exhausted or discarded. Every cell, header
    values included, is a string. A header token without ``=`` raises
    ``ValueError``.
    """
    lines = _lines(path)
    line = next(lines, "")
    header = None
    if line.startswith("#"):
        tag, _, rest = line[1:].strip().partition(" ")
        pairs = [tok.partition("=") for tok in rest.split()]
        for key, eq, _ in pairs:
            if not eq:
                raise ValueError(f"header token {key!r} is not key=value")
        header = (tag, {key: value for key, _, value in pairs})
        line = next(lines, "")
    columns = line.split(",") if line else []
    return header, columns, (row.split(",") for row in lines)


def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\n")
