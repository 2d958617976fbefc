"""CSV and JSON artifacts: the one place discwave spells them on disk.

Spelling rule, for every file the package writes:
- a float is written as repr(float), the shortest string that reads back to
  the same float, so every artifact round-trips bit for bit; an int is
  written with str and a str as it is;
- CSV cells are joined by "," and every line, the last included, ends in "\\n";
- JSON is json.dumps(indent=2) followed by "\\n", with numpy scalars and
  arrays converted to plain numbers and lists;
- NaN and infinities are rejected: JSON writing raises NumericalError and
  CSV reading raises DataError.

Reading a CSV is one C-level parse of its body (numpy.loadtxt). The
row-by-row csv reader runs only on inputs that parse declines: quoted cells,
ragged, whitespace-only or comma-only rows, numbers that only float() reads
(such as 1_000), labels that fail their checks, and so on. The row reader
defines what is accepted and words every DataError, so both are unchanged.
"""

from __future__ import annotations

import csv
import itertools
import json

import numpy as np

from .core import DataError, NumericalError


def _cell(value) -> str:
    if type(value) is float:  # the common case, checked first for speed
        return repr(value)
    if isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write `header` (a list of names, or None for no header) and `rows`.

    Rows are formatted and written one at a time, so a generator of rows
    never has the whole file in memory.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def write_json(path, payload) -> None:
    """Write `payload` as indented JSON; nothing is written if it is rejected."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise NumericalError("non-finite value in JSON payload") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# numpy's number parser strips these ASCII separators as whitespace, float()
# rejects them; a line holding one is left to the row reader.
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")
_LABEL_BOUND = 2.0 ** 53  # |label| < 2**53: a float64 holds each such integer exactly


def read_csv(path, header: bool = True, labeled: bool = True):
    """Read a numeric CSV: (column names or None, float matrix, int ids or None).

    Blank rows are skipped. With `labeled`, the last column holds integer
    class ids and is left out of the names and the matrix. The matrix is a
    C-contiguous float64 array and the ids are int64. The body is parsed once
    in C; the row reader runs only on inputs that parse declines, so what is
    accepted and every message are those of the row reader. Raises DataError
    with 1-based row/column diagnostics (rows counted from the header) on an
    empty file, a header without data, a missing label column, ragged rows,
    non-numeric cells or labels, labels that are not integers of magnitude
    below 2**53 and non-finite values.
    """
    try:
        parsed = _read_c(path, header, labeled)
    except ValueError:
        parsed = None
    return _read_rows(path, header, labeled) if parsed is None else parsed


def _c_lines(fh):
    """Lines of `fh` for numpy.loadtxt; ValueError where the row reader must run."""
    content = False
    for line in fh:
        if any(c in line for c in _SEPARATORS):
            raise ValueError("ASCII separator in line")
        content = content or line != "\n"
        yield line
    if not content:
        raise ValueError("no data rows")


def _read_c(path, header, labeled):
    """read_csv through one numpy.loadtxt parse, or None where it declines."""
    with open(path, "r", encoding="utf-8") as fh:
        names = next(csv.reader([fh.readline()]), []) if header else None
        if header and not any(c.strip() for c in names):
            return None
        data = np.loadtxt(
            _c_lines(fh), delimiter=",", comments=None, ndmin=2, dtype=float
        )
    if (labeled and data.shape[1] < 2) or not np.isfinite(data).all():
        return None
    if not labeled:
        return names, data, None
    labels = data[:, -1]
    if not np.all((labels == np.trunc(labels)) & (np.abs(labels) < _LABEL_BOUND)):
        return None
    matrix = np.ascontiguousarray(data[:, :-1])
    return None if names is None else names[:-1], matrix, labels.astype(np.int64)


def _read_rows(path, header, labeled):
    """read_csv one csv.reader row at a time: the reference, and every DataError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = (row for row in csv.reader(fh) if any(c.strip() for c in row))
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        names = None
        if header:
            names = first
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: header only, no data rows")
        width = len(first)
        if labeled and width < 2:
            raise DataError(f"{path}: expected sample columns plus a label column")
        matrix, ids = [], []
        for r, cells in enumerate(itertools.chain([first], rows), start=2 if header else 1):
            if len(cells) != width:
                raise DataError(f"{path}: row {r} has {len(cells)} cells, expected {width}")
            try:
                values = list(map(float, cells))
            except ValueError:
                for c, cell in enumerate(cells, start=1):
                    try:
                        float(cell)
                    except ValueError as exc:
                        what = "label " if labeled and c == width else ""
                        raise DataError(
                            f"{path}: row {r}, column {c}: {what}{cell!r} is not numeric"
                        ) from exc
            if labeled:
                label = values.pop()
                if not label.is_integer():
                    raise DataError(
                        f"{path}: row {r}, column {width}: label {cells[-1]!r} is not an integer"
                    )
                if not abs(label) < _LABEL_BOUND:
                    raise DataError(
                        f"{path}: row {r}, column {width}: label {cells[-1]!r} "
                        "is outside (-2**53, 2**53), where every integer reads exactly"
                    )
                ids.append(int(label))
            matrix.append(np.array(values))
    matrix = np.vstack(matrix)
    if not np.all(np.isfinite(matrix)):
        raise DataError(f"{path}: non-finite sample values")
    if not labeled:
        return names, matrix, None
    return None if names is None else names[:-1], matrix, np.asarray(ids, dtype=np.int64)
