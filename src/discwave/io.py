"""CSV and JSON artifacts: the one place discwave spells them on disk.

Spelling rule, for every file the package writes:
- a float is written as repr(float), the shortest string that reads back to
  the same float, so every artifact round-trips bit for bit; an int is
  written with str and a str as it is;
- CSV cells are joined by "," and every line, the last included, ends in "\\n";
- JSON is json.dumps(indent=2) of a plain Python payload, then "\\n";
- NaN and infinities are rejected: JSON writing raises NumericalError and
  CSV reading raises DataError. write_table takes only finite matrices
  (core.float_matrix, in save_csv and save_features) and core.class_ids.

Reading rule: every input is UTF-8 text opened here, JSON by read_json and
CSV by read_csv. An input that cannot be opened, decoded or parsed (a CSV
cell over csv's field limit, deep JSON) is DataError("cannot read <path>: ...").

A data or feature table has one shape, the only one write_table writes and
read_csv reads: a header line, then one row per example of values and an
integer label. A first row of numbers where the header belongs, or a row
whose width differs from the header's, is a DataError.

write_table formats a large table in contiguous row blocks, one per usable
CPU, the blocks after the first in forked children (formatting holds the
interpreter lock, so threads would not help). The spelling rule is the
same, and the bytes do not depend on how many processes formatted them.

Reading a CSV is one C-level parse of its body (numpy.loadtxt) into one
l x (N+1) buffer. The labels are copied out and the samples moved down
inside it, so the matrix is a C-contiguous view of the buffer and the table
is held once. The row-by-row csv reader runs only on inputs that parse
declines: quoted cells, ragged, whitespace-only or comma-only rows, numbers
that only float() reads (such as 1_000), labels that fail their checks, and
so on. The row reader defines what is accepted and words every DataError,
so both are unchanged.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from contextlib import contextmanager
from decimal import Decimal, InvalidOperation

import numpy as np

from .core import CLASS_ID_BOUND, DataError, NumericalError, class_ids as check_class_ids

# Fewest cells a forked block of write_table formats: measured break-even on
# 2 CPUs, where two processes were slower at 32,768 cells and took 0.63x the
# one-process time at 65,536.
PARALLEL_MIN_CELLS = 1 << 16
CHUNK_CELLS = 1 << 12  # cells formatted per write (~0.1 MB of text) or moved per read block
PIPE_CHUNK_BYTES = 1 << 16  # bytes copied per read of a child's pipe


def _cell(value) -> str:
    if type(value) is float:  # the common case, checked first for speed
        return repr(value)
    if isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def _line(row) -> str:
    return ",".join(map(_cell, row)) + "\n"


def write_csv(path, header, rows) -> None:
    """Write the `header` line (a list of names) and then `rows`.

    Rows are formatted and written one at a time, so a generator of rows
    never has the whole file in memory.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_line(header))
        for row in rows:
            fh.write(_line(row))


def _max_processes() -> int:
    """Processes that may format one table: the CPUs this process may run
    on, or 1 where there is no os.fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _format_rows(matrix, ids, lo, hi) -> str:
    """Rows lo..hi-1 of a table as CSV text, in the spelling of write_csv:
    after tolist() every cell is a float or an int, so `repr` is `_cell`."""
    return "".join(
        f"{','.join(map(repr, row))},{i}\n"
        for row, i in zip(matrix[lo:hi].tolist(), ids[lo:hi].tolist())
    )


def _write_rows(fh, matrix, ids, lo, hi) -> None:
    """Format rows lo..hi-1 into the binary file `fh`, CHUNK_CELLS at a time."""
    step = max(1, CHUNK_CELLS // max(1, matrix.shape[1]))
    for start in range(lo, hi, step):
        fh.write(_format_rows(matrix, ids, start, min(start + step, hi)).encode())


# fork() warns, from Python 3.12, when any other OS thread is alive, such as
# an OpenBLAS pool left unpinned. The child formats rows with the standard
# library only: it calls no BLAS and takes no lock another thread could hold.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead"


def _fork_block(matrix, ids, lo, hi):
    """(pid, read end of its pipe) of a child formatting rows lo..hi-1.

    The child writes its rows to the pipe and leaves through os._exit, 0 once
    every byte is written and 1 on any failure, so it never returns into the
    caller, flushes no inherited buffer and writes nothing else.
    """
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child
        status = 1
        try:
            os.close(r)
            view = memoryview(_format_rows(matrix, ids, lo, hi).encode())
            while view:
                view = view[os.write(w, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def write_table(path, names, matrix, class_ids) -> None:
    """Write `matrix` one row per line under the header line `names`.

    Rows gain a trailing integer column named "label" holding `class_ids`,
    which must pass core.class_ids (the ids read_csv reads back exactly),
    else a DataError is raised before the file is opened. The rows are split
    into contiguous blocks of at least PARALLEL_MIN_CELLS cells, at most one
    per usable CPU. A forked child formats each block after the first while
    this process formats the first; their text is then copied into the file
    in block order. A block whose fork fails or whose child exits nonzero is
    formatted here instead, so the bytes are those of write_csv for any
    number of processes.
    """
    ids = check_class_ids(class_ids, "class ids", len(matrix))
    n_rows, width = matrix.shape[0], matrix.shape[1] + 1
    min_rows = -(-PARALLEL_MIN_CELLS // max(1, width))
    n_blocks = max(1, min(_max_processes(), n_rows // min_rows))
    bounds = [n_rows * b // n_blocks for b in range(n_blocks + 1)]

    children = {}  # block -> (pid, read fd), until that child is reaped
    try:
        for b in range(1, n_blocks):
            try:
                children[b] = _fork_block(matrix, ids, bounds[b], bounds[b + 1])
            except OSError:
                break  # this block and the rest are formatted here
        with open(path, "wb") as fh:
            fh.write(_line(names + ["label"]).encode())
            for b in range(n_blocks):
                start = fh.tell()
                if b in children:
                    pid, r = children[b]
                    while chunk := os.read(r, PIPE_CHUNK_BYTES):
                        fh.write(chunk)
                    os.close(r)
                    del children[b]
                    if os.waitpid(pid, 0)[1] == 0:
                        continue
                    fh.seek(start)
                    fh.truncate()
                _write_rows(fh, matrix, ids, bounds[b], bounds[b + 1])
    finally:
        # Closing every read end first breaks each child's pipe, so none can
        # block the wait for another.
        for _, r in children.values():
            os.close(r)
        for pid, _ in children.values():
            os.waitpid(pid, 0)


def write_json(path, payload) -> None:
    """Write the plain Python `payload` as indented JSON; nothing is written if rejected."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError("non-finite value in JSON payload") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# Failures to open, decode or parse a file; not ValueError, of which DataError is one.
_READ_ERRORS = (OSError, UnicodeDecodeError, csv.Error, json.JSONDecodeError, RecursionError)


@contextmanager
def _reading(path, *errors):
    """The reading rule: a failure to open, decode or parse `path` (one of
    _READ_ERRORS, or of `errors`) is a DataError."""
    try:
        yield
    except (*_READ_ERRORS, *errors) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_json(path):
    """The JSON document in the file `path`, as plain Python values."""
    # json.load raises a bare ValueError for an integer past the interpreter's digit limit
    with _reading(path, ValueError), open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# numpy's number parser strips these ASCII separators as whitespace, float()
# rejects them; a line holding one is left to the row reader.
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _integral_text(cell: str) -> bool:
    """Whether the numeric text `cell` denotes an integer exactly.

    Labels are checked as text because a float cannot tell: the nearest
    float to 1.0000000000000001 or to 4503599627370496.5 is an integer.
    """
    cell = cell.strip()
    if cell.isdigit():  # the labels discwave writes: checked without Decimal
        return True
    try:
        value = Decimal(cell)
    except InvalidOperation:
        return False
    return value.is_finite() and value == value.to_integral_value()


def _numbers(cells) -> bool:
    """Whether every cell reads as a number, a UTF-8 byte-order mark aside:
    a data row, not a header."""
    try:
        for cell in cells:
            float(cell.lstrip("\ufeff"))
    except ValueError:
        return False
    return True


def read_csv(path):
    """Read a labelled numeric CSV: (column names, float matrix, int ids).

    The first non-blank row is the header and every other row has its width;
    the last column holds integer class ids and is left out of the names and
    the matrix. Blank rows are skipped. The matrix is a C-contiguous float64
    array and the ids are int64. The body is parsed once in C into one
    buffer, of which the matrix is a view (no second copy); the row reader
    runs only on inputs that parse declines, so what is accepted and every
    message are those of the row reader. Raises DataError with 1-based
    row/column diagnostics (rows counted from the header) on an empty file,
    a first row of numbers where the header belongs, a header without data,
    a missing label column, a row whose width differs from the header's,
    non-numeric cells or labels, labels that are not integers of magnitude
    below 2**53 (each label cell's text is checked, since 1.0000000000000001
    and 4503599627370496.5 read as integer floats) and non-finite values.
    """
    parsed = _read_c(path)
    return _read_rows(path) if parsed is None else parsed


def _c_lines(fh):
    """Lines of `fh` for numpy.loadtxt; ValueError where the row reader must run.

    Each line's last cell must denote an integer as written.
    """
    content = False
    for line in fh:
        if any(c in line for c in _SEPARATORS):
            raise ValueError("ASCII separator in line")
        cell = line[line.rfind(",") + 1:]
        if cell.strip() and not _integral_text(cell):
            raise ValueError("label text is not an integer")
        content = content or line != "\n"
        yield line
    if not content:
        raise ValueError("no data rows")


def _read_c(path):
    """read_csv through one numpy.loadtxt parse, or None where it declines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            names = next(csv.reader([fh.readline()]), [])
            if not any(c.strip() for c in names) or _numbers(names):
                return None
            data = np.loadtxt(
                _c_lines(fh), delimiter=",", comments=None, ndmin=2, dtype=float
            )
    except (ValueError, *_READ_ERRORS):  # declined by _c_lines, unparsable or unreadable
        return None
    if data.shape[1] != len(names) or data.shape[1] < 2 or not np.isfinite(data).all():
        return None
    labels = data[:, -1]
    if not np.all(np.abs(labels) < CLASS_ID_BOUND):
        return None
    ids = labels.astype(np.int64)  # copied out before the samples move over it
    # The samples move down inside the same buffer, CHUNK_CELLS cells at a
    # time, so the table is held once: a block lands below every later
    # block's source, and numpy buffers a block that overlaps its own.
    l, n = data.shape[0], data.shape[1] - 1
    flat = data.reshape(-1)
    step = max(1, CHUNK_CELLS // n)
    for start in range(0, l, step):
        stop = min(start + step, l)
        flat[start * n : stop * n].reshape(stop - start, n)[...] = data[start:stop, :n]
    return names[:-1], flat[: l * n].reshape(l, n), ids


def _read_rows(path):
    """read_csv one csv.reader row at a time: the reference, and every DataError."""
    with _reading(path), open(path, "r", encoding="utf-8", newline="") as fh:
        rows = (row for row in csv.reader(fh) if any(c.strip() for c in row))
        names = next(rows, None)
        if names is None:
            raise DataError(f"{path}: empty file")
        if _numbers(names):
            raise DataError(f"{path}: row 1 holds numbers, not a header")
        width = len(names)
        if width < 2:
            raise DataError(f"{path}: expected sample columns plus a label column")
        matrix, ids = [], []
        for r, cells in enumerate(rows, start=2):
            if len(cells) != width:
                raise DataError(
                    f"{path}: row {r} has {len(cells)} cells, expected {width} as in the header"
                )
            try:
                values = list(map(float, cells))
            except ValueError:
                for c, cell in enumerate(cells, start=1):
                    try:
                        float(cell)
                    except ValueError as exc:
                        what = "label " if c == width else ""
                        raise DataError(
                            f"{path}: row {r}, column {c}: {what}{cell!r} is not numeric"
                        ) from exc
            label = values.pop()
            if not label.is_integer() or not _integral_text(cells[-1]):
                raise DataError(
                    f"{path}: row {r}, column {width}: label {cells[-1]!r} is not an integer"
                )
            if not abs(label) < CLASS_ID_BOUND:
                raise DataError(
                    f"{path}: row {r}, column {width}: label {cells[-1]!r} "
                    "is outside (-2**53, 2**53), where every integer reads exactly"
                )
            ids.append(int(label))
            matrix.append(np.array(values))
    if not matrix:
        raise DataError(f"{path}: header only, no data rows")
    matrix = np.vstack(matrix)
    if not np.all(np.isfinite(matrix)):
        raise DataError(f"{path}: non-finite sample values")
    return names[:-1], matrix, np.asarray(ids, dtype=np.int64)
