"""Reading and writing files: the C-level CSV parse against the row reader,
the round trips, the reading rule and forked table writes.

Every file the package reads is opened and parsed here, and a file that
cannot be opened, decoded or parsed is DataError("cannot read <path>: ...").

`read_csv` parses a body once with numpy.loadtxt and runs the row-by-row
reader only where that parse declines. The row reader is the reference: on
every file below `read_csv` must give its result bit for bit or its exact
error.
"""

import ast
import contextlib
import errno
import os
import re
import signal
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from discwave import io
from discwave.core import DataError
from discwave.datasets import WaveformSpec, generate_waveform, load_csv, save_csv

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "discwave"
HEADER = "s1,s2,label\n"
FILES = {
    "plain": HEADER + "1.0,2.0,1\n3.0,4.0,2\n",
    "no_final_newline": HEADER + "1.0,2.0,1\n3.0,4.0,2",
    "blank_rows": HEADER + "\n1.0,2.0,1\n\n3.0,4.0,2\n\n",
    "whitespace_row": HEADER + "1.0,2.0,1\n  \t \n3.0,4.0,2\n",
    "comma_row": HEADER + "1.0,2.0,1\n,,\n3.0,4.0,2\n",
    "blank_rows_before_header": "\n , \n" + HEADER + "1.0,2.0,1\n",
    "blank_line_before_numeric_rows": "\n1.0,2.0,1\n3.0,4.0,2\n5.0,6.0,1\n",
    "whitespace_line_before_numeric_rows": " \n1.0,2.0,1\n3.0,4.0,2\n",
    "quoted_header": '"s1","s2","label"\n1.0,2.0,1\n',
    "quoted_header_over_two_lines": '"s\n1",s2,label\n1.0,2.0,1\n',
    "quoted_header_closing_in_body": '"s\n1.0,2.0,1\n3.0,4.0,2"\n5.0,6.0,1\n',
    "quoted_cells": HEADER + '"1.0",2.0,1\n3.0,4.0,"2"\n',
    "spaces_around_cells": HEADER + " 1.0 ,\t2.0\t, 1 \n3.0,4.0,2\n",
    "non_breaking_space": HEADER + "\xa01.0,2.0,1\n",
    "ascii_separator": HEADER + "\x1c1.0,2.0,1\n",
    "ascii_separator_trailing": HEADER + "1.0,2.0\x1f,1\n",
    "nul": HEADER + "1.0\x00,2.0,1\n",
    "underscore": HEADER + "1_000,2.0,1\n",
    "arabic_indic_digit": HEADER + "١,2.0,1\n",
    "hex_float": HEADER + "0x1p3,2.0,1\n",
    "hash": HEADER + "1#2,2.0,1\n",
    "crlf": "s1,s2,label\r\n1.0,2.0,1\r\n3.0,4.0,2\r\n",
    "cr_only": "s1,s2,label\r1.0,2.0,1\r3.0,4.0,2\r",
    "utf8_bom": "﻿" + HEADER + "1.0,2.0,1\n",
    "utf8_bom_no_header": "﻿1.0,2.0,1\n",
    "utf8_bom_numeric_rows": "﻿1.0,2.0,1\n3.0,4.0,2\n",
    "invalid_utf8": HEADER.encode() + b"1.0,2.0,1\n\xff,2.0,1\n",
    "invalid_utf8_in_header": b"\xff" + HEADER.encode() + b"1.0,2.0,1\n",
    "long_field": HEADER + '"' + "1" * 131073 + '",2.0,1\n',
    "long_field_in_header": '"' + "s" * 131073 + '",s2,label\n1.0,2.0,1\n',
    "signed_zero_and_subnormals": HEADER
    + "-0.0,5e-324,1\n2.2250738585072011e-308,-1.7976931348623157e+308,2\n",
    "overflowing_sample": HEADER + "1e400,2.0,1\n",
    "nan_sample": HEADER + "1.0,nan,1\n",
    "inf_sample": HEADER + "-inf,2.0,1\n",
    "nan_label": HEADER + "1.0,2.0,nan\n",
    "inf_label": HEADER + "1.0,2.0,inf\n",
    "fractional_label": HEADER + "1.0,2.0,1.5\n",
    "huge_label": HEADER + "1.0,2.0,1e20\n3.0,4.0,2\n",
    "float_spelled_label": HEADER + "1.0,2.0,2.0\n3.0,4.0,-0.0\n",
    "int64_extreme_labels": HEADER + "1.0,2.0,-9223372036854775808\n3.0,4.0,9223372036854775807\n",
    "largest_exact_labels": HEADER + "1.0,2.0,-9007199254740991\n3.0,4.0,9007199254740991\n",
    "label_rounded_by_float": HEADER + "1.0,2.0,1\n3.0,4.0,9007199254740993\n",
    "large_labels_spelled_as_floats": HEADER
    + "1.0,2.0,4503599627370497.0\n3.0,4.0,-4.503599627370497e15\n",
    "fractional_label_above_2_52": HEADER + "1.0,2.0,4503599627370496.5\n3.0,4.0,2\n",
    "fractional_label_below_minus_2_52": HEADER + "1.0,2.0,1\n3.0,4.0,-6755399441055744.5\n",
    "fractional_label_below_resolution": HEADER + "1.0,2.0,1.0000000000000001\n3.0,4.0,2\n",
    "fractional_label_below_resolution_near_2_51": HEADER
    + "1.0,2.0,1\n3.0,4.0,2251799813685248.25\n",
    "ragged": HEADER + "1.0,2.0,1\n3.0,2\n",
    "trailing_comma": HEADER + "1.0,2.0,1,\n3.0,4.0,2,\n",
    "one_data_row": HEADER + "1.0,2.0,1\n",
    "header_wider_than_rows": "a,b,c,d\n1.0,2.0,1\n",
    "header_narrower_than_rows": "a,b\n1.0,2.0,1\n3.0,4.0,2\n",
    "numeric_first_row": "1.0,2.0,1\n3.0,4.0,2\n5.0,6.0,1\n",
    "one_column": "x\n1.0\n2.0\n",
    "one_column_whitespace_row": "x\n1.0\n \n2.0\n",
    "empty": "",
    "only_blank_lines": "\n\n",
    "header_only": HEADER,
    "header_then_blank_lines": HEADER + "\n\n",
}
# Files every reader of discwave's own output looks like: the C parse must
# take them, or the fast path is silently lost.
TAKEN_IN_C = (
    "plain", "no_final_newline", "blank_rows", "spaces_around_cells", "crlf",
    "signed_zero_and_subnormals", "float_spelled_label", "one_data_row",
    "largest_exact_labels", "large_labels_spelled_as_floats",
)
# Files without a header line, whose header and rows differ in width, or
# that cannot be decoded or parsed: the readers agree on these by raising
# the row reader's DataError.
REJECTED = {
    "header_wider_than_rows": "{path}: row 2 has 3 cells, expected 4 as in the header",
    "header_narrower_than_rows": "{path}: row 2 has 3 cells, expected 2 as in the header",
    "numeric_first_row": "{path}: row 1 holds numbers, not a header",
    "blank_line_before_numeric_rows": "{path}: row 1 holds numbers, not a header",
    "whitespace_line_before_numeric_rows": "{path}: row 1 holds numbers, not a header",
    "utf8_bom_no_header": "{path}: row 1 holds numbers, not a header",
    "utf8_bom_numeric_rows": "{path}: row 1 holds numbers, not a header",
    "invalid_utf8": "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 22: "
    "invalid start byte",
    "invalid_utf8_in_header": "cannot read {path}: 'utf-8' codec can't decode byte 0xff in "
    "position 0: invalid start byte",
    "long_field": "cannot read {path}: field larger than field limit (131072)",
    "long_field_in_header": "cannot read {path}: field larger than field limit (131072)",
}


def outcome(read, path):
    """Everything a caller can see of one read: a summary or the error."""
    try:
        return summary(read(path))
    except (DataError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def summary(result):
    """Names, dtypes, shape, layout and the exact bytes of a read's result."""
    names, matrix, ids = result
    return (
        names,
        matrix.dtype,
        matrix.shape,
        matrix.flags.c_contiguous,
        matrix.tobytes(),
        ids.dtype,
        ids.tobytes(),
    )


@pytest.mark.parametrize("name", sorted(FILES))
def test_read_csv_matches_row_reader(tmp_path, name):
    content = FILES[name]
    path = tmp_path / f"{name}.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8", newline="")
    expected = outcome(io._read_rows, path)
    assert outcome(io.read_csv, path) == expected
    fast = io._read_c(path)
    if fast is not None:
        assert summary(fast) == expected
    elif name in TAKEN_IN_C:
        pytest.fail(f"the C parse declined {name}")
    if name in REJECTED:
        assert expected == ("DataError", REJECTED[name].format(path=path))


def test_read_csv_holds_the_table_once(tmp_path):
    # The samples move down inside loadtxt's l x (N+1) buffer, so reading a
    # 4000 x 129 table peaks at its bytes plus 1 MiB (a second copy of the
    # samples took 7.9 MiB), and the matrix is still C-contiguous.
    rng = np.random.default_rng(36)
    rows, cols = 4000, 129
    matrix, ids = rng.standard_normal((rows, cols - 1)), rng.integers(1, 4, size=rows)
    path = tmp_path / "table.csv"
    io.write_table(path, [f"s{i}" for i in range(1, cols)], matrix, ids)
    tracemalloc.start()
    try:
        _, got, got_ids = io.read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows * cols * 8 + 2 ** 20
    assert got.flags.c_contiguous and got.tobytes() == matrix.tobytes()
    assert got_ids.tobytes() == ids.astype(np.int64).tobytes()


@pytest.mark.parametrize("read", [io.read_csv, io.read_json])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_file_that_cannot_be_opened_is_a_data_error(tmp_path, read, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: "):
        read(path)


JSON_REJECTED = {
    "invalid": (b'{"a": 1,}', "Expecting property name enclosed in double quotes"),
    "invalid_utf8": (b'{"a": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    "utf8_bom": ('\ufeff{"a": 1}'.encode(), "Unexpected UTF-8 BOM"),
    "nested_past_the_recursion_limit": (b"[" * 200_000 + b"]" * 200_000,
                                        "maximum recursion depth exceeded"),
    "integer_past_the_digit_limit": (b'{"a": ' + b"1" * 5000 + b"}", "Exceeds the limit"),
}


@pytest.mark.parametrize("name", JSON_REJECTED)
def test_read_json_makes_every_decode_or_parse_failure_a_data_error(tmp_path, name):
    content, reason = JSON_REJECTED[name]
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: {reason}"):
        io.read_json(path)


def test_only_io_opens_or_parses_a_file():
    # io is the input boundary: another module that opened or parsed a file
    # would have its own rule for what a failed read is.
    readers = {"open", "read_text", "read_bytes", "load", "loads", "reader", "DictReader",
               "loadtxt", "genfromtxt", "fromfile"}
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in readers:
                    calls.setdefault(path.name, []).append(ast.unparse(func))
    assert list(calls) == ["io.py"], calls
    assert {"open", "json.load", "csv.reader", "np.loadtxt"} <= set(calls["io.py"])


def test_only_the_scalar_rule_checks_a_scalar_type():
    # core.integer and core.real are the one rule for integer and real
    # arguments; a hand-written isinstance check would be a second one.
    # io._cell's np.floating test picks a cell's spelling and checks nothing.
    owners = {"core.integer", "core.real", "io._cell"}
    scalar_types = {"bool", "int", "float", "integer", "floating", "Integral", "Real"}

    def checks(tree):
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and scalar_types & {getattr(n, "id", getattr(n, "attr", None))
                                for n in ast.walk(node.args[1])}
        ]

    stray, owned = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        for func in ast.walk(tree):
            name = f"{path.stem}.{getattr(func, 'name', '')}"
            if isinstance(func, ast.FunctionDef) and name in owners and checks(func):
                owned.add(name)
                inside.update(map(id, checks(func)))
        stray += [f"{path.name}:{n.lineno}: {ast.unparse(n)}"
                  for n in checks(tree) if id(n) not in inside]
    assert not stray and owned == owners, (stray, owned)


def test_only_the_array_rules_test_a_dtype():
    # core.float_matrix, core.class_ids and core.signed_labels decide which
    # dtypes a float matrix, a class-id or a label vector may have; a dtype
    # test anywhere else would be a second rule for one kind of array.
    owners = {"core.float_matrix", "core.class_ids", "core.signed_labels"}

    def tests(tree):
        return [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and (
                node.attr == "issubdtype"
                or (node.attr == "kind" and getattr(node.value, "attr", None) == "dtype"))
        ]

    stray, owned = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        for func in ast.walk(tree):
            name = f"{path.stem}.{getattr(func, 'name', '')}"
            if isinstance(func, ast.FunctionDef) and name in owners and tests(func):
                owned.add(name)
                inside.update(map(id, tests(func)))
        stray += [f"{path.name}:{n.lineno}: {ast.unparse(n)}"
                  for n in tests(tree) if id(n) not in inside]
    assert not stray and owned == owners, (stray, owned)


def test_every_public_name_in_src_is_named_outside_the_tests():
    # A public function, class or method that only the tests use widens the
    # API for nothing: it belongs in the tests. Being named anywhere in the
    # code of src/, bench/ or demos/ counts as a use.
    named = set()
    for folder in ("src", "bench", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name.rpartition(".")[2])

    def public(body):
        return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")]

    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in public(ast.parse(path.read_text(encoding="utf-8")).body):
            members = public(node.body) if isinstance(node, ast.ClassDef) else []
            unused += [f"{path.stem}.{n.name}" for n in [node, *members] if n.name not in named]
    assert not unused, unused


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)), elements=finite),
    st.integers(-3, 3),
)
@example(
    np.array([[-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.2250738585072014e-308]]),
    0,
)
def test_write_then_read_is_bit_exact(tmp_path_factory, matrix, label):
    path = tmp_path_factory.mktemp("round_trip") / "data.csv"
    names = [f"s{j}" for j in range(1, matrix.shape[1] + 1)] + ["label"]
    io.write_csv(path, names, (row.tolist() + [label] for row in matrix))
    assert io._read_c(path) is not None
    back_names, back, ids = io.read_csv(path)
    assert back_names == names[:-1]
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert back.tobytes() == matrix.tobytes()
    assert ids.tolist() == [label] * matrix.shape[0]


# write_table: rows formatted in forked blocks must give the bytes of the
# one-process write_csv, whatever the number of blocks and whatever fails.

SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308)


def serial_bytes(path, names, matrix, ids):
    """The reference: write_csv of the same rows, one process, one row at a time."""
    rows = (row.tolist() + [int(i)] for row, i in zip(matrix, ids))
    io.write_csv(path, names + ["label"], rows)
    return path.read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def forced_blocks(processes, chunk_cells=io.CHUNK_CELLS):
    """write_table with `processes` usable CPUs and any block size; yields the
    list of (lo, hi) row ranges handed to children."""
    forked = []
    fork_block = io._fork_block

    def spy(matrix, ids, lo, hi):
        forked.append((lo, hi))
        return fork_block(matrix, ids, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_max_processes", lambda: processes)
        mp.setattr(io, "PARALLEL_MIN_CELLS", 1)
        mp.setattr(io, "CHUNK_CELLS", chunk_cells)
        mp.setattr(io, "_fork_block", spy)
        yield forked


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    processes=st.integers(1, 3),
    matrix=arrays(
        np.float64,
        st.tuples(st.integers(1, 7), st.integers(1, 4)),
        elements=st.one_of(finite, st.sampled_from(SPECIAL)),
    ),
    id_range=st.sampled_from([(1, 12), (-1, 1)]),
    chunk_cells=st.sampled_from([1, 5, io.CHUNK_CELLS]),
    data=st.data(),
)
def test_write_table_matches_serial_write_csv(
    tmp_path_factory, processes, matrix, id_range, chunk_cells, data
):
    n_rows = matrix.shape[0]
    names = [f"s{j}" for j in range(1, matrix.shape[1] + 1)]
    ids = np.array(data.draw(st.lists(st.integers(*id_range), min_size=n_rows,
                                      max_size=n_rows)))
    tmp = tmp_path_factory.mktemp("write_table")
    expected = serial_bytes(tmp / "serial.csv", names, matrix, ids)
    with forced_blocks(processes, chunk_cells) as forked:
        io.write_table(tmp / "table.csv", names, matrix, ids)
    assert (tmp / "table.csv").read_bytes() == expected
    blocks = min(processes, n_rows)
    assert len(forked) == blocks - 1
    assert_no_child_left()


def table(rows=7, cols=3):
    """Column names, a rows x cols matrix and class ids 1, 2, 3, 1, ..."""
    rng = np.random.default_rng(rows * 100 + cols)
    ids = np.arange(rows) % 3 + 1
    return [f"s{j}" for j in range(1, cols + 1)], rng.standard_normal((rows, cols)), ids


def test_write_table_formats_here_when_fork_fails(tmp_path, monkeypatch):
    names, matrix, ids = table()

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(io.os, "fork", no_fork)
    with forced_blocks(3) as forked:
        io.write_table(tmp_path / "table.csv", names, matrix, ids)
    assert forked == [(2, 4)]  # the first failure leaves the rest to this process
    assert (tmp_path / "table.csv").read_bytes() == serial_bytes(
        tmp_path / "serial.csv", names, matrix, ids)
    assert_no_child_left()


def test_write_table_without_fork_is_one_process(tmp_path, monkeypatch):
    names, matrix, ids = table()
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(io, "PARALLEL_MIN_CELLS", 1)
    assert io._max_processes() == 1
    io.write_table(tmp_path / "table.csv", names, matrix, ids)
    assert (tmp_path / "table.csv").read_bytes() == serial_bytes(
        tmp_path / "serial.csv", names, matrix, ids)


@pytest.mark.parametrize("failure", ["raise", "partial_then_raise", "partial_then_killed"])
def test_write_table_formats_here_when_a_child_fails(tmp_path, monkeypatch, failure):
    names, matrix, ids = table(rows=40, cols=2000)  # blocks of ~0.5 MB: more than a pipe holds
    parent = os.getpid()
    write = os.write

    def failing_write(fd, data):
        if os.getpid() == parent:
            return write(fd, data)
        if failure != "raise":
            write(fd, b"garbage\n" + bytes(data[: len(data) // 2]))
        if failure == "partial_then_killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("child failed")

    monkeypatch.setattr(io.os, "write", failing_write)
    with forced_blocks(3) as forked:
        io.write_table(tmp_path / "table.csv", names, matrix, ids)
    assert len(forked) == 2
    assert (tmp_path / "table.csv").read_bytes() == serial_bytes(
        tmp_path / "serial.csv", names, matrix, ids)
    assert_no_child_left()


def test_write_table_reaps_children_when_interrupted(tmp_path):
    # The target cannot be opened, so the children's pipes are never read:
    # each child is blocked writing ~0.5 MB when the call unwinds.
    names, matrix, ids = table(rows=40, cols=2000)

    def timeout(signum, frame):
        raise TimeoutError("write_table did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        with forced_blocks(3) as forked, pytest.raises(FileNotFoundError):
            io.write_table(tmp_path / "missing" / "table.csv", names, matrix, ids)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forked) == 2
    assert_no_child_left()


def test_write_table_silences_only_the_fork_thread_warning(tmp_path, monkeypatch):
    names, matrix, ids = table()
    fork = os.fork
    messages = []

    def warning_fork():
        for message in messages:
            warnings.warn(message, DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(io.os, "fork", warning_fork)
    threaded = (f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may "
                "lead to deadlocks in the child.")
    for message, shown in ((threaded, False), ("some other deprecation", True)):
        messages[:] = [message]
        with warnings.catch_warnings(record=True) as caught, forced_blocks(2):
            warnings.simplefilter("always")
            io.write_table(tmp_path / "table.csv", names, matrix, ids)
        assert [str(w.message) for w in caught] == ([message] if shown else [])
        assert_no_child_left()


@pytest.mark.parametrize("per_class, forks", [(1323, 0), (1324, 1)])
def test_save_then_load_is_bit_exact_on_both_sides_of_the_threshold(
    tmp_path, monkeypatch, per_class, forks
):
    # 32 samples and a label: blocks of 1986 rows reach 2**16 cells, so
    # 3 * 1324 = 3972 rows make two blocks and 3 * 1323 = 3969 rows one.
    ds = generate_waveform(WaveformSpec(per_class_count=per_class, seed=31))
    forked = []
    fork_block = io._fork_block
    monkeypatch.setattr(io, "_max_processes", lambda: 2)
    monkeypatch.setattr(
        io, "_fork_block", lambda *a: forked.append(a[2:]) or fork_block(*a))
    save_csv(ds, tmp_path / "data.csv")
    assert len(forked) == forks
    back = load_csv(tmp_path / "data.csv")
    assert back.signals.tobytes() == ds.signals.tobytes()
    assert np.array_equal(back.class_ids, ds.class_ids)
    names = [f"s{j}" for j in range(1, 33)]
    assert (tmp_path / "data.csv").read_bytes() == serial_bytes(
        tmp_path / "serial.csv", names, ds.signals, ds.class_ids)
    assert_no_child_left()
