"""CSV reading: the C-level parse against the row reader, and the round trip.

`read_csv` parses a body once with numpy.loadtxt and runs the row-by-row
reader only where that parse declines. The row reader is the reference: on
every file below, read with and without a header and a label column,
`read_csv` must give its result bit for bit or its exact error.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from discwave import io
from discwave.core import DataError

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
    "invalid_utf8": HEADER.encode() + b"1.0,2.0,1\n\xff,2.0,1\n",
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
    "ragged": HEADER + "1.0,2.0,1\n3.0,2\n",
    "trailing_comma": HEADER + "1.0,2.0,1,\n3.0,4.0,2,\n",
    "one_data_row": HEADER + "1.0,2.0,1\n",
    "header_wider_than_rows": "a,b,c,d\n1.0,2.0,1\n",
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
    "largest_exact_labels",
)


def outcome(read, path, header, labeled):
    """Everything a caller can see of one read: a summary or the error."""
    try:
        return summary(read(path, header, labeled))
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
        None if ids is None else (ids.dtype, ids.tobytes()),
    )


@pytest.mark.parametrize("name", sorted(FILES))
def test_read_csv_matches_row_reader(tmp_path, name):
    content = FILES[name]
    path = tmp_path / f"{name}.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8", newline="")
    for header in (True, False):
        for labeled in (True, False):
            expected = outcome(io._read_rows, path, header, labeled)
            assert outcome(io.read_csv, path, header, labeled) == expected, (header, labeled)
            try:
                fast = io._read_c(path, header, labeled)
            except ValueError:
                fast = None
            if fast is not None:
                assert summary(fast) == expected, (header, labeled)
            elif name in TAKEN_IN_C and header and labeled:
                pytest.fail(f"the C parse declined {name}")


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
    assert io._read_c(path, True, True) is not None
    back_names, back, ids = io.read_csv(path)
    assert back_names == names[:-1]
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert back.tobytes() == matrix.tobytes()
    assert ids.tolist() == [label] * matrix.shape[0]
