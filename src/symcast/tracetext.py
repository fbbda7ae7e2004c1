"""The trace's text and the block writer, without numpy: the rows are read into stdlib columns.

`symcast report` writes its outputs from those columns, and
pipeline.read_trace wraps them in a PredictionTrace.
"""

from __future__ import annotations

__all__: list[str] = []

import math
from array import array
from itertools import islice, repeat, takewhile
from typing import Callable, Iterable, Sequence, TextIO

from .errors import NoTestStepsError, TraceFormatError

TRAIN = "train"
TEST = "test"

BLOCK_ROWS = 4096  # output rows formatted, or trace rows parsed, at a time
MAPE_FORMAT = ".6f"  # the text of a running MAPE wherever one is written

TRACE_HEADER = (
    "step,phase,prev_class,raw_prediction,predicted_class,expected_class,"
    "abs_error,cumulative_mape,deviant_mean"
)


def _test_mapes(cumulative_mape: Sequence[float]) -> Sequence[float]:
    """cumulative_mape, a trace's running test MAPE; a trace without test steps has none."""
    if not len(cumulative_mape):
        raise NoTestStepsError("trace has no test steps")
    return cumulative_mape


def _write_blocks(stream: TextIO, header: str, length: int,
                  block_rows: Callable[[int, int], Iterable[str]]) -> None:
    """The header, then block_rows(start, stop) per BLOCK_ROWS rows, joined: one write a block."""
    stream.write(header + "\n")
    for start in range(0, length, BLOCK_ROWS):
        stream.write("".join(block_rows(start, start + BLOCK_ROWS)))


def _reals(texts: list[str]) -> array:
    return array("d", map(float, texts))


def _integers(texts: list[str]) -> array:
    values = list(map(int, texts))
    try:
        return array("q", values)
    except OverflowError:
        text = next(text for text, value in zip(texts, values) if not -2**63 <= value < 2**63)
        raise ValueError(f"integer {text!r} outside the 64-bit range") from None


def _distinct(convert: Callable[[list[str]], array], texts: list[str]) -> array:
    """convert(texts), converting each distinct text once, first occurrence first."""
    distinct = list(dict.fromkeys(texts))
    values = convert(distinct)
    return array(values.typecode, list(map(dict(zip(distinct, values)).__getitem__, texts)))


def _parse_rows(rows: list[str]) -> tuple:
    """The rows as nine columns in PredictionTrace's field order, or ValueError naming a problem.

    Integers are array('q'), reals array('d') and is_test a list of bools.
    Each check runs over all rows before the next starts, in the order in
    which they ran on each row when rows were read one at a time, so for a
    single row the message names its first problem: cumulative_mape
    converts first, then the other fields in file order.
    """
    text = ",".join(rows)
    if not text.isascii():  # a flag CPython keeps on the string: no scan
        raise ValueError(f"non-ASCII character {next(c for c in text if not c.isascii())!r}")
    commas = list(map(str.count, rows, repeat(",")))
    if set(commas) != {8}:
        raise ValueError(f"expected 9 fields, got {next(c for c in commas if c != 8) + 1}")
    table = text.split(",")
    index, phase, previous, raw, predicted, expected, abs_error, mape_fields, mean = (
        table[position::9] for position in range(9)
    )
    if not set(phase) <= {TRAIN, TEST}:
        raise ValueError(f"bad phase {next(p for p in phase if p not in (TRAIN, TEST))!r}")
    is_test = list(map(TEST.__eq__, phase))
    if list(map(bool, mape_fields)) != is_test:
        if next(test for test, mape in zip(is_test, mape_fields) if test != bool(mape)):
            raise ValueError("test step missing cumulative_mape")
        raise ValueError("train step carries cumulative_mape")
    mape_texts = list(filter(None, mape_fields))
    mape = _reals(mape_texts)
    columns = (_integers(index), is_test, _distinct(_integers, previous),
               _distinct(_reals, raw), _distinct(_integers, predicted),
               _distinct(_integers, expected), _distinct(_integers, abs_error),
               _distinct(_reals, mean), mape)
    if "_" in text:
        raise ValueError(f"digit separator '_' in {next(f for f in table if '_' in f)!r}")
    for texts, column in ((mape_texts, mape), (raw, columns[3]), (mean, columns[7])):
        if not all(map(math.isfinite, column)):
            bad = next(text for text, value in zip(texts, column) if not math.isfinite(value))
            raise ValueError(f"non-finite real {bad!r}")
    if min(mape, default=0.0) < 0:  # a mean of |error| / expected; -0.0 passes
        bad = next(text for text, value in zip(mape_texts, mape) if value < 0)
        raise ValueError(f"negative cumulative_mape {bad!r}")
    return columns


def _parse_block(rows: list[str], first_line: int) -> tuple:
    """_parse_rows on rows from line first_line on; a failing block is halved to its first bad line."""
    try:
        return _parse_rows(rows)
    except ValueError:
        # rows[low:high] holds the first row that fails alone
        low, high = 0, len(rows)
        while high - low > 1:
            middle = (low + high) // 2
            try:
                _parse_rows(rows[low:middle])
            except ValueError:
                high = middle
            else:
                low = middle
        try:
            _parse_rows(rows[low:high])
        except ValueError as exc:
            raise TraceFormatError(first_line + low, str(exc)) from exc
        raise


def read_columns(lines: Iterable[str]) -> tuple:
    """The first trace block of an iterable of lines, as _parse_rows's nine columns.

    Stops at the first blank line. Reals come back at the precision
    they were written with. Raises TraceFormatError with the 1-based
    line number on any malformed content: a row that is not ASCII, a wrong
    field count or phase, a misplaced cumulative_mape, a field int() or
    float() refuses, an integer outside [-2**63, 2**63), a '_' anywhere (int()
    and float() would read it as a digit separator), a real that is not
    finite, or a negative cumulative_mape. Rows are read and parsed
    BLOCK_ROWS at a time, each block column by column, so no line past the
    block of the first bad row is read, and the first bad row in the file is
    the one named.
    """
    lines = iter(lines)
    header = next(lines, None)
    if header is None:
        raise TraceFormatError(1, "empty trace file")
    if header.rstrip("\r\n") != TRACE_HEADER:
        raise TraceFormatError(1, "missing or wrong trace header")
    rows = takewhile(bool, map(str.rstrip, lines, repeat("\r\n")))
    blocks = []
    while block := list(islice(rows, BLOCK_ROWS)):
        blocks.append(_parse_block(block, 2 + BLOCK_ROWS * len(blocks)))
    if not blocks:
        raise TraceFormatError(2, "trace has no step rows")
    for block in blocks[1:]:
        for column, more in zip(blocks[0], block):
            column.extend(more)
    return blocks[0]
