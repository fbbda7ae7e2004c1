"""The trace file and the block writer, without numpy: write_trace writes the rows the reader reads.

The reader gives stdlib columns: `symcast report` writes its outputs
from them, and pipeline.read_trace wraps them in a PredictionTrace.
Every output written row by row (the trace, the decoded steps, report's
series and the encode CSV's rows) goes through _write_blocks, and the
reader parses BLOCK_ROWS rows at a time, so one block's text is held at once.
"""

from __future__ import annotations

__all__ = ["write_trace"]

import math
from array import array
from itertools import chain, islice, repeat, takewhile
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import symcast  # write_trace's hint names symcast.pipeline, which imports this module
from .errors import NoTestStepsError, TraceFormatError

TRAIN = "train"
TEST = "test"

BLOCK_ROWS = 4096  # output rows formatted, or trace rows parsed, at a time
MAPE_FORMAT = ".6f"  # the text of a running MAPE wherever one is written

TRACE_HEADER = (
    "step,phase,prev_class,raw_prediction,predicted_class,expected_class,"
    "abs_error,cumulative_mape,deviant_mean"
)
# a train and a test row's % template: step, the fields from prev_class to abs_error, MAPE, mean
_TRAIN_ROW, _TEST_ROW = f"%d,{TRAIN},%s%s%s", f"%d,{TEST},%s%{MAPE_FORMAT}%s"


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


def format_real(value: float) -> str:
    """Six decimal places, or six significant decimals in exponent form from 1e15 up.

    Fixed point would spell out every integer digit of a huge value.
    """
    return f"{value:.6f}" if abs(value) < 1e15 else f"{value:.6e}"


class _RowHeads(dict):
    """A trace row's text from its prev_class to its abs_error field, formed once per distinct key."""

    def __missing__(self, key: tuple) -> str:
        previous, raw, _, *integers = key  # the raw prediction's bits tell -0.0 from 0.0
        self[key] = text = ",".join([str(previous), format_real(raw), *map(str, integers)]) + ","
        return text


def write_trace(trace: symcast.pipeline.PredictionTrace, stream: TextIO) -> None:
    """Emit the delimited trace; reals carry 6 decimal places (see format_real).

    cumulative_mape is empty on train steps. The fields from prev_class to abs_error, and the mean,
    are formed into text once per distinct value, a real keyed by its bits: -0.0 keeps its sign.
    """
    heads = _RowHeads()
    train = len(trace) - len(trace.cumulative_mape)  # the steps before the first test step

    def block_rows(start: int, stop: int) -> Iterable[str]:
        stop = min(stop, len(trace))
        split = min(max(start, train), stop)  # the block's first test step, or its end
        block = slice(start, stop)
        test_mapes = trace.cumulative_mape[split - train:stop - train].tolist()
        mape = chain(repeat("", split - start), test_mapes)  # a train row's MAPE is ""
        raw, means = trace.raw_prediction[block], trace.deviant_mean_after[block]
        mean_bits = memoryview(means.tobytes()).cast("q")
        tails = {bits: f",{format_real(mean)}\n" for bits, mean in dict(zip(mean_bits, means)).items()}
        keys = zip(trace.previous_class[block], raw, memoryview(raw.tobytes()).cast("q"),
                   trace.predicted_class[block], trace.expected_class[block], trace.abs_error[block])
        rows = zip(range(start + 1, stop + 1), map(heads.__getitem__, keys), mape,
                   map(tails.__getitem__, mean_bits))
        template = _TRAIN_ROW * (split - start) + _TEST_ROW * (stop - split)
        return (template % tuple(chain.from_iterable(rows)),)

    _write_blocks(stream, TRACE_HEADER, len(trace), block_rows)


def _reals(texts: list[str]) -> array:
    return array("d", map(float, texts))


def _integers(texts: list[str]) -> array:
    values = list(map(int, texts))
    try:
        return array("q", values)
    except OverflowError:
        text = next(text for text, value in zip(texts, values) if not -2**63 <= value < 2**63)
        raise ValueError(f"integer {text!r} outside the 64-bit range") from None


def _distinct(convert: Callable[[list[str]], array], texts: list[str]) -> tuple[list[str], array]:
    """The distinct texts of texts, first occurrence first, and convert's values of them."""
    distinct = list(dict.fromkeys(texts))
    return distinct, convert(distinct)


_SMALL_COLUMNS = (_integers, _reals, _integers, _integers, _integers, _reals)  # see _parse_rows


def _parse_rows(rows: list[str], step: int, after_test: bool, expand: bool = True) -> tuple:
    """The rows as PredictionTrace's seven columns, or ValueError naming a problem.

    step is the first row's step number, and after_test whether a test row came before it: the
    steps count up by one, and no train row follows a test row. Integers are array('q'), reals
    array('d').
    The six _SMALL_COLUMNS (previous_class to abs_error, and deviant_mean_after)
    are checked once per distinct text, and left as _distinct gives them unless expand;
    step and cumulative_mape, whose texts seldom repeat, are converted field by field.
    Each check runs over all rows before the next starts, in the order in which they run on
    one row, so for a single row the message names its first problem: the phase and its order,
    cumulative_mape, then the other fields in file order, a step's number as soon as it converts.
    """
    text = ",".join(rows)
    if not text.isascii():  # a flag CPython keeps on the string: no scan
        raise ValueError(f"non-ASCII character {next(c for c in text if not c.isascii())!r}")
    commas = list(map(str.count, rows, repeat(",")))
    if set(commas) != {8}:
        raise ValueError(f"expected 9 fields, got {next(c for c in commas if c != 8) + 1}")
    table = text.split(",")
    index, phase, *small, mape_fields, mean = (table[position::9] for position in range(9))
    small.append(mean)  # the six columns of _SMALL_COLUMNS
    if not set(phase) <= {TRAIN, TEST}:
        raise ValueError(f"bad phase {next(p for p in phase if p not in (TRAIN, TEST))!r}")
    trains = 0 if after_test else phase.count(TRAIN)  # the rows before the first test row
    if TRAIN in phase[trains:]:
        raise ValueError("train step after a test step")
    mape_texts = mape_fields[trains:]
    if any(mape_fields[:trains]):
        raise ValueError("train step carries cumulative_mape")
    if not all(mape_texts):
        raise ValueError("test step missing cumulative_mape")
    mape, steps = _reals(mape_texts), _integers(index)
    if steps != array("q", range(step, step + len(rows))):
        offset = next(offset for offset, number in enumerate(steps) if number != step + offset)
        raise ValueError(f"step {index[offset]!r} out of sequence: expected {step + offset}")
    converted = list(map(_distinct, _SMALL_COLUMNS, small))
    if "_" in text:
        raise ValueError(f"digit separator '_' in {next(f for f in table if '_' in f)!r}")
    for texts, column in ((mape_texts, mape), converted[1], converted[5]):
        if not all(map(math.isfinite, column)):
            bad = next(text for text, value in zip(texts, column) if not math.isfinite(value))
            raise ValueError(f"non-finite real {bad!r}")
    if min(mape, default=0.0) < 0:  # a mean of |error| / expected; -0.0 passes
        bad = next(text for text, value in zip(mape_texts, mape) if value < 0)
        raise ValueError(f"negative cumulative_mape {bad!r}")
    if expand:  # each row's value, through its text
        converted = [array(values.typecode,
                           list(map(dict(zip(distinct, values)).__getitem__, texts)))
                     for texts, (distinct, values) in zip(small, converted)]
    return *converted, mape


def _parsed_blocks(lines: Iterable[str], expand: bool) -> Iterator[tuple]:
    """_parse_rows of each block of the first trace block's rows, expand as given; see read_columns."""
    lines = iter(lines)
    header = next(lines, None)
    if header is None:
        raise TraceFormatError(1, "empty trace file")
    if header.rstrip("\r\n") != TRACE_HEADER:
        raise TraceFormatError(1, "missing or wrong trace header")
    rows = takewhile(bool, map(str.rstrip, lines, repeat("\r\n")))
    first_line, after_test = 2, False  # the line of the block's first row; a test row before it
    while block := list(islice(rows, BLOCK_ROWS)):
        try:
            columns = _parse_rows(block, first_line - 1, after_test, expand)
        except ValueError:  # name the block's first row to fail alone
            for offset, row in enumerate(block):
                try:
                    after_test = bool(_parse_rows([row], first_line - 1 + offset, after_test, False)[-1])
                except ValueError as exc:
                    raise TraceFormatError(first_line + offset, str(exc)) from exc
            raise
        after_test = bool(columns[-1])  # after a test row, every row is one
        yield columns
        first_line += BLOCK_ROWS
    if first_line == 2:
        raise TraceFormatError(2, "trace has no step rows")


def read_columns(lines: Iterable[str]) -> tuple:
    """The first trace block of an iterable of lines, as _parse_rows's seven columns.

    Stops at the first blank line. Reals come back at the precision
    they were written with. Raises TraceFormatError with the 1-based
    line number on any malformed content: a row that is not ASCII, a wrong field count
    or phase, a train row after a test row, a misplaced cumulative_mape, a step that is not
    the row's number, a field int() or float() refuses, an integer outside [-2**63, 2**63),
    a '_' anywhere (int() and float() would read it as a digit separator), a real that is
    not finite, or a negative cumulative_mape. Rows are read and parsed BLOCK_ROWS at a
    time, each block column by column, so no line past the block of the first bad row is
    read; a block that fails is parsed again row by row, in order, carrying the phase, and
    its first row to fail alone is the one named.
    """
    blocks = _parsed_blocks(lines, True)
    columns = next(blocks)
    for block in blocks:
        for column, more in zip(columns, block):
            column.extend(more)
    return columns


def read_cumulative_mape(lines: Iterable[str]) -> array:
    """read_columns(lines)[-1], every row checked alike, holding no other column past its block."""
    column = array("d")
    for *_, mape in _parsed_blocks(lines, False):
        column.extend(mape)
    return column
