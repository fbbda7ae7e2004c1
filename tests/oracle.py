"""Independent, deliberately naive references that the tests check symcast against.

encode_reference re-derives the integer-class encoding: an explicit padded
matrix, float division by the global maximum, positional float equality,
string binarization (match_reference, which also gives the match values),
and a nested slot-filling loop. It shares no code with symcast.encoder. Keep
it dumb; do not "optimize" it toward the real encoder. encode_report_reference
and decoded_report_reference write the encode CSV and the --decode block one
csv.writer row at a time, so csv alone decides what is quoted; each row
ends in "\n", and csv quotes a field holding "\r" or "\n".

The functions after it walk, write, read and decode a trace one step or one
line at a time, and place the report chart's points one at a time, the way
symcast did before it worked on columns. They use only the learner's scalar
step and decode_class from symcast. round_half_away_from_zero is the scalar
rounding rule that the walk applies to whole columns.

read_trace_whole is the trace reader as it was before it read in blocks:
every row up to the first blank line is parsed as one block by the
pipeline's own row parser, halved down to its first bad line on failure.
It checks the block-wise reader's offsets and joins, not the parsing. Its
halving is a search of its own, not a copy of the reader's, which parses a
failed block again row by row, in order.
"""

import csv
import io
import math

from itertools import repeat, takewhile

from symcast.encoder import decode_class
from symcast.errors import TraceFormatError
from symcast.learner import Learner
from symcast.pipeline import PredictionTrace
from symcast.tracetext import _parse_rows


def match_reference(corpus, reference_index):
    """Return (values, scales): each row's agreement bits against the reference row.

    values[r] is row r's bit string read as a base-2 int, first cell first;
    scales[r] is values[r] over the largest value, by float division.
    """
    n_rows = len(corpus)
    width = max(len(word) for word in corpus)

    matrix = [[0] * width for _ in range(n_rows)]
    for r, word in enumerate(corpus):
        for c, ch in enumerate(word):
            matrix[r][c] = ord(ch)

    global_max = max(max(row) for row in matrix)
    scaled = [[cell / global_max for cell in row] for row in matrix]

    reference_row = scaled[reference_index]
    bit_strings = []
    for row in scaled:
        bits = ""
        for c in range(width):
            bits += "1" if row[c] == reference_row[c] else "0"
        bit_strings.append(bits)

    values = [int(bits, 2) for bits in bit_strings]
    value_max = max(values)
    return values, [value / value_max for value in values]


def encode_reference(corpus, class_level, reference_index):
    """Return (classes, memory_slots) for a list of symbol strings.

    classes is a list of ints in [1, class_level]; memory_slots is a list of
    class_level entries, each None or the last symbol that landed on it.
    """
    _, scales = match_reference(corpus, reference_index)
    classes = [math.floor(class_level ** scale) for scale in scales]

    slots = [None] * class_level
    for r in range(len(corpus)):
        for j in range(1, class_level + 1):
            if classes[r] == j:
                slots[j - 1] = corpus[r]

    return classes, slots


def _write_row(stream, fields):
    """One csv.writer row ending in "\n"; csv is given "\r\n" so that it quotes a lone CR."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\r\n").writerow(fields)
    stream.write(line.getvalue()[:-2] + "\n")


def encode_report_reference(encoded, corpus, stream):
    """The `symcast encode` CSV, one csv.writer row per corpus row and per class slot."""
    _write_row(stream, ["row_index", "symbol", "match_value", "scale", "class"])
    for row, (symbol, score, cls) in enumerate(
        zip(corpus.items, encoded.scores, encoded.classes.classes), start=1
    ):
        _write_row(stream, [row, symbol, score.value, f"{score.scale:.6f}", cls])
    stream.write("\n")
    _write_row(stream, ["class", "symbol"])
    for slot, symbol in enumerate(encoded.memory.slots, start=1):
        _write_row(stream, [slot, "[]" if symbol is None else symbol])


def decoded_report_reference(decoded, stream):
    """The `predict --decode` block, one csv.writer row per step."""
    _write_row(stream, ["predicted_symbol", "expected_symbol", "exact"])
    for predicted, expected, exact in zip(*decoded):
        _write_row(stream, [predicted, expected, "true" if exact else "false"])


def series_report_reference(series, stream):
    """The `report` series file, one csv.writer row per test step."""
    _write_row(stream, ["test_step", "cumulative_mape"])
    for step, value in enumerate(series, start=1):
        _write_row(stream, [step, f"{value:.6f}"])


TRAIN = "train"
TEST = "test"
TRACE_HEADER = (
    "step,phase,prev_class,raw_prediction,predicted_class,expected_class,"
    "abs_error,cumulative_mape,deviant_mean"
)


def round_half_away_from_zero(value):
    whole = math.trunc(value)
    fraction = value - whole
    if fraction >= 0.5:
        return whole + 1
    if fraction <= -0.5:
        return whole - 1
    return whole


def walk_reference(classes, class_level, learner_config, train_fraction,
                   freeze_after_train, learning):
    """Return (rows, series): one StepRecord-ordered tuple per step and the running test MAPE.

    Each step predicts from its predecessor plus the learner's mean,
    rounded half away from zero and clamped to [1, class_level], and
    learns with learn_step unless the walk does not learn or is frozen
    in the test phase.
    """
    learner = Learner(learner_config)
    split = max(1, math.floor(train_fraction * len(classes)))
    rows = []
    series = []
    ratio_sum = 0.0
    for index in range(1, len(classes)):
        previous = classes[index - 1]
        expected = classes[index]
        phase = TRAIN if index < split else TEST
        raw = previous + learner.deviant_mean
        if learning and not (freeze_after_train and phase == TEST):
            learner.learn_step(previous, expected)
        predicted = min(max(round_half_away_from_zero(raw), 1), class_level)
        abs_error = abs(predicted - expected)
        rows.append((index, phase, previous, raw, predicted, expected, abs_error,
                     learner.deviant_mean))
        if phase == TEST:
            ratio_sum += abs_error / expected
            series.append(100.0 * ratio_sum / (len(series) + 1))
    return rows, series


def _format_real(value):
    return f"{value:.6f}" if abs(value) < 1e15 else f"{value:.6e}"


def write_trace_reference(rows, series):
    """The trace text, one line per step."""
    lines = [TRACE_HEADER + "\n"]
    mape_values = iter(series)
    for index, phase, previous, raw, predicted, expected, abs_error, mean in rows:
        mape_field = f"{next(mape_values):.6f}" if phase == TEST else ""
        lines.append(
            f"{index},{phase},{previous},{_format_real(raw)},{predicted},"
            f"{expected},{abs_error},{mape_field},{_format_real(mean)}\n"
        )
    return "".join(lines)


def _int64(text):
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"integer {text!r} outside the 64-bit range")
    return value


def read_trace_reference(lines):
    """Parse the first trace block line by line; returns (rows, series).

    Raises ValueError((line_number, message)) where the pipeline's reader
    raises TraceFormatError. A row must be ASCII, which is checked first;
    it accepts whatever int() and float() then accept, integers only in
    [-2**63, 2**63).
    """
    rows = []
    series = []
    header_seen = False
    for line_number, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not header_seen:
            if line != TRACE_HEADER:
                raise ValueError((line_number, "missing or wrong trace header"))
            header_seen = True
            continue
        if line == "":
            break
        if not line.isascii():
            character = next(c for c in line if not c.isascii())
            raise ValueError((line_number, f"non-ASCII character {character!r}"))
        fields = line.split(",")
        if len(fields) != 9:
            raise ValueError((line_number, f"expected 9 fields, got {len(fields)}"))
        try:
            phase = fields[1]
            if phase not in (TRAIN, TEST):
                raise ValueError(f"bad phase {phase!r}")
            if phase == TEST:
                if fields[7] == "":
                    raise ValueError("test step missing cumulative_mape")
                series.append(float(fields[7]))
            elif fields[7] != "":
                raise ValueError("train step carries cumulative_mape")
            rows.append((_int64(fields[0]), phase, _int64(fields[2]), float(fields[3]),
                         _int64(fields[4]), _int64(fields[5]), _int64(fields[6]), float(fields[8])))
        except ValueError as exc:
            raise ValueError((line_number, str(exc))) from exc
    if not header_seen:
        raise ValueError((1, "empty trace file"))
    if not rows:
        raise ValueError((2, "trace has no step rows"))
    return rows, series


def read_trace_whole(lines):
    """Parse the first trace block as one block; raises TraceFormatError as read_trace does.

    The pipeline's row parser gives the columns, which are wrapped in one
    PredictionTrace. The halving search for the first bad line is
    independent of read_trace's in-order rescan of a failed block, so each
    checks the line that the other names.
    """
    lines = iter(lines)
    header = next(lines, None)
    if header is None:
        raise TraceFormatError(1, "empty trace file")
    if header.rstrip("\r\n") != TRACE_HEADER:
        raise TraceFormatError(1, "missing or wrong trace header")
    rows = list(takewhile(bool, map(str.rstrip, lines, repeat("\r\n"))))
    if not rows:
        raise TraceFormatError(2, "trace has no step rows")
    try:
        return PredictionTrace(*_parse_rows(rows))
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
            raise TraceFormatError(low + 2, str(exc)) from exc
        raise


def decode_reference(pairs, memory):
    """(predicted_symbol, expected_symbol, exact) per (predicted, expected) pair, in order.

    Decodes every class with symcast.encoder.decode_class, predicted first,
    so the first bad class raises.
    """
    decoded = []
    for predicted, expected in pairs:
        predicted_symbol, predicted_exact = decode_class(predicted, memory)
        expected_symbol, expected_exact = decode_class(expected, memory)
        decoded.append((predicted_symbol, expected_symbol, predicted_exact and expected_exact))
    return decoded


def svg_points_reference(series):
    """The report chart's polyline points, computed one point at a time."""
    width, height, margin = 640, 360, 48
    top = max(max(series), 1e-9)
    n = len(series)

    def x_at(i):
        return margin + (width - 2 * margin) * (i / (n - 1) if n > 1 else 0.5)

    def y_at(value):
        return height - margin - (height - 2 * margin) * (value / top)

    return " ".join(f"{x_at(i):.2f},{y_at(v):.2f}" for i, v in enumerate(series))
