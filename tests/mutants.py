"""Mutation gate: every mutant in MUTANTS must be killed by the tests its row names.

Run from the root of the repository (it is not part of the pytest suite):

    python3 tests/mutants.py

Each row names a file under src/, a text that must occur in it exactly
once, the text that replaces it, why the change matters, whether the tests
are expected to kill it ("killed") or cannot, because it does not change
behaviour ("equivalent"), and the pytest targets that kill it. The script
copies src/, tests/, perfbench/, pyproject.toml and README.md to WORKERS
temporary directories, applies one mutant at a time in each, so that
WORKERS rows run at once, and runs `pytest -x` on the row's targets, under
the `mutants` Hypothesis profile of tests/conftest.py, which does not
shrink a failing example: a kill needs a failure, not its smallest form.
The checkout is never written to. Equivalent rows are only checked for their
old text, not run.

The union of all targets is first run unmutated, in one pytest run, and
must pass. A mutant counts as killed only when a test fails (pytest exit
status 1); a collection error or a missing target is reported as a problem.
The exit status is 1 when a killed mutant survives, when any run goes wrong
that way, or when an old text no longer occurs exactly once in its file (the
code moved: update the row).
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # scratch copies whose rows run at once, one per CPU of a 2-vCPU VM


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str
    expect: str  # "killed" or "equivalent"
    targets: tuple[str, ...]


ENCODER = "src/symcast/encoder.py"
TRACE_TEXT = "src/symcast/tracetext.py"
DISTINCT = "tests/test_encoder.py::TestDistinctValues"
KEPT = "tests/test_learner.py::TestKeptOutcomes"
SEARCH = "tests/test_learner.py::TestSearchStart"
STEP_ORACLE = "tests/test_learner.py::TestLearnStepAgainstTheOracle"
ENCODE_CLI = "tests/test_cli.py::TestEncode"
NARROW = "tests/test_encoder.py::TestNarrowCodes"
BLOCKWISE = "tests/test_pipeline.py::TestBlockwiseTraceIO"
TWO_FAULTS = ("tests/test_pipeline.py::TestReaderOracle::"
              "test_a_row_with_two_bad_fields_is_named_by_its_first")
RANKED = "tests/test_learner.py::TestRanked"
ENCODE_BLOCKS = "tests/test_cli.py::TestEncodeReportAcrossBlocks"
FIXED_WIDTH = "tests/test_encoder.py::TestFixedWidthTransform"
MATRIX_SHAPE = "tests/test_encoder.py::TestSymbolMatrixShape"
NAMESPACE = "tests/test_api.py::test_the_namespace_is_each_modules_own_public_names"
NON_ASCII_DIGIT = ("tests/test_pipeline.py::TestReaderOracle::"
                   "test_a_non_ascii_digit_is_refused_with_its_line")
FIRST_BAD_LINE = "tests/test_cli.py::TestReport::test_the_first_bad_line_in_the_file_is_named"
LEARN_STEPS = "tests/test_learner.py::TestLearnSteps"
DISTINCT_TEXTS = "tests/test_pipeline.py::TestDistinctTexts"
REPORT_BLOCKS = "tests/test_pipeline.py::TestBlockwiseReportWriters"
WRITES = "tests/test_cli.py::TestOneWriteABlock"
NEGATIVE_MAPE = "tests/test_cli.py::TestReport::test_a_negative_mape_is_an_input_error"
CHART = "tests/test_pipeline.py::TestReportChart"
CLASS_SEQUENCE = "tests/test_encoder.py::TestClassSequence"
CONFIG_FILE = "tests/test_cli.py::TestConfigFile"
READ_ONLY = "tests/test_api.py::test_array_fields_stay_read_only_however_the_record_is_made"
FROZEN = "tests/test_api.py::TestRecordContract::test_fields_cannot_be_assigned"
PAST_THE_END = "tests/test_cli.py::TestPredict::test_a_reference_row_past_the_end_is_named_as_given"
LAZY_NAMESPACE = "tests/test_api.py::TestLazyNamespace"
CONFIG_UTF8 = ("tests/test_cli.py::TestConfigFile::"
               "test_a_config_file_not_in_utf8_names_the_file_and_line")
PIPELINE = "src/symcast/pipeline.py"
CONFIG = "src/symcast/config.py"
LEARNER = "src/symcast/learner.py"
STDLIB_ENCODER = "tests/test_encoder.py::TestStdlibEncoder"
GRID_EDGE = "tests/test_learner.py::TestGridEdgeWindows"
MATRIX_FROM_VIEW = "tests/test_encoder.py::TestSymbolMatrixFromAView"
WINNERS_MEAN = "tests/test_learner.py::TestWinnersMean"
COLUMNS = "tests/test_api.py::TestColumns"
LENGTH_RULE = "tests/test_pipeline.py::TestTraceLengthRule"
WALK_ORACLE = "tests/test_pipeline.py::TestColumnarWalkOracle"
WALK_BITS = "tests/test_pipeline.py::TestWalkColumnsBitForBit"
NONZERO_TESTS = ("tests/test_pipeline.py::TestBlockwiseTraceIO::"
                 "test_any_nonzero_is_test_writes_a_test_row")
REPORT_REFUSES = ("tests/test_pipeline.py::TestReportReader::"
                  "test_report_refuses_what_read_trace_refuses")
REPORT_PEAK = "tests/test_pipeline.py::TestReportReader::test_the_peak_grows_by_under_16_bytes_a_row"
TUPLE_FIELDS = ("tests/test_api.py::TestFrozenBase::"
                "test_a_tuple_field_given_a_list_holds_a_tuple_of_it")
INTEGER_COUNTS = "tests/test_learner.py::TestIntegerCounts"
NEGATIVE_ZERO = ("tests/test_pipeline.py::TestTraceSerialization::"
                 "test_a_negative_zero_keeps_its_sign_beside_a_positive_one")
FLAG_TABLE = "tests/test_readme.py::test_the_flag_table_matches_the_parser"
HINTS = "tests/test_api.py::test_the_type_hints_of_every_public_callable_resolve"
INTEGER_LEVEL = ("tests/test_encoder.py::TestClassSequence::"
                 "test_a_level_that_is_not_an_int_is_refused")
SUMMARY = "tests/test_cli.py::TestPredict::test_summary_on_stdout_when_trace_goes_to_a_file"

# _parse_rows's conversions as they are, and with cumulative_mape's moved after the others
MAPE_CONVERTED_FIRST = (
    "    mape, steps = _reals(mape_texts), _integers(index)\n"
    "    converted = list(map(_distinct, _SMALL_COLUMNS, small))\n"
)
MAPE_CONVERTED_LAST = (
    "    steps = _integers(index)\n"
    "    converted = list(map(_distinct, _SMALL_COLUMNS, small))\n"
    "    mape = _reals(mape_texts)\n"
)

MUTANTS = [
    # The class rule's one home: a ClassSequence refuses a bad class or level when built.
    Mutant(ENCODER, "if not 1 <= cls <= self.class_level}", "if not 0 <= cls <= self.class_level}",
           "class 0 has no slot: build_sensor_memory would fill the top class's", "killed",
           (CLASS_SEQUENCE,)),
    Mutant(ENCODER, "        check_class_level(self.class_level)\n", "",
           "a level outside 2..10 is refused where the sequence is built", "killed",
           (CLASS_SEQUENCE,)),
    Mutant(ENCODER, "next(cls for cls in self.classes if cls in outside)", "min(outside)",
           "the first bad class in sequence order is named, not the smallest", "killed",
           (CLASS_SEQUENCE,)),
    # Scoring each distinct match value once.
    Mutant(ENCODER, "max_value = values[-1]", "max_value = values[0]",
           "the maximum is the last distinct value, not the first", "killed", (DISTINCT,)),
    Mutant(ENCODER, "map(distinct_classes.__getitem__, index)",
           "map(distinct_classes.__getitem__, index[::-1])",
           "rows take their classes through the score index in row order", "killed",
           (DISTINCT,)),
    Mutant(ENCODER, "self.distinct.__getitem__, self.score_index)",
           "self.distinct.__getitem__, sorted(self.score_index))",
           "dropping the score index leaves rows in value order", "killed", (DISTINCT,)),
    Mutant(ENCODER, 'f"V{8 * words.shape[1]}"', '"V8"',
           "the void spans the packed row, whatever its width", "killed", (DISTINCT,)),
    # swap_match, the numpy reference, returns per-row scores, so the order of its distinct
    # values shows only in their scales; the reference row, the maximum, sorts last either way.
    Mutant(ENCODER, "np.lexsort(words.T[::-1])", "np.lexsort(words.T)",
           "the first word is the most significant: past 64 cells the distinct scores "
           "would not ascend, though the reference row, the maximum, still sorts last",
           "equivalent", ()),
    Mutant(ENCODER, "-matrix.width % 64", "-matrix.width % 8",
           "a packed row reads as 64-bit words only when padded to whole words", "killed",
           (DISTINCT,)),
    Mutant(ENCODER, '.view(">u8")', '.view("<u8")',
           "a word's first byte is its most significant, so the words sort by value",
           "equivalent", ()),
    Mutant(ENCODER, "np.r_[True,", "np.r_[False,",
           "the first row in value order starts the first distinct value", "killed", (DISTINCT,)),
    Mutant(ENCODER, ".any(axis=1)]", ".all(axis=1)]",
           "rows that differ in any byte hold different values", "killed", (DISTINCT,)),
    Mutant(ENCODER, "index[order] = np.cumsum", "index[:] = np.cumsum",
           "the value labels are in sorted order and must go back to their rows", "killed",
           (DISTINCT,)),
    Mutant(ENCODER, "out=agree[:, pad:]", "out=agree[:, :matrix.width]",
           "padding on the right would shift every value left", "killed", (DISTINCT,)),
    # The code matrix, through fixed-width numpy strings.
    Mutant(ENCODER, "else np.uint32)", "else np.uint16)",
           "a cell of a non-ASCII corpus holds a whole code point, astral or lone surrogate "
           "too, as ord() gives it", "killed", (FIXED_WIDTH,)),
    Mutant(ENCODER, "return self.codes.shape[1]", "return self.codes.shape[0]",
           "width is the codes' second axis: a matrix's shape has one source", "killed",
           (MATRIX_SHAPE,)),
    Mutant(ENCODER, '"S" if narrow else "U"', '"U" if narrow else "S"',
           "an ASCII corpus is held as bytes, any other as 32-bit code points", "killed",
           (FIXED_WIDTH,)),
    # The one frozen base of the records: equality by value, frozen fields, read-only arrays
    # however the record is made.
    Mutant(ENCODER, "return vars(self) == vars(other)",
           "return vars(self).keys() == vars(other).keys()",
           "two encodings whose rows index different scores differ, and so do two matrices "
           "of one shape with different codes", "killed",
           ("tests/test_api.py::TestEncodedCorpusEquality",
            "tests/test_api.py::TestSymbolMatrixEquality")),
    Mutant(ENCODER, "value = view.toreadonly()", "value = view",
           "a record's arrays are read-only, so a frozen record cannot change under its owner",
           "killed", (READ_ONLY,)),
    Mutant(ENCODER, "if kind in _FORMATS}", "if kind in (Ints, Reals)}",
           "under the __future__ import an annotation is text, so the class would match no "
           "field", "killed", (READ_ONLY,)),
    Mutant(ENCODER, "    def __reduce__(self):", "    def _reduce(self):",
           "copy and pickle skip the column conversion unless they rebuild through the "
           "constructor", "killed", (READ_ONLY,)),
    Mutant(ENCODER, 'raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot '
           'change")', "object.__setattr__(self, name, *value)",
           "a frozen record's fields cannot be assigned or deleted", "killed", (FROZEN,)),
    Mutant(ENCODER, "return type(self)(**{**dict(zip(self._fields, self.__reduce__()[1])), "
           "**changes})",
           "return (lambda made: vars(made).update(vars(self), **changes) or made)"
           "(object.__new__(type(self)))",
           "_replace builds through the constructor, so the arrays it is given become read-only "
           "views too", "killed", (READ_ONLY,)),
    # The byte-wide code matrix of an ASCII corpus.
    Mutant(ENCODER, "narrow = _checked_text(corpus).isascii()",
           "narrow = _checked_text(corpus).isascii() or True",
           "only an ASCII corpus fits one byte per cell", "killed", (NARROW,)),
    Mutant(ENCODER, "narrow = _checked_text(corpus).isascii()",
           "narrow = _checked_text(corpus).isascii() and False",
           "an ASCII corpus is held one byte per cell", "killed", (NARROW,)),
    Mutant(ENCODER, 'repeat("big")', 'repeat("little")',
           "a packed row reads MSB-first, its first cell the highest bit", "killed",
           ("tests/test_encoder.py::TestSwapMatch",)),
    Mutant(PIPELINE, "if len(column) != count:", "if len(column) > count:",
           "a trace whose columns differ in length never passes for a whole one: equality "
           "compares lengths, and a shorter column is refused where the trace is built",
           "killed", (LENGTH_RULE, "tests/test_api.py::TestPredictionTraceEquality")),
    # The encode CSV.
    Mutant("src/symcast/cli.py", "    sys.set_int_max_str_digits(0)\n", "",
           "a row of more than about 14,300 cells has a match value past 4,300 digits",
           "killed", (ENCODE_CLI,)),
    Mutant("src/symcast/cli.py", "sys.set_int_max_str_digits(limit)",
           "sys.set_int_max_str_digits(0)",
           "the digit limit is lifted only while the match values are formatted", "killed",
           (ENCODE_CLI,)),
    Mutant("src/symcast/cli.py", "if not any(special in joined",
           "if True or not any(special in joined",
           "a symbol holding a comma or a quote must be quoted", "killed", (ENCODE_CLI,)),
    # One block writer for every output, and each caller's own rows for each block.
    Mutant(TRACE_TEXT, "block_rows(start, start + BLOCK_ROWS)",
           "block_rows(start, start + BLOCK_ROWS + 1)",
           "a block ends where the next begins, so no row is written twice", "killed",
           (REPORT_BLOCKS, ENCODE_BLOCKS, BLOCKWISE)),
    Mutant(TRACE_TEXT, 'stream.write("".join(block_rows(',
           "stream.writelines((block_rows(",
           "each block goes out in one write of its joined rows", "killed", (WRITES,)),
    Mutant(TRACE_TEXT, "block = slice(start, stop)",
           "block = slice(0, stop - start)",
           "each trace block formats its own steps", "killed", (BLOCKWISE,)),
    Mutant("src/symcast/cli.py", "rows[start:stop]", "rows[:stop - start]",
           "each decoded block writes its own rows", "killed", (REPORT_BLOCKS,)),
    Mutant("src/symcast/cli.py", "series[start:stop]", "series[:stop - start]",
           "each series block writes its own values", "killed", (REPORT_BLOCKS,)),
    # The encode CSV's texts, one per distinct score, written a block at a time.
    Mutant("src/symcast/cli.py", "map(texts.__getitem__, index[start:stop])",
           "map(texts.__getitem__, index[:stop - start])",
           "each block takes its own rows' texts through the score index", "killed",
           (ENCODE_BLOCKS,)),
    Mutant("src/symcast/cli.py", "dict(zip(index, encoded.classes.classes))",
           "dict.fromkeys(index, 1)",
           "each score's text carries the class of its rows", "killed", (ENCODE_BLOCKS,)),
    Mutant("src/symcast/cli.py", "_csv_fields(corpus.items[start:stop])",
           "(corpus.items[start:stop] if start else _csv_fields(corpus.items[start:stop]))",
           "each block quotes its own symbols, a later one too", "killed", (ENCODE_BLOCKS,)),
    # Quoting a lone CR.
    Mutant("src/symcast/cli.py", """_SPECIALS = ',"\\r\\n'""", """_SPECIALS = ',"\\n'""",
           "a symbol whose only special character is a lone CR must be quoted", "killed",
           ("tests/test_cli.py::TestWritersAgainstReference",)),
    # The CSV quoting rule itself.
    Mutant("src/symcast/cli.py", """text.replace('"', '""')""", "text",
           "a quote inside a quoted field is doubled", "killed",
           ("tests/test_cli.py::TestWritersAgainstReference",)),
    # The learner's kept outcomes.
    Mutant("src/symcast/learner.py", "key = (mean if mean else mean.hex(),", "key = (mean,",
           "-0.0 and 0.0 step apart under a bias of -0.0", "killed", (KEPT,)),
    Mutant("src/symcast/learner.py",
           "            self.deviant_mean = outcome.new_deviant_mean\n", "",
           "a repeated step must still move the mean", "killed", (KEPT,)),
    Mutant("src/symcast/learner.py",
           "            self.steps_seen += 1\n            return outcome", "            return outcome",
           "a repeated step still counts as a step", "killed", (KEPT,)),
    Mutant("src/symcast/learner.py", "if len(self._outcomes) < MEMO_ENTRIES:", "if True:",
           "the store of kept outcomes is capped", "killed", (KEPT,)),
    # The walk's one loop through the kept outcomes.
    Mutant("src/symcast/learner.py", "outcomes.get((mean if mean else mean.hex(),",
           "outcomes.get((mean,",
           "a zero mean is kept under its hex form: keyed by the float, every step from a "
           "zero mean would miss and call learn_step", "killed", (LEARN_STEPS,)),
    Mutant("src/symcast/learner.py",
           "self.steps_seen = mean, seen + len(means)\n                outcome =",
           "self.steps_seen = mean, self.steps_seen\n                outcome =",
           "a step that raises after kept steps names its place in the whole run", "killed",
           (LEARN_STEPS,)),
    Mutant("src/symcast/learner.py",
           "self.deviant_mean, self.steps_seen = mean, seen + len(means)\n                outcome =",
           "self.steps_seen = seen + len(means)\n                outcome =",
           "a new step starts from the mean the kept steps before it left", "killed",
           (LEARN_STEPS,)),
    Mutant(LEARNER, "if count >= 8:", "if count >= 9:",
           "numpy adds 8 or more values pairwise, not in order", "killed", (WINNERS_MEAN,)),
    Mutant(LEARNER, "(0.0 + _pairwise_sum(winners))", "(_pairwise_sum(winners))",
           "numpy's sum starts from 0.0, so -0.0 winners average to 0.0", "killed",
           (WINNERS_MEAN,)),
    Mutant("src/symcast/learner.py", "-population_size <= x <= population_size",
           "-population_size < x < population_size",
           "moves only where the search starts, not what it finds", "equivalent", ()),
    # The learner's winner search.
    Mutant("src/symcast/learner.py", "if left_size == lowest:  # a longer run of ties", "if False:",
           "a tied run longer than one index on the left is ranked as a whole", "killed",
           (STEP_ORACLE,)),
    Mutant("src/symcast/learner.py", "return math.ceil(x) - 1", "return math.ceil(x) + 4",
           "the walk steps at most three times from the computed start", "killed", (SEARCH,)),
    Mutant("src/symcast/learner.py", "return population_size  # the far end", "return 0",
           "a reciprocal never reaches a target of the other sign: the bottom is the far end",
           "killed", (SEARCH,)),
    Mutant("src/symcast/learner.py", "while not sizes[reach - 1] > sizes[reach] < sizes[reach + 1]:",
           "while not sizes[reach - 1] >= sizes[reach] <= sizes[reach + 1]:",
           "only a strict local minimum of a weak V is the global one", "killed", (STEP_ORACLE,)),
    Mutant("src/symcast/learner.py", "elif target * mean > 0:", "elif True:",
           "a weakening reciprocal crosses only a target of the mean's sign", "killed",
           (STEP_ORACLE,)),
    Mutant("src/symcast/learner.py", "tuple(abs(part(index)) for part in signed_parts)",
           "(abs(signed_parts[0](index)),)",
           "indices that tie on |residual| are ranked by |candidate| before their index",
           "killed", (RANKED,)),
    # The window around the computed bottom, evaluated in one pass, and the outcome it makes.
    Mutant(LEARNER, "        if 0 <= index < population_size:\n            point",
           "        if 0 <= index <= population_size:\n            point",
           "the index past the last grid point is off the grid, as at the far end", "killed",
           (GRID_EDGE,)),
    Mutant(LEARNER, "candidates, sizes = _window(bottom - reach, bottom + reach + 1, step)\n        moves",
           "candidates, sizes = _window(bottom - 1, bottom + 2, step)\n        moves",
           "the window spans k indices each side, where the merge takes its winners", "killed",
           (STEP_ORACLE,)),
    Mutant(LEARNER, "or moves == 3:", "or moves == 0:",
           "the window moves towards a lower index before ranking the whole grid", "killed",
           (SEARCH,)),
    Mutant(LEARNER, "bottom += sizes.index(lowest) - reach", "bottom += 1",
           "the window moves to centre its lowest index, on either side", "killed", (SEARCH,)),
    Mutant(LEARNER, "return tuple(map(candidates.__getitem__, order))",
           "return tuple(map(candidates.__getitem__, sorted(order)))",
           "the winners come in merge order, not grid order", "killed", (STEP_ORACLE,)),
    Mutant(LEARNER, "if taken == (below if from_left else above):", "if False:",
           "a front that runs into a plateau leaves the order of its run to _ranked", "killed",
           (STEP_ORACLE,)),
    Mutant(LEARNER, "from_left = abs(candidates[left]) <= abs(candidates[right])",
           "from_left = True",
           "fronts that tie on |residual| are ordered by |candidate|", "killed", (STEP_ORACLE,)),
    Mutant(LEARNER, "(1 / config.population_size)  # grid[0]", "(2 / config.population_size)  # grid[0]",
           "the divisive rule falls back where the product with the first grid point is zero",
           "killed", (STEP_ORACLE,)),
    Mutant(LEARNER, "(raw, signed_diff, winners, self.deviant_mean, fallback))",
           "(raw, signed_diff, winners, self.deviant_mean))",
           "tuple.__new__ checks no arity, so the outcome must be given every field", "killed",
           ("tests/test_learner.py::TestLearnStep",)),
    # A record rebuilt from a whole view of more than one dimension; lines split only at a \r.
    Mutant(ENCODER, "if memoryview(value.obj) != value:", "if False:",
           "a view of part of a matrix is refused, or a copy would hold the whole", "killed",
           (MATRIX_FROM_VIEW,)),
    Mutant(ENCODER, "value = value.obj  # its own view", "value = value  # its own view",
           "array() copies one dimension: the whole object's view keeps the shape", "killed",
           (MATRIX_FROM_VIEW,)),
    Mutant("src/symcast/ingest.py", 'if "\\r" in text else text', 'if "\\r\\n" in text else text',
           "a lone CR ends a line in text that holds no CRLF", "killed",
           ("tests/test_ingest.py::TestLineEnds",)),
    Mutant(ENCODER, "min(len(rows), max(1, BLOCK_BYTES // (lane * cells)))",
           "max(1, BLOCK_BYTES // (lane * cells))",
           "a block holds no more rows than there are, so few rows build small ints", "killed",
           (STDLIB_ENCODER,)),
    # The walk's raw predictions, each from the mean held before its step.
    Mutant(PIPELINE, "map(add, previous, means)", "map(add, previous, means[1:])",
           "a step predicts with the mean it starts from, not the one it learns", "killed",
           ("tests/test_pipeline.py::TestColumnarWalkOracle",)),
    # Decoding each class once, in first-occurrence order.
    Mutant(PIPELINE, "dict.fromkeys(chain.from_iterable(zip(predicted, expected)))",
           "sorted(set(chain.from_iterable(zip(predicted, expected))))",
           "the first bad class in step order names the error, not the first in value order",
           "killed", ("tests/test_pipeline.py::TestDecoderOracle",)),
    # The trace's text columns and the corpus reader.
    Mutant(TRACE_TEXT, "abs(value) < 1e15", "abs(value) <= 1e15",
           "a real of exactly 1e15 prints in exponent form", "killed",
           ("tests/test_pipeline.py::TestTraceSerialization",)),
    Mutant(TRACE_TEXT, 'mean_bits = memoryview(means.tobytes()).cast("q")', "mean_bits = means",
           "keyed by value, -0.0 and 0.0 would share one text", "killed",
           ("tests/test_pipeline.py::TestTraceSerialization",)),
    # The order in which a trace row's fields convert.
    Mutant(TRACE_TEXT, MAPE_CONVERTED_FIRST, MAPE_CONVERTED_LAST,
           "each row converted its cumulative_mape before its other fields, so that error is "
           "named first", "killed", (TWO_FAULTS,)),
    # Trace rows written and read in blocks.
    Mutant(TRACE_TEXT, "TraceFormatError(first_line + offset, str(exc))",
           "TraceFormatError(2 + offset, str(exc))",
           "a bad row in a later block is named by its line in the file", "killed", (BLOCKWISE,)),
    Mutant(TRACE_TEXT, "first_line + offset", "first_line + offset + 1",
           "the rescan names a bad row by its own line, not the next", "killed", (BLOCKWISE,)),
    Mutant(TRACE_TEXT, "for offset, row in enumerate(block):",
           "for offset, row in reversed(list(enumerate(block))):",
           "of two bad rows in a block, the rescan names the first, not the last", "killed",
           (BLOCKWISE, TWO_FAULTS)),
    Mutant(TRACE_TEXT, "        mape_at += tests\n", "",
           "a block's test steps take the cumulative_mape values after all earlier test steps",
           "killed", (BLOCKWISE,)),
    Mutant(TRACE_TEXT, "while block := list(islice(rows, BLOCK_ROWS)):",
           "while block := list(islice(rows, 1 if first_line > 2 else BLOCK_ROWS)):",
           "rows past the first block keep their line numbers whatever the blocks hold",
           "killed", (BLOCKWISE,)),
    # Six columns read once per distinct text; each block of output text in one write.
    Mutant(TRACE_TEXT, "dict(zip(distinct, values))", "dict(zip(sorted(distinct), values))",
           "a distinct text's value goes to the rows that hold that text", "killed",
           (DISTINCT_TEXTS,)),
    Mutant(TRACE_TEXT, " _integers(index)\n", " _distinct(_integers, index)[1]\n",
           "step texts are all distinct, where the map costs 2.4 times more", "killed",
           (DISTINCT_TEXTS,)),
    Mutant("src/symcast/ingest.py", "filter(None,", "filter(str.strip,",
           "whitespace-only rows are corpus items", "killed",
           ("tests/test_ingest.py::TestReadTextCorpus",)),
    # The package namespace, built from each module's __all__.
    Mutant(PIPELINE, '"run_continual", "split_index",\n', '"run_continual",\n',
           "a name that leaves a module's __all__ leaves the package namespace", "killed",
           (NAMESPACE,)),
    Mutant(TRACE_TEXT, '__all__ = ["write_trace"]', "__all__: list[str] = []",
           "the trace writer is public from the module that holds the trace's text", "killed",
           (NAMESPACE,)),
    # Trace rows: ASCII only, integers in int64.
    Mutant(TRACE_TEXT, "if not text.isascii():", "if False:",
           "a row that is not ASCII is refused first, so a bad byte is named by its line and "
           "int() reads no other script's digits", "killed",
           (NON_ASCII_DIGIT, FIRST_BAD_LINE)),
    Mutant(TRACE_TEXT, "value < 2**63)", "value <= 2**63)",
           "2**63 is past int64, and its text is named", "killed",
           ("tests/test_pipeline.py::TestReaderOracle",)),
    # One line-end rule for a bad byte's line and for the lines themselves.
    Mutant("src/symcast/ingest.py", 'len(_lines(data[:exc.start].decode("utf-8")))',
           'data.count(b"\\n", 0, exc.start) + 1',
           "a lone CR ends a line before a bad byte too", "killed",
           (CONFIG_UTF8,)),
    # Numeric series: ASCII only.
    Mutant("src/symcast/ingest.py", " or not line.isascii()", "",
           "float() reads full-width and Arabic-Indic digits as ASCII ones", "killed",
           ("tests/test_ingest.py::TestReadNumericSeries",)),
    # One text rule for a running MAPE, and no negative one read.
    Mutant(TRACE_TEXT, 'MAPE_FORMAT = ".6f"', 'MAPE_FORMAT = ".5f"',
           "the trace, the series file, the summary and the chart print a MAPE to 6 places",
           "killed", ("tests/test_cli.py::TestReport::test_vehicle_series",)),
    Mutant(TRACE_TEXT, "    if min(mape, default=0.0) < 0:", "    if False:",
           "a running MAPE is never negative, and a negative one would chart off the plot",
           "killed", (NEGATIVE_MAPE, CHART)),
    # The settings' text parsers.
    Mutant("src/symcast/cli.py", '("false", "no", "0"):\n        return False',
           '("false", "no", "0"):\n        return True',
           "a config file's freeze_after_train = no leaves the learner learning", "killed",
           (CONFIG_FILE,)),
    Mutant("src/symcast/cli.py", 'if "=" not in line:', "if False:",
           "a config line without = is named as such, not as an unknown key", "killed",
           (CONFIG_FILE,)),
    Mutant("src/symcast/cli.py",
           'raise ValueError(f"reference must be last, first, or a row number, got {text!r}")'
           " from None", "raise",
           "a reference that is no name and no number is told what it may be, not int()'s "
           "message", "killed", ("tests/test_cli.py::TestPredict",)),
    # A config file is read once, so it may be a pipe.
    Mutant("src/symcast/cli.py", 'given["reference"][1]', '_given(args)["reference"][1]',
           "a second read of a pipe finds it empty, and the reference's source is lost",
           "killed", (PAST_THE_END,)),
    # A closed output pipe.
    Mutant("src/symcast/cli.py", "except BrokenPipeError:", "except ZeroDivisionError:",
           "a reader that closes standard output early is not a data error", "killed",
           ("tests/test_cli.py::TestEncode::test_a_closed_output_pipe_stops_quietly",)),
    # report and --version without numpy: a lazy namespace, stdlib columns, a float chart.
    Mutant("src/symcast/__init__.py",
           '        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")\n',
           "        return None\n",
           "a name no module lists is an AttributeError, as on any module", "killed",
           (LAZY_NAMESPACE,)),
    Mutant("src/symcast/__init__.py", "globals().update(public, __all__=list(public))",
           "globals().update(public)",
           "without __all__, `from symcast import *` would bind the modules too", "killed",
           (LAZY_NAMESPACE,)),
    Mutant("src/symcast/cli.py", "from . import __version__\n",
           "import numpy  # noqa: F401\nfrom . import __version__\n",
           "report and --version start without numpy", "killed",
           ("tests/test_cli.py::TestStartWithoutNumpy",)),
    Mutant(TRACE_TEXT, 'return array("q", values)', 'return array("Q", values)',
           "int64 is signed: -2**63 is read, and 2**63 is refused with its text", "killed",
           ("tests/test_pipeline.py::TestReaderOracle",)),
    Mutant(TRACE_TEXT, "if not all(map(math.isfinite, column)):",
           "if not all(map(math.isfinite, column[:1])):",
           "every value of a real column is checked, not only its first", "killed",
           ("tests/test_pipeline.py::TestReaderOracle::"
            "test_non_finite_reals_are_refused_with_their_line",)),
    Mutant(TRACE_TEXT, "    for block in blocks:\n", "    for block in islice(blocks, 1, None):\n",
           "every later block's rows join the first block's columns", "killed", (BLOCKWISE,)),
    Mutant("src/symcast/cli.py", "[i / (n - 1) for i in range(n)]", "[i / n for i in range(n)]",
           "the chart spreads its points over the whole axis", "killed",
           ("tests/test_cli.py::TestReport::test_chart_points_equal_the_per_point_reference",)),
    # encode and predict without numpy: the stdlib encoder, walk, columns and mean.
    Mutant(ENCODER, '(b"\\x7f" + b"\\xff" * (lane - 1))', '(b"\\xff" * lane)',
           "low leaves each lane's top bit clear, so a lane's carry stops at its own top bit",
           "killed", (STDLIB_ENCODER,)),
    Mutant(ENCODER, "lane = 1 if _checked_text(corpus).isascii() else 4",
           "lane = 1 if _checked_text(corpus).isascii() else 1",
           "a character past ASCII takes a 32-bit UTF-32 lane", "killed", (STDLIB_ENCODER,)),
    Mutant(ENCODER, "shift = 8 * size * (count - len(block))", "shift = 0",
           "a short last block compares its rows with as many copies of the reference",
           "killed", (STDLIB_ENCODER,)),
    Mutant(ENCODER, "view = None if isinstance(value, memoryview) else memoryview(value)",
           "view = memoryview(value)",
           "a memoryview of part of an array is copied, so a copy or pickle holds that part",
           "killed", (COLUMNS,)),
    Mutant(ENCODER, "if view is None or view.format not in formats:", "if view is None:",
           "a column of another format is copied into its kind's: reals given as ints are "
           "float64", "killed", (COLUMNS,)),
    Mutant(LEARNER, "half = count // 2 - count // 2 % 8", "half = count // 2",
           "numpy splits a long sum at a multiple of 8", "killed", (WINNERS_MEAN,)),
    Mutant(TRACE_TEXT, "test, previous, raw, _, *integers = key",
           "test, previous, _, raw, *integers = key",
           "a row's text formats the raw prediction, not its bits", "killed", (NEGATIVE_ZERO,)),
    Mutant(TRACE_TEXT, "raw, memoryview(raw.tobytes()).cast(\"q\")", "raw, raw",
           "a raw prediction's text is keyed by its bits, so -0.0 keeps its sign", "killed",
           (NEGATIVE_ZERO,)),
    Mutant(PIPELINE, "return whole + (fraction >= 0.5) - (fraction <= -0.5)",
           "return whole + (fraction > 0.5) - (fraction < -0.5)",
           "halves round away from zero", "killed", (WALK_ORACLE,)),
    Mutant(PIPELINE, "min(max(round_half_away_from_zero(real), 1), level)",
           "min(max(round_half_away_from_zero(real), 0), level)",
           "a prediction below class 1 is clamped to class 1", "killed", (WALK_ORACLE,)),
    # The walk's columns from one byte a step, 16 * predicted + expected.
    Mutant(PIPELINE, "error / (pair & 15 or 1)", "error / (pair >> 4 or 1)",
           "a step's ratio divides by the expected class, the byte's low four bits", "killed",
           (WALK_BITS,)),
    Mutant(PIPELINE, "abs((pair >> 4) - (pair & 15))", "abs((pair & 15) - (pair >> 4))",
           "|predicted - expected| is |expected - predicted|", "equivalent", ()),
    Mutant(PIPELINE, '"big") << 4 |', '"big") << 3 |',
           "the predicted class takes the byte's high four bits, clear of the expected class",
           "killed", (WALK_BITS,)),
    # One % a block; report keeps only cumulative_mape, checked as read_trace checks every column.
    Mutant(TRACE_TEXT, "[_TEST_ROW if test else _TRAIN_ROW for test in is_test]",
           "[(_TRAIN_ROW, _TEST_ROW)[test] for test in is_test]",
           "any nonzero is_test is a test step: a row's template goes by truth, not by value",
           "killed", (NONZERO_TESTS,)),
    Mutant(TRACE_TEXT, "((mape_texts, mape), converted[1], converted[5])",
           "((mape_texts, mape), converted[5])",
           "a raw prediction's distinct values are checked to be finite too", "killed",
           ("tests/test_pipeline.py::TestReaderOracle::"
            "test_non_finite_reals_are_refused_with_their_line",)),
    Mutant(TRACE_TEXT, '    if "_" in text:', '    if expand and "_" in text:',
           "report refuses every row read_trace refuses: only the spreading waits on expand",
           "killed", (REPORT_REFUSES,)),
    Mutant(TRACE_TEXT, "    column = array(\"d\")\n    for *_, mape in _parsed_blocks(lines, False):\n"
           "        column.extend(mape)\n    return column\n",
           "    return read_columns(lines)[-1]\n",
           "report's reader holds one float a test step, not every column of every block",
           "killed", (REPORT_PEAK,)),
    Mutant(ENCODER, '"bBhHiIlLqQ"', '"bBhHiIlLqQ?"',
           "a bool column kept as bools is written as True and False, which the reader refuses",
           "killed", ("tests/test_api.py::TestColumns",)),
    # A tuple field holds a tuple; a count is an int.
    Mutant(ENCODER, "            if name in self._tuples:  # a list given would stay open to change, "
           "and unhashable\n                value = tuple(value)\n", "",
           "a record built from a list would keep the list: unhashable, unequal to the tuple's, "
           "and open to a class past the rule", "killed", (TUPLE_FIELDS,)),
    Mutant(CONFIG, "isinstance(self.population_size, int) and ", "",
           "a float population_size reaches range() as a bare TypeError", "killed",
           (INTEGER_COUNTS,)),
    Mutant(CONFIG, "not isinstance(self.k_winners, int) or ", "",
           "a float k_winners reaches range() as a bare TypeError", "killed", (INTEGER_COUNTS,)),
    Mutant(CONFIG, "isinstance(class_level, int) and ", "",
           "a float class level reaches range() in the walk as a bare TypeError", "killed",
           (INTEGER_LEVEL,)),
    # The README states the program's contract, and its tests hold the two together.
    Mutant(CONFIG, "    population_size: int = 1000\n", "    population_size: int = 100\n",
           "the README's flag table would give a default the program does not use", "killed",
           (FLAG_TABLE,)),
    Mutant(TRACE_TEXT, "def write_trace(trace: symcast.pipeline.PredictionTrace,",
           "def write_trace(trace: PredictionTrace,",
           "a hint naming a type tracetext does not import: typing.get_type_hints raises NameError",
           "killed", (HINTS,)),
    Mutant("src/symcast/cli.py", "test_steps = len(trace.cumulative_mape)",
           "test_steps = len(trace.is_test)",
           "the summary would count train steps as test steps", "killed", (SUMMARY,)),
]


def run_targets(work: Path, targets: tuple[str, ...]) -> int:
    """pytest's exit status on targets in work: 0 all passed, 1 some test failed."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *targets],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def check(work: Path, mutant: Mutant) -> tuple[str, str | None]:
    """Apply mutant in work, run its targets and restore the file: its report line and problem."""
    path = work / mutant.file
    original = path.read_text(encoding="utf-8")
    label = f"{mutant.file}: {mutant.old!r} -> {mutant.new!r}"
    count = original.count(mutant.old)
    if count != 1:
        return f"MISSING     {label}", f"{label}: old text occurs {count} times, expected once"
    if mutant.expect == "equivalent":
        return f"equivalent  {label} ({mutant.why})", None
    started = time.perf_counter()
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        status = run_targets(work, mutant.targets)
    finally:
        path.write_text(original, encoding="utf-8")
    outcome = {0: "SURVIVED", 1: "killed"}.get(status, f"pytest {status}")
    line = f"{outcome:11} {label} ({time.perf_counter() - started:.1f} s)"
    if status == 0:
        return line, f"{label} survived {' '.join(mutant.targets)}: {mutant.why}"
    if status != 1:  # not a failing test: a collection error, or no such target
        return line, f"{label}: pytest exits {status}, not 1"
    return line, None


def main() -> int:
    rows = MUTANTS
    problems = []
    with tempfile.TemporaryDirectory(prefix="symcast-mutants-") as scratch:
        copies: queue.Queue[Path] = queue.Queue()
        for worker in range(WORKERS):
            work = Path(scratch) / str(worker)
            for name in ("src", "tests", "perfbench"):  # tests load perfbench's workloads
                shutil.copytree(ROOT / name, work / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            for name in ("pyproject.toml", "README.md"):  # tests/test_readme.py runs the README
                shutil.copy(ROOT / name, work)
            copies.put(work)
        # A target must pass unmutated, or a failure would say nothing of the mutant.
        # One run covers them all; a target inside another target is left to it.
        targets = {target for m in rows if m.expect == "killed" for target in m.targets}
        union = sorted(t for t in targets if not any(t.startswith(o + "::") for o in targets))
        status = run_targets(Path(scratch) / "0", tuple(union))
        if status != 0:
            problems.append(f"unmutated, pytest exits {status} on {' '.join(union)}")

        def check_on_a_free_copy(mutant: Mutant) -> tuple[str, str | None]:
            work = copies.get()
            try:
                return check(work, mutant)
            finally:
                copies.put(work)

        # each row runs on whichever copy is free; the lines print in table order
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for line, problem in pool.map(check_on_a_free_copy, rows):
                print(line, flush=True)
                if problem:
                    problems.append(problem)
    for problem in problems:
        print("error:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
