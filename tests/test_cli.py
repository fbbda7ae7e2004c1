"""End-to-end tests for the command-line interface."""

import contextlib
import csv
import functools
import io
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symcast
from symcast.cli import (
    _FIELDS,
    Settings,
    _merge_settings,
    _render_error_series_svg,
    _write_decoded,
    _write_encode_report,
    build_parser,
    main,
)
from symcast.encoder import ClassSequence, MatchScore, encode_corpus
from symcast.errors import SymcastError
from symcast.ingest import Corpus
from symcast.pipeline import DecodedTrace, RunConfig, run_continual, write_trace
from symcast.tracetext import BLOCK_ROWS, TRACE_HEADER

from oracle import decoded_report_reference, encode_report_reference, svg_points_reference

VEHICLE_ENCODING = """\
row_index,symbol,match_value,scale,class
1,Car,0,0.000000,1
2,Bus,7,1.000000,5
3,Bus,7,1.000000,5
4,Car,0,0.000000,1
5,Car,0,0.000000,1
6,Car,0,0.000000,1
7,Car,0,0.000000,1
8,Car,0,0.000000,1
9,Bus,7,1.000000,5

class,symbol
1,Car
2,[]
3,[]
4,[]
5,Bus
"""

VEHICLE_SUMMARY = [
    "train_elements: 3",
    "test_steps: 6",
    "exact_test_matches: 4",
    "exact_test_matches_by_class: 1=4",
    "final_mape_percent: 80.000000",
    "final_deviant_mean: 2.000000",
]


def written(write, *args):
    stream = io.StringIO()
    write(*args, stream)
    return stream.getvalue()


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncode:
    def test_vehicle_corpus_to_stdout(self, carbus_file, capsys):
        code, out, err = run(["encode", "--input", str(carbus_file)], capsys)
        assert code == 0
        assert out == VEHICLE_ENCODING
        assert err == ""

    def test_singleton_corpus_gets_the_top_class(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("solo\n")
        code, out, _ = run(["encode", "--input", str(path)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "1,solo,15,1.000000,5"
        assert lines[-1] == "5,solo"
        assert lines[-2] == "4,[]"

    def test_numeric_series(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("20\n15\n18\n")
        code, out, _ = run(["encode", "--input", str(path), "--numeric"], capsys)
        assert code == 0
        assert out.splitlines()[:4] == [
            "row_index,symbol,match_value,scale,class",
            "1,20,0,0.000000,1",
            "2,15,2,0.666667,2",
            "3,18,3,1.000000,5",
        ]
        assert "2,15" in out.splitlines()[7]

    def test_reference_first_flips_the_classes(self, carbus_file, capsys):
        code, out, _ = run(
            ["encode", "--input", str(carbus_file), "--reference", "first"], capsys
        )
        assert code == 0
        assert "1,Bus" in out.splitlines()
        assert "5,Car" in out.splitlines()

    def test_reference_row_numbers_are_one_based(self, carbus_file, capsys):
        by_number = run(["encode", "--input", str(carbus_file), "--reference", "9"], capsys)
        by_name = run(["encode", "--input", str(carbus_file), "--reference", "last"], capsys)
        assert by_number == by_name

    def test_out_file(self, carbus_file, tmp_path, capsys):
        target = tmp_path / "encoded.csv"
        code, out, _ = run(
            ["encode", "--input", str(carbus_file), "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == VEHICLE_ENCODING

    def test_reads_standard_input(self, monkeypatch, capsys):
        fake = io.TextIOWrapper(io.BytesIO(b"Car\nBus\nBus\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", fake)
        code, out, _ = run(["encode", "--input", "-"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "1,Car,0,0.000000,1"

    def test_missing_file_is_an_input_error(self, tmp_path, capsys):
        code, _, err = run(["encode", "--input", str(tmp_path / "absent.txt")], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_empty_file_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run(["encode", "--input", str(path)], capsys)
        assert code == 1

    def test_bad_utf8_reports_the_offset(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"Car\n\xff\n")
        code, _, err = run(["encode", "--input", str(path)], capsys)
        assert code == 1
        assert err == "error: input is not valid UTF-8 (line 2, byte offset 4)\n"

    def test_a_closed_output_pipe_stops_quietly(self, tmp_path):
        path = tmp_path / "numbers.txt"
        path.write_text("".join(map("{}\n".format, range(50_000))))  # far more than a pipe holds
        env = dict(os.environ, PYTHONPATH=str(Path(symcast.__file__).resolve().parent.parent))
        child = subprocess.Popen(
            [sys.executable, "-m", "symcast.cli", "encode", "--numeric", "--input", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert child.stdout.readline() == b"row_index,symbol,match_value,scale,class\n"
        child.stdout.close()  # as `| head -1` does
        assert (child.communicate(timeout=60)[1], child.returncode) == (b"", 1)

    def test_nul_character_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "nul.txt"
        path.write_bytes(b"Car\nB\x00us\n")
        code, out, err = run(["encode", "--input", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: corpus row 1 contains NUL, which collides with padding\n"

    def test_symbols_with_commas_and_quotes_read_back_unchanged(self, tmp_path, capsys):
        path = tmp_path / "quoted.txt"
        path.write_text('a,b\nc"d\n', encoding="utf-8")
        code, out, _ = run(["encode", "--input", str(path)], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[1] for row in rows[1:3]] == ["a,b", 'c"d']
        assert rows[-1] == ["5", 'c"d']

    def test_a_row_past_the_int_digit_limit_writes_its_match_value_in_full(
        self, tmp_path, capsys
    ):
        # 20,000 agreement bits make a match value of 6,021 decimal digits
        path = tmp_path / "wide.txt"
        path.write_text("a" * 20000 + "\n" + "b" * 20000 + "\n", encoding="ascii")
        limit = sys.get_int_max_str_digits()
        code, out, err = run(["encode", "--input", str(path)], capsys)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            expected = str(2**20000 - 1)
        finally:
            sys.set_int_max_str_digits(limit)
        assert out.splitlines()[1:3] == [
            f"1,{'a' * 20000},0,0.000000,1",
            f"2,{'b' * 20000},{expected},1.000000,5",
        ]

    def test_the_digit_limit_is_restored_whatever_it_was(self, carbus_file, capsys):
        # an earlier test in the process that left the limit lifted would hide a lost restore
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, _, _ = run(["encode", "--input", str(carbus_file)], capsys)
            assert (code, sys.get_int_max_str_digits()) == (0, 5000)
        finally:
            sys.set_int_max_str_digits(limit)


# Corpora with nothing csv must quote, and corpora where some symbols need it.
PLAIN_ALPHABET = "ab []é😀"
QUOTING_ALPHABET = PLAIN_ALPHABET + ',"\r\n'


class TestWritersAgainstReference:
    @pytest.mark.parametrize("alphabet", [PLAIN_ALPHABET, QUOTING_ALPHABET])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_encode_report_and_decode_block_match_the_per_row_writers(self, alphabet, data):
        symbol = st.one_of(st.text(alphabet, min_size=1, max_size=8), st.just("[]"))
        items = tuple(data.draw(st.lists(symbol, min_size=1, max_size=12)))
        level = data.draw(st.integers(min_value=2, max_value=10))
        encoded = encode_corpus(items, level)
        corpus = Corpus(items=items, source="<drawn>")
        assert (written(_write_encode_report, encoded, corpus)
                == written(encode_report_reference, encoded, corpus))

        pairs = st.tuples(st.sampled_from(items), st.sampled_from(items), st.booleans())
        steps = data.draw(st.lists(pairs, min_size=1, max_size=12))
        decoded = DecodedTrace(*map(list, zip(*steps)))
        assert written(_write_decoded, decoded) == written(decoded_report_reference, decoded)

    def test_a_symbol_with_a_lone_cr_is_written_as_csv_writes_it(self):
        # its only special character; left unquoted, csv.reader refuses the row
        decoded = DecodedTrace(["a\rb"], ["c"], [False])
        items = ("a\rb", "c")
        encoded = encode_corpus(items, 5)
        corpus = Corpus(items=items, source="<lone CR>")
        encode_rows = [["row_index", "symbol", "match_value", "scale", "class"],
                       ["1", "a\rb", "0", "0.000000", "1"], ["2", "c", "7", "1.000000", "5"], [],
                       ["class", "symbol"], ["1", "a\rb"], ["2", "[]"], ["3", "[]"], ["4", "[]"],
                       ["5", "c"]]
        decode_rows = [["predicted_symbol", "expected_symbol", "exact"], ["a\rb", "c", "false"]]
        for ours, reference, args, rows in [
            (_write_encode_report, encode_report_reference, (encoded, corpus), encode_rows),
            (_write_decoded, decoded_report_reference, (decoded,), decode_rows),
        ]:
            text = written(ours, *args)
            assert text == written(reference, *args)
            assert list(csv.reader(io.StringIO(text))) == rows


def block_corpus(rows):
    """rows short words over three letters, so many rows share one match value."""
    rng = random.Random(rows)
    return tuple("".join(rng.choices("abc", k=rng.randint(1, 4))) for _ in range(rows))


class TestEncodeReportAcrossBlocks:
    """The encode CSV, written BLOCK_ROWS rows at a time, reads as if written in one block."""

    @staticmethod
    def assert_matches_the_reference(items, encoded=None):
        encoded = encoded or encode_corpus(items, 5)
        corpus = Corpus(items=items, source="<blocks>")
        assert (written(_write_encode_report, encoded, corpus)
                == written(encode_report_reference, encoded, corpus))

    @pytest.mark.parametrize("rows", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                      2 * BLOCK_ROWS + 1])
    def test_corpora_at_block_edges_match_the_reference(self, rows):
        self.assert_matches_the_reference(block_corpus(rows))

    def test_a_symbol_quoted_only_in_the_second_block(self):
        items = block_corpus(BLOCK_ROWS + 10)
        quoted = items[:BLOCK_ROWS + 3] + ('c,"a"',) + items[BLOCK_ROWS + 4:]
        self.assert_matches_the_reference(quoted)

    def test_equal_scores_at_two_indexes(self):
        # odd rows read a copy of each score placed after the originals
        items = block_corpus(BLOCK_ROWS + 1)
        encoded = encode_corpus(items, 5)
        count = len(encoded.distinct)
        index = encoded.score_index + count * (np.arange(len(items)) % 2)
        apart = encoded._replace(
            distinct=encoded.distinct + tuple(MatchScore(*s) for s in encoded.distinct),
            score_index=index)
        assert apart.scores == encoded.scores
        assert len(set(index.tolist())) > count
        self.assert_matches_the_reference(items, apart)

    def test_stdout_and_file_get_the_same_bytes(self, tmp_path, capsys):
        source, target = tmp_path / "corpus.txt", tmp_path / "encoded.csv"
        source.write_text("\n".join(block_corpus(BLOCK_ROWS + 7)) + "\n", encoding="utf-8")
        code, out, err = run(["encode", "--input", str(source), "--out", "-"], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) > BLOCK_ROWS + 7
        code, _, err = run(["encode", "--input", str(source), "--out", str(target)], capsys)
        assert (code, err) == (0, "")
        assert target.read_bytes() == out.encode("utf-8")


def write_test_rows(path, mapes):
    """A trace of one test row per cumulative_mape text."""
    rows = [f"{step},test,1,1.000000,1,1,0,{mape},0.000000\n"
            for step, mape in enumerate(mapes, start=1)]
    path.write_text(TRACE_HEADER + "\n" + "".join(rows))


class WriteLog(io.StringIO):
    """A text stream that keeps the text of each write call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestOneWriteABlock:
    """Each writer writes its header, then each BLOCK_ROWS rows, in one write apiece."""

    @staticmethod
    def line_counts(rows):
        """The lines of each write: the header's, then each block's."""
        return [1] + [min(BLOCK_ROWS, rows - start) for start in range(0, rows, BLOCK_ROWS)]

    ROWS = pytest.mark.parametrize("rows", [1, BLOCK_ROWS, BLOCK_ROWS + 1])

    @ROWS
    def test_the_trace(self, rows):
        values = tuple(random.Random(rows).choices(range(1, 6), k=rows + 1))
        stream = WriteLog()
        write_trace(run_continual(ClassSequence(values, 5), RunConfig()), stream)
        assert [text.count("\n") for text in stream.writes] == self.line_counts(rows)

    @ROWS
    def test_the_encode_csv_rows(self, rows):
        items = block_corpus(rows)
        stream = WriteLog()
        _write_encode_report(encode_corpus(items, 5), Corpus(items=items, source="<rows>"), stream)
        row_writes = len(self.line_counts(rows))
        assert [text.count("\n") for text in stream.writes[:row_writes]] == self.line_counts(rows)
        assert stream.writes[row_writes] == "\nclass,symbol\n"

    @ROWS
    def test_the_decoded_block(self, rows):
        stream = WriteLog()
        _write_decoded(DecodedTrace(["a"] * rows, ["b,c"] * rows, [True] * rows), stream)
        assert [text.count("\n") for text in stream.writes] == self.line_counts(rows)

    @ROWS
    def test_the_series_file(self, rows, tmp_path, monkeypatch):
        trace_path = tmp_path / "trace.csv"
        write_test_rows(trace_path, ["0.000000"] * rows)
        stream = WriteLog()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["report", "--input", str(trace_path)]) == 0
        assert [text.count("\n") for text in stream.writes] == self.line_counts(rows)


class TestPredict:
    def test_summary_on_stdout_when_trace_goes_to_a_file(
        self, carbus_file, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.csv"
        code, out, err = run(
            ["predict", "--input", str(carbus_file), "--out", str(trace_path)], capsys
        )
        assert code == 0
        assert out.splitlines() == VEHICLE_SUMMARY
        assert err == ""
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("step,phase,")

    def test_summary_moves_to_stderr_when_trace_uses_stdout(self, carbus_file, capsys):
        code, out, err = run(["predict", "--input", str(carbus_file)], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("step,phase,")
        assert len(out.splitlines()) == 9
        assert err.splitlines() == VEHICLE_SUMMARY

    def test_train_fraction_flag(self, tmp_path, capsys):
        path = tmp_path / "five.txt"
        path.write_text("aa\nbb\ncc\ndd\nee\n")
        code, _, err = run(
            ["predict", "--input", str(path), "--train-fraction", "0.9"], capsys
        )
        assert code == 0
        assert "train_elements: 4" in err
        assert "test_steps: 1" in err

    def test_freeze_after_train_keeps_the_mean_fixed(self, carbus_file, capsys):
        code, out, _ = run(
            ["predict", "--input", str(carbus_file), "--freeze-after-train"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        test_means = [row[8] for row in rows if row[1] == "test"]
        assert test_means == ["0.000000"] * 6

    def test_baseline_block_and_summary_line(self, carbus_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(
            [
                "predict", "--input", str(carbus_file),
                "--out", str(trace_path), "--baseline",
            ],
            capsys,
        )
        assert code == 0
        assert "baseline_final_mape_percent: 80.000000" in out.splitlines()
        blocks = trace_path.read_text().split("\n\n")
        assert len(blocks) == 2
        assert blocks[1].startswith("step,phase,")

    def test_decode_block(self, carbus_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run(
            [
                "predict", "--input", str(carbus_file),
                "--out", str(trace_path), "--decode",
            ],
            capsys,
        )
        assert code == 0
        blocks = trace_path.read_text().split("\n\n")
        decoded = blocks[1].splitlines()
        assert decoded[0] == "predicted_symbol,expected_symbol,exact"
        assert decoded[1] == "Car,Bus,true"
        assert len(decoded) == 9

    def test_rule_and_bias_flags_are_accepted(self, carbus_file, capsys):
        code, _, err = run(
            [
                "predict", "--input", str(carbus_file),
                "--rule", "muldiv", "--lp", "0.25", "--k-winners", "3",
            ],
            capsys,
        )
        assert code == 0
        assert any(line.startswith("final_mape_percent:") for line in err.splitlines())

    def test_class_level_out_of_range_is_a_config_error(self, carbus_file, capsys):
        code, _, err = run(
            ["predict", "--input", str(carbus_file), "--class-level", "11"], capsys
        )
        assert code == 2
        assert "class level" in err
        assert "flag --class-level" in err

    def test_bad_rule_value(self, carbus_file, capsys):
        code, _, err = run(
            ["predict", "--input", str(carbus_file), "--rule", "osmotic"], capsys
        )
        assert code == 2

    def test_zero_reference_row_rejected(self, carbus_file, capsys):
        code, _, err = run(
            ["predict", "--input", str(carbus_file), "--reference", "0"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["encode", "predict"])
    @pytest.mark.parametrize("given_by", ["flag", "file", "pipe"])
    def test_a_reference_row_past_the_end_is_named_as_given(self, command, given_by, tmp_path,
                                                            capsys):
        source = tmp_path / "four.txt"
        source.write_text("a\nb\nc\nd\n")
        text = b"# header\nreference = 99\n"
        with contextlib.ExitStack() as stack:
            if given_by == "pipe":  # a pipe can be read once only
                read_end, write_end = os.pipe()
                stack.callback(os.close, read_end)
                os.write(write_end, text)
                os.close(write_end)
                config = f"/dev/fd/{read_end}"
            else:
                config = tmp_path / "run.conf"
                config.write_bytes(text)
            given = ["--reference", "99"] if given_by == "flag" else ["--config", str(config)]
            where = "flag --reference" if given_by == "flag" else f"config file {config} line 2"
            code, out, err = run([command, "--input", str(source), *given], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: reference: row 99 out of range for 4 rows (from {where})\n"

    def test_a_reference_neither_a_name_nor_a_number_is_a_config_error(self, carbus_file,
                                                                        capsys):
        code, out, err = run(
            ["predict", "--input", str(carbus_file), "--reference", "middle"], capsys
        )
        assert (code, out) == (2, "")
        assert err == ("error: reference: reference must be last, first, or a row number, "
                       "got 'middle' (from flag --reference)\n")

    def test_k_winners_cannot_exceed_population(self, carbus_file, capsys):
        code, _, err = run(
            [
                "predict", "--input", str(carbus_file),
                "--population", "10", "--k-winners", "11",
            ],
            capsys,
        )
        assert code == 2
        assert "k_winners" in err
        assert "flag --k-winners" in err

    @pytest.mark.parametrize("k_winners", ["1", "3"])
    def test_a_population_past_sys_maxsize_is_a_config_error(self, tmp_path, capsys, k_winners):
        source = tmp_path / "two.txt"
        source.write_text("abc\nxyz\n", encoding="utf-8")
        code, out, err = run(
            [
                "predict", "--input", str(source),
                "--population", "100000000000000000000", "--k-winners", k_winners,
            ],
            capsys,
        )
        assert code == 2
        assert "flag --population" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("flag,value", [("--lp", "inf"), ("--lp", "nan"), ("--max-adjust", "inf")])
    @pytest.mark.parametrize("input_exists", [True, False])
    def test_non_finite_setting_is_a_config_error(
        self, carbus_file, tmp_path, capsys, flag, value, input_exists
    ):
        source = carbus_file if input_exists else tmp_path / "absent.txt"
        code, _, err = run(["predict", "--input", str(source), flag, value], capsys)
        assert code == 2
        assert f"flag {flag}" in err

    def test_non_finite_mean_is_a_data_error(self, carbus_file, capsys):
        code, out, err = run(
            [
                "predict", "--input", str(carbus_file),
                "--max-adjust", "1e308", "--rule", "muldiv",
            ],
            capsys,
        )
        assert code == 1
        assert err == "error: learner step 4: deviant mean became -inf\n"

    @pytest.mark.parametrize("max_adjust", ["1e308", "1e-310", "5e-324"])
    @pytest.mark.parametrize("population", ["1", "7", "100000"])
    @pytest.mark.parametrize("numeric", [False, True])
    def test_extreme_divisive_steps_end_in_a_result_or_a_named_error(
        self, carbus_file, tmp_path, max_adjust, population, numeric
    ):
        source = carbus_file
        if numeric:
            source = tmp_path / "series.txt"
            source.write_text("3\n70000\n12\n9\n70001\n5\n5\n880\n")
        args = build_parser().parse_args(
            ["predict", "--input", str(source), "--rule", "muldiv",
             "--max-adjust", max_adjust, "--population", population,
             "--out", str(tmp_path / "trace.csv"), *(["--numeric"] if numeric else [])]
        )
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = args.func(args)
        except SymcastError:
            return
        assert code == 0

    def test_huge_mean_prints_in_exponent_form(self, carbus_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(
            ["predict", "--input", str(carbus_file), "--lp", "1e308", "--out", str(trace_path)],
            capsys,
        )
        assert code == 0
        assert "final_deviant_mean: 1.000000e+308" in out.splitlines()
        assert trace_path.read_text().splitlines()[-1].endswith(",1.000000e+308")

    def test_two_row_corpus_still_runs(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("on\noff\n")
        code, _, err = run(["predict", "--input", str(path)], capsys)
        assert code == 0
        assert "test_steps: 1" in err

    def test_single_row_corpus_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("only\n")
        code, _, err = run(["predict", "--input", str(path)], capsys)
        assert code == 1


@st.composite
def predict_settings(draw):
    population = draw(st.sampled_from([1, 2, 7, 1000]))
    return [
        f"--population={population}",
        f"--k-winners={draw(st.integers(min_value=1, max_value=min(4, population)))}",
        f"--max-adjust={draw(st.floats(min_value=5e-324, max_value=1e308))!r}",
        f"--rule={draw(st.sampled_from(['addsub', 'muldiv']))}",
        f"--lp={draw(st.floats(allow_nan=False, allow_infinity=False))!r}",
        f"--class-level={draw(st.integers(min_value=2, max_value=10))}",
        f"--train-fraction={draw(st.floats(min_value=0.05, max_value=0.95))!r}",
    ]


class TestPredictNeverLeaks:
    @settings(deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=40),
        flags=predict_settings(),
    )
    def test_a_finite_mean_or_a_symcast_error(self, values, flags):
        with tempfile.TemporaryDirectory() as work:
            series = Path(work) / "series.txt"
            series.write_text("".join(f"{value}\n" for value in values))
            args = build_parser().parse_args(
                ["predict", "--numeric", "--input", str(series),
                 "--out", str(Path(work) / "trace.csv"), *flags]
            )
            summary = io.StringIO()
            try:
                with contextlib.redirect_stdout(summary):
                    code = args.func(args)
            except SymcastError:
                return
        assert code == 0
        final = dict(line.split(": ") for line in summary.getvalue().splitlines())
        assert math.isfinite(float(final["final_deviant_mean"]))


class TestConfigFile:
    def test_file_value_applies(self, carbus_file, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("# encoder settings\nclass_level = 3\n")
        code, out, _ = run(
            ["encode", "--input", str(carbus_file), "--config", str(config)], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert "3,Bus" in lines
        assert "2,[]" in lines
        assert "4,[]" not in lines

    def test_flag_beats_file(self, carbus_file, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("class_level = 3\n")
        code, out, _ = run(
            [
                "encode", "--input", str(carbus_file),
                "--config", str(config), "--class-level", "4",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert "4,Bus" in lines
        assert "3,Bus" not in lines

    def test_inline_comments_and_blank_lines(self, carbus_file, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("\n# full-line comment\nclass_level = 3  # trailing\n\n")
        code, _, _ = run(
            ["encode", "--input", str(carbus_file), "--config", str(config)], capsys
        )
        assert code == 0

    def test_unknown_key_names_the_line(self, carbus_file, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("class_levle = 3\n")
        code, _, err = run(
            ["encode", "--input", str(carbus_file), "--config", str(config)], capsys
        )
        assert code == 2
        assert "line 1" in err
        assert "class_levle" in err

    def test_a_line_without_an_equals_sign_names_the_file_and_line(
        self, carbus_file, tmp_path, capsys
    ):
        config = tmp_path / "run.conf"
        config.write_text("# header\nrule muldiv\n")
        code, out, err = run(
            ["predict", "--input", str(carbus_file), "--config", str(config)], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: config file: {config} line 2: expected key = value\n"

    @pytest.mark.parametrize("text", ["false", "no", "0"])
    def test_a_false_freeze_after_train_runs_as_no_config(self, text, tmp_path, capsys):
        corpus = tmp_path / "mixed.txt"
        corpus.write_text("\n".join(MIXED_CORPUS) + "\n")  # freezing changes its trace
        config = tmp_path / "run.conf"
        config.write_text(f"freeze_after_train = {text}\n")

        def trace(label, *extra):
            path = tmp_path / f"{label}.csv"
            code, _, _ = run(["predict", "--input", str(corpus), "--out", str(path), *extra],
                             capsys)
            assert code == 0
            return path.read_bytes()

        assert trace("file", "--config", str(config)) == trace("default")

    def test_bad_value_names_file_and_line(self, carbus_file, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("# header\ntrain_fraction = 7\n")
        code, _, err = run(
            ["predict", "--input", str(carbus_file), "--config", str(config)], capsys
        )
        assert code == 2
        assert f"config file {config} line 2" in err

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_a_config_file_not_in_utf8_names_the_file_and_line(
        self, newline, carbus_file, tmp_path, capsys
    ):
        config = tmp_path / "run.conf"
        config.write_bytes(newline.join([b"# settings", b"class_level = \xff3", b""]))
        code, out, err = run(
            ["encode", "--input", str(carbus_file), "--config", str(config)], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: config file: {config} line 2: not valid UTF-8\n"

    def test_missing_config_file_is_an_input_error(self, carbus_file, tmp_path, capsys):
        code, _, _ = run(
            [
                "encode", "--input", str(carbus_file),
                "--config", str(tmp_path / "none.conf"),
            ],
            capsys,
        )
        assert code == 1

    def test_predict_settings_from_file(self, carbus_file, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("train_fraction = 0.5\npopulation = 50\n")
        code, _, err = run(
            ["predict", "--input", str(carbus_file), "--config", str(config)], capsys
        )
        assert code == 0
        assert "train_elements: 4" in err


# Per setting: a value it refuses, and one it accepts that changes a run on MIXED_CORPUS.
BAD_VALUES = {
    "class_level": "11", "reference": "0", "train_fraction": "1", "population": "0",
    "max_adjust": "nan", "rule": "mul", "lp": "inf", "k_winners": "0",
    "freeze_after_train": "maybe",
}
GOOD_VALUES = {
    "class_level": "3", "reference": "2", "train_fraction": "0.5", "population": "3",
    "max_adjust": "1.5", "rule": "muldiv", "lp": "0.25", "k_winners": "2",
    "freeze_after_train": "yes",
}
MIXED_CORPUS = "abcd abce abxx axxx abcd abcf abzz abcd xbcd abcd abce abcd".split()
VALUE_FLAGS = [name for name in _FIELDS if name != "freeze_after_train"]  # that flag takes no value


class TestSettingsTable:
    def test_the_value_tables_name_every_setting(self):
        assert set(BAD_VALUES) == set(GOOD_VALUES) == set(_FIELDS)

    @pytest.mark.parametrize("name", VALUE_FLAGS)
    def test_a_bad_flag_value_names_the_setting_and_the_flag(self, name, carbus_file, capsys):
        flag = _FIELDS[name][0]
        code, out, err = run(["predict", "--input", str(carbus_file), flag, BAD_VALUES[name]],
                             capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name}: ")
        assert err.endswith(f" (from flag {flag})\n")

    @pytest.mark.parametrize("name", list(_FIELDS))
    def test_a_bad_file_value_names_the_setting_the_file_and_the_line(
        self, name, carbus_file, tmp_path, capsys
    ):
        config = tmp_path / "run.conf"
        config.write_text(f"# header\n{name} = {BAD_VALUES[name]}\n")
        code, out, err = run(
            ["predict", "--input", str(carbus_file), "--config", str(config)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name}: ")
        assert err.endswith(f" (from config file {config} line 2)\n")

    @pytest.mark.parametrize("name", list(_FIELDS))
    def test_a_file_value_runs_as_the_same_flag_value(self, name, tmp_path, capsys):
        corpus = tmp_path / "mixed.txt"
        corpus.write_text("\n".join(MIXED_CORPUS) + "\n")
        config = tmp_path / "run.conf"
        config.write_text(f"{name} = {GOOD_VALUES[name]}\n")
        flag = _FIELDS[name][0]

        def predicted(label, *extra):
            trace = tmp_path / f"{label}.csv"
            code, out, err = run(
                ["predict", "--input", str(corpus), "--out", str(trace), *extra], capsys
            )
            assert (code, err) == (0, "")
            return trace.read_bytes(), out

        by_flag = predicted("flag", flag, *([GOOD_VALUES[name]] if name in VALUE_FLAGS else []))
        assert predicted("file", "--config", str(config)) == by_flag
        assert predicted("default") != by_flag

    @pytest.mark.parametrize("command", ["encode", "predict"])
    def test_no_flags_merge_to_the_defaults(self, command):
        args = build_parser().parse_args([command, "--input", "-"])
        assert _merge_settings(args) == Settings(5, "last", RunConfig())


class TestReport:
    def make_trace(self, carbus_file, tmp_path, capsys, *extra):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run(
            ["predict", "--input", str(carbus_file), "--out", str(trace_path), *extra],
            capsys,
        )
        assert code == 0
        return trace_path

    def test_vehicle_series(self, carbus_file, tmp_path, capsys):
        trace_path = self.make_trace(carbus_file, tmp_path, capsys)
        code, out, _ = run(["report", "--input", str(trace_path)], capsys)
        assert code == 0
        assert out.splitlines() == [
            "test_step,cumulative_mape",
            "1,400.000000",
            "2,200.000000",
            "3,133.333333",
            "4,100.000000",
            "5,80.000000",
            "6,80.000000",
        ]

    def test_all_exact_trace_reports_zeros(self, tmp_path, capsys):
        corpus = tmp_path / "steady.txt"
        corpus.write_text("tick\ntick\ntick\ntick\n")
        trace_path = self.make_trace(corpus, tmp_path, capsys)
        code, out, _ = run(["report", "--input", str(trace_path)], capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows == [f"{i},0.000000" for i in range(1, len(rows) + 1)]

    def test_single_early_error_decays_monotonically(self, tmp_path, capsys):
        header = (
            "step,phase,prev_class,raw_prediction,predicted_class,expected_class,"
            "abs_error,cumulative_mape,deviant_mean"
        )
        rows = [
            "1,test,1,1.000000,1,5,4,80.000000,2.000000",
            "2,test,5,5.000000,5,5,0,40.000000,2.000000",
            "3,test,5,5.000000,5,5,0,26.666667,2.000000",
            "4,test,5,5.000000,5,5,0,20.000000,2.000000",
        ]
        trace_path = tmp_path / "decay.csv"
        trace_path.write_text(header + "\n" + "\n".join(rows) + "\n")
        code, out, _ = run(["report", "--input", str(trace_path)], capsys)
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)

    def test_truncated_trace_is_an_input_error(self, carbus_file, tmp_path, capsys):
        trace_path = self.make_trace(carbus_file, tmp_path, capsys)
        text = trace_path.read_text()
        trace_path.write_text(text[: text.index("\n") + 15])
        code, _, err = run(["report", "--input", str(trace_path)], capsys)
        assert code == 1
        assert "line 2" in err

    def test_train_only_trace_is_an_input_error(self, tmp_path, capsys):
        header = (
            "step,phase,prev_class,raw_prediction,predicted_class,expected_class,"
            "abs_error,cumulative_mape,deviant_mean"
        )
        trace_path = tmp_path / "train_only.csv"
        trace_path.write_text(header + "\n1,train,1,1.000000,1,5,4,,2.000000\n")
        code, _, _ = run(["report", "--input", str(trace_path)], capsys)
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_mape_is_an_input_error(self, tmp_path, capsys, value):
        header = (
            "step,phase,prev_class,raw_prediction,predicted_class,expected_class,"
            "abs_error,cumulative_mape,deviant_mean"
        )
        trace_path = tmp_path / "non_finite.csv"
        trace_path.write_text(
            header + "\n1,test,1,1.000000,1,5,4,80.000000,2.000000\n"
            f"2,test,5,5.000000,5,5,0,{value},2.000000\n"
        )
        svg = tmp_path / "chart.svg"
        code, out, err = run(["report", "--input", str(trace_path), "--svg", str(svg)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: line 3: non-finite real {value!r}\n"
        assert not svg.exists()

    @pytest.mark.parametrize("mapes,line", [
        (["-3.000000"], 2), (["-1e308", "5.0"], 2), (["1.000000", "-1e-300"], 3),
    ])
    def test_a_negative_mape_is_an_input_error(self, tmp_path, capsys, mapes, line):
        # a running MAPE is a mean of |error| / expected: a negative one would chart off the plot
        trace_path, svg = tmp_path / "negative.csv", tmp_path / "chart.svg"
        write_test_rows(trace_path, mapes)
        code, out, err = run(["report", "--input", str(trace_path), "--svg", str(svg)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: line {line}: negative cumulative_mape {mapes[line - 2]!r}\n"
        assert not svg.exists()

    def test_a_negative_zero_mape_is_read(self, tmp_path, capsys):
        trace_path = tmp_path / "zero.csv"
        write_test_rows(trace_path, ["-0.0"])
        code, out, _ = run(["report", "--input", str(trace_path)], capsys)
        assert (code, out) == (0, "test_step,cumulative_mape\n1,-0.000000\n")

    def test_digit_separator_is_an_input_error(self, carbus_file, tmp_path, capsys):
        trace_path = self.make_trace(carbus_file, tmp_path, capsys)
        lines = trace_path.read_text().splitlines()
        lines[3] = lines[3].replace("400.000000", "4_00.000000")
        trace_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(["report", "--input", str(trace_path)], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: line 4: digit separator '_' in '4_00.000000'\n"

    def test_svg_output_is_deterministic(self, carbus_file, tmp_path, capsys):
        trace_path = self.make_trace(carbus_file, tmp_path, capsys)
        svg_a = tmp_path / "a.svg"
        svg_b = tmp_path / "b.svg"
        for target in (svg_a, svg_b):
            code, _, _ = run(
                ["report", "--input", str(trace_path), "--svg", str(target)], capsys
            )
            assert code == 0
        assert svg_a.read_bytes() == svg_b.read_bytes()
        content = svg_a.read_text()
        assert content.startswith("<svg")
        assert "polyline" in content

    @given(st.lists(st.floats(min_value=0.0, max_value=900.0), min_size=1, max_size=60))
    @example([5.0])  # one point sits mid-axis
    @example([1.0, 2.0])
    @example([0.0, 0.0, 0.0])  # the top is then 1e-9
    @example([-0.0, 0.0])
    @example([1e308, 1.7976931348623157e308, 0.5, 5e-324])
    def test_chart_points_equal_the_per_point_reference(self, series):
        svg = _render_error_series_svg(np.array(series))
        assert f'<polyline points="{svg_points_reference(series)}"' in svg

    def test_report_out_file(self, carbus_file, tmp_path, capsys):
        trace_path = self.make_trace(carbus_file, tmp_path, capsys)
        target = tmp_path / "series.csv"
        code, out, _ = run(
            ["report", "--input", str(trace_path), "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[1] == "1,400.000000"

    def test_report_reads_stdin(self, carbus_file, tmp_path, capsys, monkeypatch):
        trace_path = self.make_trace(carbus_file, tmp_path, capsys)
        with trace_path.open() as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, _ = run(["report", "--input", "-"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "1,400.000000"

    def long_trace(self):
        """A 5,000-step run, longer than one block of trace rows."""
        rng = random.Random(5)
        values = [rng.randint(1, 6) for _ in range(5_001)]
        return run_continual(ClassSequence(tuple(values), 6), RunConfig())

    def long_trace_bytes(self, newline):
        """long_trace() as written, with the given line ends."""
        buffer = io.StringIO()
        write_trace(self.long_trace(), buffer)
        return buffer.getvalue().replace("\n", newline).encode("utf-8")

    # (line of a byte that is not UTF-8, line of a row with a bad phase, line named)
    @pytest.mark.parametrize("byte_line,row_line,named", [
        (3000, None, 3000),  # the byte lies past the first 8 KiB the decoder reads
        (3000, 10, 10),  # a bad row comes before the bad byte in the same block
        (10, BLOCK_ROWS + 400, 10),  # a bad byte comes before a bad row in a later block
    ], ids=["byte-past-8-kib", "row-then-byte", "byte-then-row-in-a-later-block"])
    def test_the_first_bad_line_in_the_file_is_named(self, byte_line, row_line, named,
                                                     tmp_path, capsys):
        lines = self.long_trace_bytes("\n").split(b"\n")
        lines[byte_line - 1] = lines[byte_line - 1].replace(b",", b"\xff,", 1)
        if row_line is not None:
            fields = lines[row_line - 1].split(b",")
            fields[1] = b"bogus"
            lines[row_line - 1] = b",".join(fields)
        path = tmp_path / "trace.csv"
        path.write_bytes(b"\n".join(lines))
        code, out, err = run(["report", "--input", str(path)], capsys)
        message = "non-ASCII character '\\udcff'" if named == byte_line else "bad phase 'bogus'"
        assert (code, out, err) == (1, "", f"error: line {named}: {message}\n")

    def report_outputs(self, argument, tmp_path, capsys):
        series, svg = tmp_path / "series.csv", tmp_path / "chart.svg"
        code, _, err = run(["report", "--input", argument, "--out", str(series), "--svg", str(svg)],
                           capsys)
        assert (code, err) == (0, "")
        return series.read_bytes(), svg.read_bytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_stdin_and_file_give_the_same_series_and_chart(self, newline, tmp_path, capsys,
                                                           monkeypatch):
        data = self.long_trace_bytes(newline)
        path = tmp_path / "trace.csv"
        path.write_bytes(data)
        from_file = self.report_outputs(str(path), tmp_path, capsys)
        # as the interpreter opens stdin on POSIX: newline="\n", so no CR ends a line
        with path.open(encoding="utf-8", newline="\n") as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            assert self.report_outputs("-", tmp_path, capsys) == from_file
        series = self.long_trace().cumulative_mape.tolist()
        assert from_file[0].decode("utf-8") == "test_step,cumulative_mape\n" + "".join(
            f"{step},{value:.6f}\n" for step, value in enumerate(series, start=1)
        )

    def test_a_lone_cr_trace_on_the_real_stdin_reads_as_from_a_file(self, tmp_path, capsys):
        data = self.long_trace_bytes("\r")
        path = tmp_path / "trace.csv"
        path.write_bytes(data)
        code, from_file, _ = run(["report", "--input", str(path)], capsys)
        assert code == 0
        env = dict(os.environ, PYTHONPATH=str(Path(symcast.__file__).resolve().parent.parent))
        result = subprocess.run([sys.executable, "-m", "symcast.cli", "report", "--input", "-"],
                                input=data, capture_output=True, env=env, check=False)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.decode("utf-8") == from_file


# modules no command may import: each costs start-up, and Python's own start-up may load none
HEAVY = ("dataclasses", "inspect", "numpy")

# runs `python -m symcast.cli ARGS`, then names on its last stderr line each HEAVY module it loaded
RUN_THEN_LIST_HEAVY = f"""\
import runpy, sys
try:
    runpy.run_module("symcast.cli", run_name="__main__", alter_sys=True)
finally:
    print("loaded:", *sorted(set({HEAVY!r}) & set(sys.modules)), file=sys.stderr)
"""


@functools.cache
def heavy_at_start():
    """The HEAVY modules that a bare `python -c pass` loads here: not the program's."""
    listed = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                            capture_output=True, text=True, check=True)
    return set(HEAVY) & set(listed.stdout.split())


class TestStartWithoutNumpy:
    """No command and not --version imports numpy, dataclasses or inspect, on success or failure."""

    def spawn(self, *args):
        env = dict(os.environ, PYTHONPATH=str(Path(symcast.__file__).resolve().parent.parent))
        result = subprocess.run([sys.executable, "-c", RUN_THEN_LIST_HEAVY, *args],
                                capture_output=True, text=True, env=env, check=False)
        *errors, loaded = result.stderr.splitlines()
        assert loaded.startswith("loaded:")
        return result.returncode, errors, set(loaded.split()[1:]) - heavy_at_start()

    def test_report_and_version_run_without_numpy(self, carbus_file, tmp_path):
        trace, chart = tmp_path / "trace.csv", tmp_path / "chart.svg"
        assert self.spawn("predict", "--input", str(carbus_file), "--out", str(trace)) == (
            0, [], set())
        assert self.spawn("report", "--input", str(trace), "--out", str(tmp_path / "series.csv"),
                          "--svg", str(chart)) == (0, [], set())
        assert chart.read_text(encoding="utf-8").startswith("<svg")
        assert self.spawn("--version") == (0, [], set())

    @pytest.mark.parametrize("command, good, bad, error", [
        (["encode"], "Car\nBus\n", "Car\nB\x00s\n",
         "corpus row 1 contains NUL, which collides with padding"),
        (["predict", "--numeric"], "1\n2.5\n20\n3\n", "7\n", "need at least 2 elements, got 1"),
        (["predict", "--baseline", "--decode"], "Car\nBus\nBu\nCar\n", "Car\n",
         "need at least 2 elements, got 1"),
    ])
    def test_encode_and_predict_run_without_numpy(self, command, good, bad, error, tmp_path):
        for text, expected in ((good, (0, [], set())), (bad, (1, [f"error: {error}"], set()))):
            (tmp_path / "input.txt").write_text(text, encoding="utf-8")
            assert self.spawn(command[0], "--input", str(tmp_path / "input.txt"),
                              "--out", str(tmp_path / "out.csv"), *command[1:]) == expected

    def test_a_refused_trace_is_reported_without_numpy(self, tmp_path):
        trace = tmp_path / "train_only.csv"
        trace.write_text(TRACE_HEADER + "\n1,train,1,1.000000,1,5,4,,2.000000\n")
        assert self.spawn("report", "--input", str(trace)) == (
            1, ["error: trace has no test steps"], set())


class TestParser:
    def test_version(self, capsys):
        code, out, _ = run(["--version"], capsys)
        assert code == 0
        assert "symcast" in out

    def test_unknown_flag_is_a_usage_error(self, carbus_file, capsys):
        code, _, _ = run(["encode", "--input", str(carbus_file), "--bogus"], capsys)
        assert code == 2

    def test_missing_command_is_a_usage_error(self, capsys):
        assert run([], capsys)[0] == 2

    def test_input_flag_is_required(self, capsys):
        assert run(["encode"], capsys)[0] == 2
