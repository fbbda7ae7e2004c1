"""Tests for corpus and numeric-series ingestion."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symcast.errors import BadEncodingError, BadNumberError, EmptyCorpusError
from symcast.ingest import _lines, read_numeric_series, read_text_corpus


def stream(data: bytes) -> io.BytesIO:
    return io.BytesIO(data)


class TestReadTextCorpus:
    def test_one_item_per_line(self):
        corpus = read_text_corpus(stream(b"Car\nBus\nBus\n"))
        assert corpus.items == ("Car", "Bus", "Bus")

    def test_blank_lines_are_skipped(self):
        corpus = read_text_corpus(stream(b"a\n\nb\n"))
        assert corpus.items == ("a", "b")

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyCorpusError):
            read_text_corpus(stream(b""))

    def test_whitespace_only_input_rejected(self):
        with pytest.raises(EmptyCorpusError):
            read_text_corpus(stream(b"\n\n\n"))

    def test_missing_final_newline(self):
        corpus = read_text_corpus(stream(b"a\nb"))
        assert corpus.items == ("a", "b")

    @pytest.mark.parametrize("data", [b"a\r\nb\r\n", b"a\rb\r", b"a\r\nb"])
    def test_carriage_return_terminators(self, data):
        assert read_text_corpus(stream(data)).items == ("a", "b")

    def test_whitespace_only_rows_are_items(self):
        corpus = read_text_corpus(stream(b"a\n \n\t\nb\n"))
        assert corpus.items == ("a", " ", "\t", "b")

    def test_interior_whitespace_is_preserved(self):
        corpus = read_text_corpus(stream(b"two words\n  indented\n"))
        assert corpus.items == ("two words", "  indented")

    def test_utf8_symbols(self):
        corpus = read_text_corpus(stream("café\n".encode("utf-8")))
        assert corpus.items == ("café",)

    def test_invalid_utf8_reports_the_byte_offset(self):
        with pytest.raises(BadEncodingError) as info:
            read_text_corpus(stream(b"Car\n\xff\n"))
        assert info.value.byte_offset == 4

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_is_placed_on_its_line_by_the_line_end_rule(self, newline):
        with pytest.raises(BadEncodingError) as info:
            read_text_corpus(stream(newline.join([b"Car", b"", b"Bus", b"B\xffs", b""])))
        assert info.value.line_number == 4

    def test_source_is_recorded(self):
        corpus = read_text_corpus(stream(b"x\n"), source="sample.txt")
        assert corpus.source == "sample.txt"


class TestLineEnds:
    """_lines replaces line ends only in text that holds a \r, and splits as it always did."""

    @given(st.lists(st.sampled_from(["\r", "\n", "\r\n", "a", "b", "é"])).map("".join))
    def test_lines_match_the_replacing_split(self, text):
        assert _lines(text) == text.replace("\r\n", "\n").replace("\r", "\n").split("\n")

    def test_text_without_a_carriage_return_is_split_at_each_newline(self):
        assert _lines("a\n\nb\n") == ["a", "", "b", ""]


class TestReadNumericSeries:
    def test_integers_pass_through(self):
        corpus = read_numeric_series(stream(b"20\n15\n18\n"))
        assert corpus.items == ("20", "15", "18")

    def test_integer_valued_floats_are_canonicalized(self):
        assert read_numeric_series(stream(b"20.0\n")).items == ("20",)
        assert read_numeric_series(stream(b"-3.0\n")).items == ("-3",)
        assert read_numeric_series(stream(b"1e3\n")).items == ("1000",)

    def test_fractional_values_keep_a_shortest_decimal(self):
        corpus = read_numeric_series(stream(b"0.5\n2.25\n"))
        assert corpus.items == ("0.5", "2.25")

    # float() would read 1_000 as 1000, taking '_' for a digit separator, and the
    # full-width digits as 12 and the Arabic-Indic one as 4
    @pytest.mark.parametrize("line", [b"abc", b"1_000", "\uff11\uff12".encode(), "\u0664".encode()])
    def test_unparseable_line_reports_its_number(self, line):
        with pytest.raises(BadNumberError) as info:
            read_numeric_series(stream(line + b"\n"))
        assert info.value.line_number == 1

    def test_line_numbers_count_physical_lines(self):
        with pytest.raises(BadNumberError) as info:
            read_numeric_series(stream(b"20\n\nabc\n"))
        assert info.value.line_number == 3

    @pytest.mark.parametrize("data", [b"nan\n", b"inf\n", b"-inf\n"])
    def test_non_finite_values_rejected(self, data):
        with pytest.raises(BadNumberError):
            read_numeric_series(stream(data))

    def test_empty_series_rejected(self):
        with pytest.raises(EmptyCorpusError):
            read_numeric_series(stream(b"\n"))

    def test_blank_lines_are_skipped(self):
        corpus = read_numeric_series(stream(b"1\n\n2\n"))
        assert corpus.items == ("1", "2")


line_text = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=20,
)


@given(items=st.lists(line_text, min_size=1, max_size=12))
def test_text_corpus_round_trips(items):
    data = ("\n".join(items) + "\n").encode("utf-8")
    corpus = read_text_corpus(stream(data))
    assert corpus.items == tuple(items)
    again = read_text_corpus(stream(("\n".join(corpus.items) + "\n").encode("utf-8")))
    assert again.items == corpus.items


@given(values=st.lists(st.integers(min_value=-10_000, max_value=10_000), min_size=1, max_size=12))
def test_numeric_series_round_trips(values):
    data = ("\n".join(str(v) for v in values) + "\n").encode("utf-8")
    corpus = read_numeric_series(stream(data))
    assert corpus.items == tuple(str(v) for v in values)
    again = read_numeric_series(stream(("\n".join(corpus.items) + "\n").encode("utf-8")))
    assert again.items == corpus.items
