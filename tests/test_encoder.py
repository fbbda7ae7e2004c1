"""Tests for the symbol-to-integer-class encoder."""

import copy
import io
import pickle
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcast import encoder
from symcast.cli import _write_encode_report
from symcast.encoder import (
    ClassSequence,
    MatchScore,
    SensorMemory,
    SymbolMatrix,
    build_sensor_memory,
    class_encode,
    decode_class,
    encode_corpus,
    resolve_reference,
    swap_match,
    symbol_integer_transform,
)
from symcast.errors import (
    BadClassError,
    BadClassLevelError,
    BadReferenceError,
    EmptyCorpusError,
    EmptyMemoryError,
    EmptyRowError,
    LengthMismatchError,
    NulCharacterError,
)

from symcast.ingest import Corpus

from oracle import encode_reference, encode_report_reference, match_reference

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
corpora = st.lists(words, min_size=2, max_size=8)

# Any character but NUL, with lone surrogates (category Cs) and astral
# characters drawn on purpose as well as by chance.
symbols = st.one_of(
    st.characters(exclude_categories=(), exclude_characters="\x00"),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    st.characters(min_codepoint=0x10000),
)


@st.composite
def wide_corpora(draw):
    """Up to 9 rows, 1-130 wide; each row shares a random prefix with one full-width row."""
    width = draw(st.integers(min_value=1, max_value=130))
    base = draw(st.text(symbols, min_size=width, max_size=width))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        shared = draw(st.integers(min_value=0, max_value=width))
        row = base[:shared] + draw(st.text(symbols, max_size=width - shared))
        rows.append(row or base[0])
    rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), base)
    return rows


def naive_bit_string(row, reference, width):
    """Agreement bits of two rows, first cell first, padding cells equal to each other."""
    padded_row, padded_reference = row.ljust(width, "\x00"), reference.ljust(width, "\x00")
    return "".join("1" if a == b else "0" for a, b in zip(padded_row, padded_reference))


def wide_lowercase_corpus(rows, width=64, seed=0):
    """Seeded rows up to `width` wide sharing a random-length prefix with the last row."""
    rng = random.Random(seed)
    reference = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=width))
    out = []
    for _ in range(rows - 1):
        shared = rng.randrange(width)
        tail = rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(shared + 1, width) - shared)
        out.append(reference[:shared] + "".join(tail))
    return out + [reference]


class TestSymbolIntegerTransform:
    def test_single_word_codes(self):
        matrix = symbol_integer_transform(["Car"])
        assert matrix.rows == 1
        assert matrix.width == 3
        assert matrix.codes.tolist() == [[67, 97, 114]]

    def test_shorter_rows_are_zero_padded(self):
        matrix = symbol_integer_transform(["ab", "abc"])
        assert matrix.codes.tolist() == [[97, 98, 0], [97, 98, 99]]
        assert np.count_nonzero(matrix.codes, axis=1).tolist() == [2, 3]
        assert matrix.width == 3

    def test_codes_are_a_read_only_uint32_array(self):
        matrix = symbol_integer_transform(["a😀", "\ud800"])
        assert matrix.codes.format == "I"
        assert matrix.codes.shape == (2, 2)
        assert matrix.codes.tolist() == [[97, 0x1F600], [0xD800, 0]]
        with pytest.raises(TypeError):
            matrix.codes[0, 0] = 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            symbol_integer_transform([])

    def test_empty_row_reported_with_index(self):
        with pytest.raises(EmptyRowError) as info:
            symbol_integer_transform(["a", "", "c"])
        assert info.value.row_index == 1

    def test_nul_character_rejected(self):
        # code 0 is the padding value, so a literal NUL would alias padding
        with pytest.raises(NulCharacterError) as info:
            symbol_integer_transform(["a\x00b"])
        assert info.value.row_index == 0

    def test_the_first_bad_row_decides_the_error(self):
        with pytest.raises(NulCharacterError) as info:
            symbol_integer_transform(["a", "\x00", ""])
        assert info.value.row_index == 1
        with pytest.raises(EmptyRowError) as info:
            symbol_integer_transform(["a", "", "\x00"])
        assert info.value.row_index == 1


def utf32_codes(corpus):
    """The uint32 code matrix of any corpus, one row at a time: code points, zero-padded."""
    codes = np.zeros((len(corpus), max(map(len, corpus))), dtype=np.uint32)
    for row, word in enumerate(corpus):
        codes[row, :len(word)] = np.frombuffer(word.encode("utf-32-le", "surrogatepass"), np.uint32)
    return codes


ascii_corpora = st.lists(
    st.text(st.characters(min_codepoint=1, max_codepoint=127), min_size=1, max_size=70),
    min_size=1, max_size=12,
)
# every ASCII character but NUL moved past Latin-1, so that equal cells stay equal
WIDEN = {code: code + 0x100 for code in range(1, 128)}


# Ranges of code points, NUL left out; "bmp" holds the surrogates as well.
CODE_RANGES = {"ascii": (1, 0x7F), "latin1": (0x80, 0xFF), "bmp": (0x100, 0xFFFF),
               "astral": (0x10000, 0x10FFFF), "surrogate": (0xD800, 0xDFFF)}


@st.composite
def ranged_corpora(draw):
    """1-8 rows of 1-20 characters, drawn from one or more of CODE_RANGES."""
    names = draw(st.lists(st.sampled_from(sorted(CODE_RANGES)), min_size=1, unique=True))
    characters = st.one_of([st.characters(min_codepoint=low, max_codepoint=high,
                                          exclude_categories=())
                            for low, high in map(CODE_RANGES.__getitem__, names)])
    return draw(st.lists(st.text(characters, min_size=1, max_size=20), min_size=1, max_size=8))


def ord_codes(corpus):
    """Each cell's ord(), one character at a time, zero-padded to the longest row."""
    width = max(map(len, corpus))
    return [[ord(character) for character in word] + [0] * (width - len(word)) for word in corpus]


class TestFixedWidthTransform:
    """The code matrix, built through fixed-width numpy strings, against ord() per cell."""

    @given(corpus=ranged_corpora())
    @example(corpus=["a"])
    @example(corpus=["\ud800"])
    @example(corpus=["x", "y", "\U0001f600"])
    @example(corpus=["\ud800a", "b"])
    @example(corpus=["\u00e9", "ab"])
    @example(corpus=["a\U0001f600", "x"])
    @example(corpus=["abc", "a", "ab\x7f"])
    def test_codes_match_ord_per_cell(self, corpus):
        matrix = symbol_integer_transform(corpus)
        assert matrix.codes.tolist() == ord_codes(corpus)
        ascii_only = all(map(str.isascii, corpus))
        assert matrix.codes.format == ("B" if ascii_only else "I")
        assert matrix.codes.shape == (matrix.rows, matrix.width) == (len(corpus), max(map(len, corpus)))
        assert matrix.codes.readonly


class TestNarrowCodes:
    """An ASCII corpus is held one byte per cell; any other corpus as uint32."""

    @given(corpus=ascii_corpora)
    def test_an_ascii_corpus_gives_uint8_codes_equal_to_the_uint32_ones(self, corpus):
        matrix = symbol_integer_transform(corpus)
        assert matrix.codes.format == "B"
        assert matrix.codes.tolist() == utf32_codes(corpus).tolist()
        assert matrix.codes.readonly

    @pytest.mark.parametrize("corpus", [
        ["caf\u00e9", "abc"],     # Latin-1
        ["\x80"],                # the first code point past ASCII
        ["a", "\u4e2d\u6587"],    # the Basic Multilingual Plane
        ["ab\ud800", "ab"],       # a lone surrogate
        ["\U0001f600x"],          # past the BMP
    ])
    def test_any_other_corpus_stays_uint32(self, corpus):
        matrix = symbol_integer_transform(corpus)
        assert matrix.codes.format == "I"
        assert matrix.codes.tolist() == utf32_codes(corpus).tolist()

    def test_the_last_ascii_character_is_narrow(self):
        assert symbol_integer_transform(["\x7f", "a"]).codes.format == "B"

    @given(corpus=ascii_corpora)
    def test_equality_holds_across_the_two_dtypes(self, corpus):
        narrow = symbol_integer_transform(corpus)
        wide = SymbolMatrix(utf32_codes(corpus))
        assert narrow == wide and wide == narrow
        changed = np.array(wide.codes)
        changed[0, 0] += 1
        assert narrow != SymbolMatrix(changed)

    @given(corpus=ascii_corpora, level=st.integers(min_value=2, max_value=10),
           selector=st.sampled_from(["first", "last"]))
    def test_both_dtypes_encode_alike(self, corpus, level, selector):
        widened = [word.translate(WIDEN) for word in corpus]
        assert symbol_integer_transform(widened).codes.format == "I"
        narrow, wide = encode_corpus(corpus, level, selector), encode_corpus(widened, level, selector)
        assert narrow.scores == wide.scores
        assert narrow.classes == wide.classes


class TestSymbolMatrixShape:
    """A SymbolMatrix is built from its codes alone; rows and width read their shape."""

    @given(corpus=ascii_corpora)
    def test_rows_and_width_are_the_shape_of_the_codes(self, corpus):
        for codes in (utf32_codes(corpus), utf32_codes(corpus).T):
            matrix = SymbolMatrix(codes)
            assert (matrix.rows, matrix.width) == codes.shape

    def test_the_constructor_takes_only_the_codes(self):
        codes = utf32_codes(["ab", "cd", "ef"])
        assert SymbolMatrix._fields == ("codes",)
        for shape in ((3, 5), (9, 2), (3, 2)):  # a shape no longer restated, so never contradicted
            with pytest.raises(TypeError):
                SymbolMatrix(*shape, codes)
        assert len(swap_match(SymbolMatrix(codes))) == 3


class TestSymbolMatrixFromAView:
    """A matrix built from a whole view of more than one dimension equals the view, copied or not."""

    @pytest.mark.parametrize("corpus, kind", [(["ab", "c"], "B"), (["a\u00e9b", "c"], "I")])
    def test_a_matrix_rebuilt_from_its_codes_equals_it(self, corpus, kind):
        matrix = symbol_integer_transform(corpus)
        rebuilt = SymbolMatrix(matrix.codes)
        assert rebuilt == matrix
        assert (rebuilt.codes.format, rebuilt.codes.shape) == (kind, matrix.codes.shape)
        assert rebuilt.codes.readonly
        for made in (copy.deepcopy(rebuilt), pickle.loads(pickle.dumps(rebuilt)), rebuilt._replace()):
            assert made == matrix and made.codes.format == kind

    @pytest.mark.parametrize("corpus, kind", [(["ab", "c", "d"], "B"), (["a\u00e9b", "c", "d"], "I")])
    def test_a_transposed_view_keeps_its_shape_and_format(self, corpus, kind):
        codes = np.asarray(symbol_integer_transform(corpus).codes).T
        matrix = SymbolMatrix(memoryview(codes))
        assert (matrix.rows, matrix.width, matrix.codes.format) == (*codes.shape, kind)
        assert np.array_equal(np.asarray(matrix.codes), codes)
        assert pickle.loads(pickle.dumps(matrix)) == matrix

    def test_part_of_a_matrix_is_refused(self):
        matrix = symbol_integer_transform(["ab", "cd", "ef"])
        with pytest.raises(TypeError, match="codes: a view of more than one dimension must be whole"):
            SymbolMatrix(matrix.codes[1:])


class TestResolveReference:
    def test_named_selectors(self):
        assert resolve_reference("last", 4) == 3
        assert resolve_reference("first", 4) == 0

    def test_index_selector(self):
        assert resolve_reference(2, 4) == 2

    @pytest.mark.parametrize("bad", [-1, 4, 99])
    def test_out_of_range_index(self, bad):
        with pytest.raises(BadReferenceError):
            resolve_reference(bad, 4)

    def test_unknown_selector(self):
        with pytest.raises(BadReferenceError):
            resolve_reference("middle", 4)


class TestSwapMatch:
    def test_three_row_vehicle_corpus(self):
        matrix = symbol_integer_transform(["Car", "Bus", "Bus"])
        scores = swap_match(matrix, "last")
        assert [format(s.value, "03b") for s in scores] == ["000", "111", "111"]
        assert [s.value for s in scores] == [0, 7, 7]
        assert [s.scale for s in scores] == [0, 1, 1]

    def test_reference_against_itself_is_all_ones(self):
        matrix = symbol_integer_transform(["wxyz", "abcd"])
        scores = swap_match(matrix, "last")
        assert scores[1].value == 2**matrix.width - 1
        assert scores[1].scale == 1

    def test_first_reference(self):
        matrix = symbol_integer_transform(["aa", "ab"])
        scores = swap_match(matrix, "first")
        assert [format(s.value, "02b") for s in scores] == ["11", "10"]
        assert [s.value for s in scores] == [3, 2]
        assert [s.scale for s in scores] == [1.0, 2 / 3]

    def test_bits_read_most_significant_first(self):
        # agreement only in the leading position must outweigh the trailing one
        matrix = symbol_integer_transform(["ax", "xb", "ab"])
        scores = swap_match(matrix, "last")
        assert scores[0].value == 2  # bits (1, 0)
        assert scores[1].value == 1  # bits (0, 1)

    def test_values_wider_than_one_byte(self):
        # 9 and 17 cells span 2 and 3 packed bytes; the pad bits must drop off
        matrix = symbol_integer_transform(["a" * 9, "a" * 8 + "b", "b" * 17, "a" * 17])
        scores = swap_match(matrix, "last")
        assert [s.value for s in scores] == [
            0b11111111100000000,
            0b11111111000000000,
            0,
            2**17 - 1,
        ]

    @given(width=st.integers(min_value=1, max_value=130), data=st.data())
    def test_scale_is_the_correctly_rounded_ratio(self, width, data):
        # int true division rounds the exact rational once, as float(Fraction) does
        value = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        reference = "a" * width
        row = "".join("a" if (value >> (width - 1 - k)) & 1 else "b" for k in range(width))
        scores = swap_match(symbol_integer_transform([row, reference]), "last")
        assert scores[0].value == value
        assert scores[0].scale == float(Fraction(value, 2**width - 1))
        assert type(scores[0].scale) is float

    @pytest.mark.parametrize("width", [1, 8, 63, 64, 65, 127, 128, 129, 130])
    @settings(max_examples=20)
    @given(data=st.data())
    def test_word_boundaries_match_the_oracle(self, width, data):
        # rows fill whole 64-bit words or spill one cell into the next word
        row = st.text(alphabet="ab", min_size=1, max_size=width)
        rows = data.draw(st.lists(row, min_size=1, max_size=6))
        reference = data.draw(st.text(alphabet="ab", min_size=max(1, width - 3),
                                      max_size=max(1, width - 1)))  # narrower, past width 1
        corpus = [*rows, data.draw(st.text(alphabet="ab", min_size=width, max_size=width)),
                  reference]  # the copy of the reference agrees on every cell
        corpus.insert(data.draw(st.integers(min_value=0, max_value=len(corpus))), reference)
        reference_index = corpus.index(reference)
        scores = swap_match(symbol_integer_transform(corpus), reference_index)
        values, scales = match_reference(corpus, reference_index)
        assert [s.value for s in scores] == values
        assert [s.scale for s in scores] == scales
        assert scores[reference_index] == (2**width - 1, 1.0)
        assert scores[-1] == (2**width - 1, 1.0)

    def test_bad_reference_propagates(self):
        matrix = symbol_integer_transform(["a", "b"])
        with pytest.raises(BadReferenceError):
            swap_match(matrix, 2)


class TestClassSequence:
    @pytest.mark.parametrize("classes,bad", [((1, 0), 0), ((6, 1), 6), ((1, 9, 0, 1), 9)])
    def test_the_first_class_outside_the_level_is_named(self, classes, bad):
        with pytest.raises(BadClassError) as info:
            ClassSequence(classes, 5)
        assert str(info.value) == f"class {bad} out of range [1, 5]"

    @pytest.mark.parametrize("level", [1, 11])
    def test_a_level_outside_two_to_ten_is_refused(self, level):
        with pytest.raises(BadClassLevelError) as info:
            ClassSequence((1, 1, 1), level)
        assert str(info.value) == f"class_level: class level must be in [2, 10], got {level}"

    @given(classes=st.lists(st.integers(-3, 12), max_size=20), level=st.integers(2, 10))
    def test_refused_exactly_when_a_row_is_out_of_range(self, classes, level):
        bad = [cls for cls in classes if not 1 <= cls <= level]
        if not bad:
            assert ClassSequence(tuple(classes), level).classes == tuple(classes)
            return
        with pytest.raises(BadClassError) as info:
            ClassSequence(tuple(classes), level)
        assert str(info.value) == f"class {bad[0]} out of range [1, {level}]"

    def test_no_sensor_memory_is_built_from_a_bad_class(self):
        # class 0 would fill class level's slot, as slots[-1]; class 6 would index past the end
        for classes in ((0, 1), (6, 1)):
            with pytest.raises(BadClassError):
                build_sensor_memory(["a", "b"], ClassSequence(classes, 5))


class TestClassEncode:
    def test_vehicle_scales(self):
        scores = [
            MatchScore(value=v, scale=s) for v, s in [(0, 0.0), (7, 1.0), (7, 1.0)]
        ]
        result = class_encode(scores, 5)
        assert result.classes == (1, 5, 5)
        assert result.class_level == 5

    @pytest.mark.parametrize("level", range(2, 11))
    def test_zero_scale_is_class_one(self, level):
        scores = [MatchScore(value=0, scale=0.0)]
        assert class_encode(scores, level).classes == (1,)

    def test_half_scale_level_four(self):
        scores = [MatchScore(value=1, scale=0.5)]
        assert class_encode(scores, 4).classes == (2,)

    @pytest.mark.parametrize("level", [1, 0, 11, -3])
    def test_level_out_of_range(self, level):
        scores = [MatchScore(value=0, scale=0.0)]
        with pytest.raises(BadClassLevelError):
            class_encode(scores, level)

    def test_no_scores_rejected(self):
        with pytest.raises(ValueError):
            class_encode([], 5)

    def test_a_scale_above_one_gives_no_class_above_the_level(self):
        with pytest.raises(BadClassError, match=r"^class 25 out of range \[1, 5\]$"):
            class_encode([MatchScore(3, 2.0)], 5)

    @given(
        scales=st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=12),
        level=st.integers(min_value=2, max_value=10),
    )
    def test_monotone_in_scale(self, scales, level):
        scores = [MatchScore(value=0, scale=s) for s in scales]
        classes = class_encode(scores, level).classes
        pairs = sorted(zip(scales, classes))
        for (_, a), (_, b) in zip(pairs, pairs[1:]):
            assert a <= b


class TestSensorMemory:
    def test_vehicle_memory_slots(self, carbus, carbus_encoded):
        memory = carbus_encoded.memory
        assert memory.slots == ("Car", None, None, None, "Bus")

    def test_singleton_corpus_fills_only_the_reference_slot(self):
        encoded = encode_corpus(["solo"], class_level=5)
        assert encoded.classes.classes == (5,)
        assert encoded.memory.slots == (None, None, None, None, "solo")

    def test_last_writer_wins_on_a_shared_class(self):
        classes = ClassSequence(classes=(5, 5), class_level=5)
        memory = build_sensor_memory(["x", "y"], classes)
        assert memory.slots[4] == "y"

    def test_length_mismatch_rejected(self):
        classes = ClassSequence(classes=(1, 2), class_level=5)
        with pytest.raises(LengthMismatchError):
            build_sensor_memory(["only"], classes)


class TestDecodeClass:
    def test_exact_slots(self, carbus_encoded):
        memory = carbus_encoded.memory
        assert decode_class(1, memory) == ("Car", True)
        assert decode_class(5, memory) == ("Bus", True)

    def test_empty_slot_ties_toward_lower_class(self, carbus_encoded):
        # class 3 sits two away from both filled slots; the lower one wins
        assert decode_class(3, carbus_encoded.memory) == ("Car", False)

    def test_nearest_slot_when_distances_differ(self):
        memory = SensorMemory(slots=(None, "b", None, None, "e"))
        assert decode_class(3, memory) == ("b", False)
        assert decode_class(4, memory) == ("e", False)

    @pytest.mark.parametrize("cls", [0, 6, -1])
    def test_class_out_of_range(self, cls, carbus_encoded):
        with pytest.raises(BadClassError):
            decode_class(cls, carbus_encoded.memory)

    def test_all_empty_memory(self):
        with pytest.raises(EmptyMemoryError):
            decode_class(1, SensorMemory(slots=(None, None, None)))


def test_full_vehicle_encoding(carbus):
    """The nine-word corpus lands on classes 1 and 5 with a two-slot memory."""
    encoded = encode_corpus(carbus, class_level=5, reference="last")
    assert encoded.classes.classes == (1, 5, 5, 1, 1, 1, 1, 1, 5)
    assert [s.value for s in encoded.scores] == [0, 7, 7, 0, 0, 0, 0, 0, 7]
    assert encoded.memory.slots == ("Car", None, None, None, "Bus")


@given(corpus=corpora, level=st.integers(min_value=2, max_value=10))
def test_reference_row_always_encodes_to_the_class_level(corpus, level):
    encoded = encode_corpus(corpus, class_level=level, reference="last")
    assert encoded.classes.classes[-1] == level
    encoded = encode_corpus(corpus, class_level=level, reference="first")
    assert encoded.classes.classes[0] == level


@given(corpus=corpora, level=st.integers(min_value=2, max_value=10))
def test_rows_identical_to_the_reference_get_the_top_class(corpus, level):
    corpus = corpus + [corpus[0]]  # duplicate of the reference row
    encoded = encode_corpus(corpus, class_level=level, reference="last")
    assert encoded.classes.classes[0] == level


@given(corpus=corpora, level=st.integers(min_value=2, max_value=10))
def test_encoding_is_deterministic(corpus, level):
    first = encode_corpus(corpus, class_level=level)
    second = encode_corpus(corpus, class_level=level)
    assert first == second


@settings(max_examples=150)
@given(
    corpus=corpora,
    level=st.integers(min_value=2, max_value=10),
    data=st.data(),
)
def test_matches_the_brute_force_oracle(corpus, level, data):
    reference_index = data.draw(st.integers(min_value=0, max_value=len(corpus) - 1))
    expected_classes, expected_slots = encode_reference(corpus, level, reference_index)
    encoded = encode_corpus(corpus, class_level=level, reference=reference_index)
    assert list(encoded.classes.classes) == expected_classes
    assert list(encoded.memory.slots) == expected_slots


@settings(max_examples=100)
@given(
    corpus=wide_corpora(),
    level=st.integers(min_value=2, max_value=10),
    data=st.data(),
)
def test_wide_unicode_rows_match_the_brute_force_oracle(corpus, level, data):
    reference_index = data.draw(st.integers(min_value=0, max_value=len(corpus) - 1))
    expected_classes, expected_slots = encode_reference(corpus, level, reference_index)
    encoded = encode_corpus(corpus, class_level=level, reference=reference_index)
    assert list(encoded.classes.classes) == expected_classes
    assert list(encoded.memory.slots) == expected_slots

    width = encoded.matrix.width
    assert encoded.matrix.codes.tolist() == [
        [ord(ch) for ch in row] + [0] * (width - len(row)) for row in corpus
    ]
    reference = corpus[reference_index]
    assert [s.value for s in encoded.scores] == [
        int(naive_bit_string(row, reference, width), 2) for row in corpus
    ]


def test_wide_seeded_corpus_values_match_naive_bit_strings():
    corpus = wide_lowercase_corpus(2_000, seed=7)
    encoded = encode_corpus(corpus, class_level=5)
    assert encoded.matrix.width == 64
    reference = corpus[-1]
    assert [s.value for s in encoded.scores] == [
        int(naive_bit_string(row, reference, 64), 2) for row in corpus
    ]
    assert max(s.value for s in encoded.scores) == 2**64 - 1


@pytest.mark.parametrize("width,seed", [(1_000, 11), (20_000, 12)])
def test_multi_word_rows_match_naive_bit_strings(width, seed):
    # rows share random-length prefixes, so their many words hold distinct bits and a
    # word read out of order shows; the reference stops short of the widest row
    corpus = wide_lowercase_corpus(12, width, seed)
    corpus.insert(5, corpus[-1][: width - 70])
    scores = swap_match(symbol_integer_transform(corpus), 5)
    assert [s.value for s in scores] == [
        int(naive_bit_string(row, corpus[5], width), 2) for row in corpus
    ]
    values, scales = match_reference(corpus, 5)
    assert [s.value for s in scores] == values
    assert [s.scale for s in scores] == scales
    assert len({s.value for s in scores}) == len(corpus)


def test_encoding_allocates_no_per_cell_objects():
    # 1.28M cells; per-cell tuples peaked at 26.6 MiB, the arrays at 11.0 MiB
    corpus = wide_lowercase_corpus(20_000, seed=3)
    encode_corpus(corpus[:10], class_level=5)
    tracemalloc.start()
    try:
        encode_corpus(corpus, class_level=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20


DISTINCT_WIDTHS = [1, 63, 64, 65, 127, 128, 129, 191, 192, 193]


@st.composite
def repeating_corpora(draw, width):
    """Up to 40 rows from a vocabulary of 1-4 words, one of them `width` wide and in the corpus."""
    vocabulary = [draw(st.text(alphabet="ab", min_size=width, max_size=width)),
                  *draw(st.lists(st.text(alphabet="ab", min_size=1, max_size=width), max_size=3))]
    rows = draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=40))
    return rows if width in map(len, rows) else [*rows, vocabulary[0]]


def check_against_the_references(corpus, level, selector):
    """swap_match, encode_corpus and the encode CSV agree with tests/oracle.py."""
    reference_index = {"first": 0, "last": len(corpus) - 1}.get(selector, selector)
    values, scales = match_reference(corpus, reference_index)
    scores = swap_match(symbol_integer_transform(corpus), selector)
    assert [s.value for s in scores] == values
    assert [s.scale for s in scores] == scales

    encoded = encode_corpus(corpus, level, selector)
    assert encoded.scores == tuple(scores)
    # rows with equal match values share one score, and the distinct scores ascend
    assert len({id(s) for s in encoded.scores}) == len(set(values))
    assert list(encoded.distinct) == sorted(set(zip(values, scales)))
    assert encoded.score_index.format == "q" and encoded.score_index.readonly
    classes, slots = encode_reference(corpus, level, reference_index)
    assert list(encoded.classes.classes) == classes
    assert list(encoded.memory.slots) == slots
    assert encoded.classes.class_level == level

    streams = io.StringIO(), io.StringIO()
    report = Corpus(items=tuple(corpus), source="<drawn>")
    _write_encode_report(encoded, report, streams[0])
    encode_report_reference(encoded, report, streams[1])
    assert streams[0].getvalue() == streams[1].getvalue()


# Alphabets of one lane width or another: ASCII (8-bit lanes); Latin-1, a lone
# surrogate and an astral character (32-bit lanes).
LANE_ALPHABETS = ["ab", "a\u00e9", "a\ud800", "b\U0001f600"]


class TestStdlibEncoder:
    """encode_corpus's Python-int scores against numpy's swap_match and tests/oracle.py."""

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 200])
    @pytest.mark.parametrize("alphabet", LANE_ALPHABETS, ids=["ascii", "latin1", "surrogate", "astral"])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_rows_up_to_a_full_width_reference_match_both_references(self, width, alphabet, data):
        full = data.draw(st.text(alphabet, min_size=width, max_size=width), label="full")
        rows = data.draw(st.lists(st.text(alphabet, min_size=1, max_size=width), max_size=9))
        corpus = [*rows, full, *data.draw(st.lists(st.sampled_from([full, *rows]), max_size=3))]
        # the full-width row by number, so that other rows are shorter, or the first or the last
        selector = data.draw(st.sampled_from([len(rows), "first", "last"]), label="selector")
        check_against_the_references(corpus, data.draw(st.integers(2, 10)), selector)

    def test_a_few_distinct_rows_build_ints_of_their_own_size(self):
        # a block holds 32,768 rows of 8 ASCII cells; three distinct rows need 24 bytes each int
        rng = random.Random(4)
        for words in (["abcdefgh", "abcdxxxx", "zzzzzzzz"], ["a\u00e9", "\u00e9a", "ab"]):
            corpus = rng.choices(words, k=1000) + [words[0]]
            check_against_the_references(corpus, 5, "last")
            tracemalloc.start()
            try:
                encode_corpus(corpus, class_level=5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < encoder.BLOCK_BYTES // 4

    @pytest.mark.parametrize("block_bytes", [1, 9, 64, 100])
    @settings(max_examples=20)
    @given(data=st.data())
    def test_blocks_of_a_few_rows_match_the_references(self, block_bytes, data):
        # more distinct rows than a block holds: the last block may be short
        rows = data.draw(st.lists(st.text("ab\u00e9", min_size=1, max_size=12), min_size=1, max_size=30))
        with mock.patch.object(encoder, "BLOCK_BYTES", block_bytes):
            check_against_the_references(rows, 4, data.draw(st.sampled_from(["first", "last"])))


class TestDistinctValues:
    """Each distinct match value is scored and classed once, then spread back to its rows."""

    @pytest.mark.parametrize("width", DISTINCT_WIDTHS)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_repeating_corpora_match_the_references(self, width, data):
        corpus = data.draw(repeating_corpora(width))
        selector = data.draw(st.one_of(st.sampled_from(["first", "last"]),
                                       st.integers(min_value=0, max_value=len(corpus) - 1)))
        check_against_the_references(corpus, data.draw(st.integers(2, 10)), selector)

    @pytest.mark.parametrize("width", DISTINCT_WIDTHS)
    @pytest.mark.parametrize("selector", ["first", "last", 7])
    def test_corpora_of_mostly_distinct_values_match_the_references(self, width, selector):
        # random rows up to `width` cells: past a few cells nearly every row holds
        # its own value, and values differ in every byte of the packed rows
        rng = random.Random(width)
        corpus = ["".join(rng.choices("ab", k=rng.randint(1, width))) for _ in range(299)]
        check_against_the_references(corpus + ["a" * width], 6, selector)

    @pytest.mark.parametrize("width", DISTINCT_WIDTHS)
    @pytest.mark.parametrize("selector", ["first", "last", 2])
    def test_rows_that_are_all_equal_share_the_top_score(self, width, selector):
        corpus = ["a" * width] * 5
        check_against_the_references(corpus, 7, selector)
        encoded = encode_corpus(corpus, 7, selector)
        assert set(encoded.scores) == {(2**width - 1, 1.0)}
        assert encoded.classes.classes == (7,) * 5

    @pytest.mark.parametrize("width", DISTINCT_WIDTHS)
    @pytest.mark.parametrize("selector", ["first", "last", 0])
    def test_a_one_row_corpus_is_its_own_reference(self, width, selector):
        check_against_the_references(["b" * width], 3, selector)

    def test_rows_drawn_from_five_words_share_five_scores(self):
        rng = random.Random(5)
        words = ["a", "ab", "abc", "abcd", "abcde"]
        corpus = rng.choices(words, k=19_999) + ["abcde"]
        scores = encode_corpus(corpus, class_level=5).scores
        assert len(scores) == 20_000
        assert len({id(s) for s in scores}) == 5
        assert len({s.value for s in scores}) == 5
        assert len({id(s) for s in swap_match(symbol_integer_transform(corpus))}) == 5
