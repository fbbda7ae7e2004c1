"""Symbol-to-integer-class encoding.

A corpus of symbol strings becomes a zero-padded ``uint32`` matrix of
character codes, built from one UTF-32 encoding of the joined corpus.
Every row is compared position-by-position against a chosen reference
row in one array comparison; the agreement bits, padded on the left to
whole 64-bit words and packed, are read as big-endian words, which give
each row's integer match value most-significant-bit first. Match values
are normalized by the corpus maximum into a scale in [0, 1], and the
scale is mapped through ``floor(class_level ** scale)`` onto an integer
class in [1, class_level]. A decodable class -> symbol memory is built
alongside, with the last corpus row to land on a class owning its slot.

No Python object is made per matrix cell: the cost is a few array passes
over rows x width cells plus one Python integer and one float per row
(and one ``int.from_bytes`` call per row for rows wider than 64).
Match values are kept as arbitrary-precision integers; a scale is their
int true division, the correctly rounded float of the exact ratio. All
functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    BadClassError,
    BadClassLevelError,
    BadReferenceError,
    EmptyCorpusError,
    EmptyMemoryError,
    EmptyRowError,
    LengthMismatchError,
    NulCharacterError,
)

# Reference-row selector: "last", "first", or a 0-based row index.
Reference = Union[str, int]

MIN_CLASS_LEVEL = 2
MAX_CLASS_LEVEL = 10


@dataclass(frozen=True, eq=False)
class SymbolMatrix:
    """Padded matrix of character codes, one row per corpus item.

    ``codes`` is a read-only ``uint32`` array of shape (rows, width):
    cell [r, k] is the code point of row r's k-th character, or 0 past
    the row's end.
    """

    rows: int
    width: int
    codes: np.ndarray
    lengths: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolMatrix):
            return NotImplemented
        return (
            (self.rows, self.width, self.lengths) == (other.rows, other.width, other.lengths)
            and np.array_equal(self.codes, other.codes)
        )


class MatchScore(NamedTuple):
    """Positional agreement of one row against the reference row.

    ``value`` is the row's agreement bits read MSB-first as an integer: bit
    width-1-k is 1 where the row's cell k equals the reference cell (padding
    zeros compare equal to padding zeros). ``scale`` is value divided by the
    maximum value over all rows.
    """

    value: int
    scale: float


@dataclass(frozen=True)
class ClassSequence:
    """Integer classes for a corpus, each in [1, class_level]."""

    classes: tuple[int, ...]
    class_level: int

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class SensorMemory:
    """Class-indexed symbol slots used to decode predictions.

    Slot i holds the symbol for class i+1, or None when no corpus row
    encoded to that class (a redundant class cell).
    """

    slots: tuple[str | None, ...]

    @property
    def class_level(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class EncodedCorpus:
    """Bundle of everything the encoder derives from one corpus."""

    matrix: SymbolMatrix
    scores: tuple[MatchScore, ...]
    classes: ClassSequence
    memory: SensorMemory


def symbol_integer_transform(corpus: Sequence[str]) -> SymbolMatrix:
    """Turn symbol strings into a zero-padded matrix of character codes.

    Raises EmptyCorpusError for an empty corpus, and for the first bad row
    EmptyRowError for an empty string or NulCharacterError for a NUL
    character (code 0 is reserved for padding), each with the 0-based row
    index. Lone surrogates keep their code points, as ord() gives them.
    """
    rows = len(corpus)
    if rows == 0:
        raise EmptyCorpusError("corpus is empty")
    lengths = np.fromiter(map(len, corpus), dtype=np.intp, count=rows)
    text = "".join(corpus)
    if lengths.min() == 0 or "\x00" in text:
        for index, word in enumerate(corpus):
            if word == "":
                raise EmptyRowError(index)
            if "\x00" in word:
                raise NulCharacterError(index)

    width = int(lengths.max())
    codes = np.zeros((rows, width), dtype=np.uint32)
    codes[np.arange(width) < lengths[:, None]] = np.frombuffer(
        text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    )
    codes.flags.writeable = False
    return SymbolMatrix(rows=rows, width=width, codes=codes, lengths=tuple(lengths.tolist()))


def resolve_reference(reference: Reference, rows: int) -> int:
    """Resolve a reference selector to a 0-based row index."""
    if reference == "last":
        return rows - 1
    if reference == "first":
        return 0
    if isinstance(reference, int) and not isinstance(reference, bool):
        if 0 <= reference < rows:
            return reference
        raise BadReferenceError(f"reference row {reference} out of range for {rows} rows")
    raise BadReferenceError(f"unknown reference selector: {reference!r}")


def swap_match(matrix: SymbolMatrix, reference: Reference = "last") -> list[MatchScore]:
    """Score every row's positional agreement against the reference row.

    Scaling all cells by the shared global maximum preserves cell equality
    exactly, so agreement is computed directly on the integer codes. Match
    values use arbitrary-precision integers, so wide rows lose nothing, and
    a scale is the correctly rounded float of value / max_value.
    """
    ref_index = resolve_reference(reference, matrix.rows)
    # Zero bits padded on the left fill each row to whole 64-bit words, read
    # big-endian without a shift; a wider row is read as one big-endian int.
    packed = np.packbits(
        np.pad(matrix.codes == matrix.codes[ref_index], ((0, 0), (-matrix.width % 64, 0))), axis=1
    )
    if packed.shape[1] == 8:
        values = packed.view(">u8")[:, 0].tolist()
    else:
        values = [int.from_bytes(row, "big") for row in packed]

    max_value = max(values)
    # positional: a NamedTuple binds keywords several times slower
    return [MatchScore(value, value / max_value) for value in values]


def check_class_level(class_level: int) -> None:
    """The one range rule for class_level; raises BadClassLevelError."""
    if not (MIN_CLASS_LEVEL <= class_level <= MAX_CLASS_LEVEL):
        raise BadClassLevelError(
            f"class level must be in [{MIN_CLASS_LEVEL}, {MAX_CLASS_LEVEL}], got {class_level}"
        )


def class_encode(scores: Sequence[MatchScore], class_level: int) -> ClassSequence:
    """Map match scales onto integer classes via floor(class_level ** scale)."""
    check_class_level(class_level)
    if len(scores) == 0:
        raise ValueError("scores is empty")
    classes = tuple(math.floor(class_level ** score.scale) for score in scores)
    return ClassSequence(classes=classes, class_level=class_level)


def build_sensor_memory(corpus: Sequence[str], classes: ClassSequence) -> SensorMemory:
    """Fill class slots with symbols; the last row per class wins its slot."""
    if len(corpus) != len(classes):
        raise LengthMismatchError(
            f"corpus has {len(corpus)} rows but class sequence has {len(classes)}"
        )
    slots: list[str | None] = [None] * classes.class_level
    for word, cls in zip(corpus, classes.classes):
        slots[cls - 1] = word
    return SensorMemory(slots=tuple(slots))


def decode_class(cls: int, memory: SensorMemory) -> tuple[str, bool]:
    """Decode a class to its symbol, falling back to the nearest filled slot.

    Returns (symbol, exact). exact is False when the class's own slot is
    empty and the nearest filled slot was used instead; equal distances
    resolve toward the lower class.
    """
    level = memory.class_level
    if not (1 <= cls <= level):
        raise BadClassError(f"class {cls} out of range [1, {level}]")

    slot = memory.slots[cls - 1]
    if slot is not None:
        return slot, True

    filled = [index for index, value in enumerate(memory.slots) if value is not None]
    if not filled:
        raise EmptyMemoryError("sensor memory has no filled slots")
    nearest = min(filled, key=lambda index: (abs(index - (cls - 1)), index))
    symbol = memory.slots[nearest]
    assert symbol is not None
    return symbol, False


def encode_corpus(
    corpus: Sequence[str],
    class_level: int,
    reference: Reference = "last",
) -> EncodedCorpus:
    """Run the full encoding chain over a corpus."""
    matrix = symbol_integer_transform(corpus)
    scores = swap_match(matrix, reference)
    classes = class_encode(scores, class_level)
    memory = build_sensor_memory(corpus, classes)
    return EncodedCorpus(
        matrix=matrix, scores=tuple(scores), classes=classes, memory=memory
    )
