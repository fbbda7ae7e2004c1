"""Symbol-to-integer-class encoding.

A corpus becomes a zero-padded matrix of character codes, one fixed-width
numpy string per row: ``uint8`` cells for an ASCII corpus, else ``uint32``.
A row's agreement bits with a reference row, packed into big-endian 64-bit
words, are its exact integer match value. One ``np.lexsort`` over the word
columns finds the distinct values, ascending, and each row's index into
them; only a distinct value becomes Python objects: its ``MatchScore``
(scale = value / maximum) and class ``floor(class_level ** scale)``. The
last row to land on a class owns its decoding slot. All functions are pure.
"""

from __future__ import annotations

__all__ = [
    "ClassSequence", "EncodedCorpus", "MatchScore", "SensorMemory", "SymbolMatrix",
    "build_sensor_memory", "class_encode", "decode_class", "encode_corpus", "resolve_reference",
    "swap_match", "symbol_integer_transform",
]

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .config import Reference, check_class_level
from .errors import (
    BadClassError, BadReferenceError, EmptyCorpusError, EmptyMemoryError, EmptyRowError,
    LengthMismatchError, NulCharacterError,
)

@dataclass(frozen=True, eq=False)
class ArrayRecord:
    """A record whose np.ndarray fields are read-only views, however it is built or copied."""

    def __post_init__(self) -> None:
        for field in fields(self):
            if field.type == "np.ndarray":  # annotations are text under the __future__ import
                array = np.asarray(getattr(self, field.name)).view()
                array.flags.writeable = False
                object.__setattr__(self, field.name, array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
                   for mine, theirs in zip(vars(self).values(), vars(other).values()))

    def __reduce__(self):
        return type(self), tuple(vars(self).values())  # copy and pickle call __init__


@dataclass(frozen=True, eq=False)
class SymbolMatrix(ArrayRecord):
    """Padded matrix of character codes, one row per corpus item.

    ``codes`` is a read-only array of shape (rows, width), ``uint8`` for an
    ASCII corpus and ``uint32`` otherwise: cell [r, k] is the code point of
    row r's k-th character, or 0 past the row's end. NUL is refused, so a
    row's length is its count of nonzero codes. rows and width read the
    shape, and equality compares the codes by value, whatever their dtype.
    """

    codes: np.ndarray

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def width(self) -> int:
        return self.codes.shape[1]


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
    """Integer classes for a corpus, each in [1, class_level]; any other is refused when built."""

    classes: tuple[int, ...]
    class_level: int

    def __post_init__(self) -> None:
        check_class_level(self.class_level)
        outside = {cls for cls in set(self.classes) if not 1 <= cls <= self.class_level}
        if outside:  # each distinct class was tested once; name the first bad one in sequence order
            bad = next(cls for cls in self.classes if cls in outside)
            raise BadClassError(f"class {bad} out of range [1, {self.class_level}]")

    def __len__(self) -> int:
        return len(self.classes)


class SensorMemory(NamedTuple):
    """Class-indexed symbol slots used to decode predictions.

    Slot i holds the symbol for class i+1, or None when no corpus row
    encoded to that class (a redundant class cell).
    """

    slots: tuple[str | None, ...]

    @property
    def class_level(self) -> int:
        return len(self.slots)


@dataclass(frozen=True, eq=False)
class EncodedCorpus(ArrayRecord):
    """Everything the encoder derives from one corpus: row r's score is distinct[score_index[r]]."""

    matrix: SymbolMatrix
    distinct: tuple[MatchScore, ...]  # ascending
    score_index: np.ndarray  # read-only, one entry per row
    classes: ClassSequence
    memory: SensorMemory

    @property
    def scores(self) -> tuple[MatchScore, ...]:
        """Each row's score, built anew on each access from an object array: no per-row int."""
        return tuple(np.fromiter(self.distinct, object, len(self.distinct))[self.score_index])


def symbol_integer_transform(corpus: Sequence[str]) -> SymbolMatrix:
    """Turn symbol strings into a zero-padded matrix of character codes.

    Raises EmptyCorpusError for an empty corpus, and for the first bad row
    EmptyRowError for an empty string or NulCharacterError for a NUL
    character (code 0 is reserved for padding), each with the 0-based row
    index. Lone surrogates keep their code points, as ord() gives them.
    """
    if len(corpus) == 0:
        raise EmptyCorpusError("corpus is empty")
    text = "".join(corpus)
    if "" in corpus or "\x00" in text:
        for index, word in enumerate(corpus):
            if word == "":
                raise EmptyRowError(index)
            if "\x00" in word:
                raise NulCharacterError(index)

    narrow = text.isascii()  # a flag the string already holds, not a scan
    # numpy sizes the strings to the longest row and pads with NUL, the code refused above
    strings = np.array(corpus, dtype="S" if narrow else "U")
    codes = strings.view(np.uint8 if narrow else np.uint32).reshape(len(corpus), -1)
    return SymbolMatrix(codes)


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


def _distinct_scores(matrix: SymbolMatrix,
                     reference: Reference) -> tuple[tuple[MatchScore, ...], np.ndarray]:
    """The distinct match scores in ascending order, and each row's index into them.

    Agreement compares the integer codes: no shared scaling changes which cells are equal.
    """
    # Padded on the left to whole 64-bit words, a packed row reads big-endian as its
    # value; a stable pass per word, the first word last, sorts the rows by value.
    pad = -matrix.width % 64
    agree = np.zeros((matrix.rows, pad + matrix.width), dtype=bool)
    np.equal(matrix.codes, matrix.codes[resolve_reference(reference, matrix.rows)], out=agree[:, pad:])
    words = np.packbits(agree, axis=1).view(">u8")
    order = np.lexsort(words.T[::-1])
    starts = np.r_[True, np.diff(words[order], axis=0).any(axis=1)]  # a new value begins
    index = np.empty_like(order)
    index[order] = np.cumsum(starts) - 1
    distinct = words[order[starts]].view(f"V{8 * words.shape[1]}")[:, 0].tolist()
    values = list(map(int.from_bytes, distinct, repeat("big")))
    max_value = values[-1]
    # positional: a NamedTuple binds keywords several times slower
    return tuple([MatchScore(value, value / max_value) for value in values]), index


def swap_match(matrix: SymbolMatrix, reference: Reference = "last") -> list[MatchScore]:
    """Each row's positional agreement with the reference row; equal values share one score."""
    distinct, index = _distinct_scores(matrix, reference)
    return list(map(distinct.__getitem__, index.tolist()))


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


def encode_corpus(corpus: Sequence[str], class_level: int,
                  reference: Reference = "last") -> EncodedCorpus:
    """Run the full encoding chain over a corpus, scoring each distinct match value once."""
    matrix = symbol_integer_transform(corpus)
    distinct, index = _distinct_scores(matrix, reference)
    distinct_classes = np.array(class_encode(distinct, class_level).classes)
    classes = ClassSequence(tuple(distinct_classes[index].tolist()), class_level)
    return EncodedCorpus(matrix, distinct, index, classes, build_sensor_memory(corpus, classes))
