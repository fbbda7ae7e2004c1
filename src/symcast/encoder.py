"""Symbol-to-integer-class encoding, without numpy.

Each distinct row is scored once, from Python ints. The distinct rows and
as many copies of the reference row, padded with NUL to the widest row,
are read BLOCK_BYTES at a time as big-endian ints of one lane per
character (8 bits for ASCII, else 32 bits of UTF-32). In their XOR, the
SWAR zero-lane test sets the top bit of each lane where the two agree;
the top bits, read as "0" and "1", are a row's key and order as its match
value does. Only a distinct key becomes a value, a ``MatchScore`` (scale =
value / maximum) and a class ``floor(class_level ** scale)``. The last
row to land on a class owns its decoding slot. All functions are pure.
``symbol_integer_transform`` and ``swap_match`` are the numpy reference
the tests compare against; each imports numpy where it runs.
"""

from __future__ import annotations

__all__ = [
    "ClassSequence", "EncodedCorpus", "MatchScore", "SensorMemory", "SymbolMatrix",
    "build_sensor_memory", "class_encode", "decode_class", "encode_corpus", "resolve_reference",
    "swap_match", "symbol_integer_transform",
]

import math
from array import array
from collections import namedtuple
from itertools import repeat
from typing import NamedTuple, Sequence

from .config import Reference, check_class_level
from .errors import (
    BadClassError, BadReferenceError, EmptyCorpusError, EmptyMemoryError, EmptyRowError,
    LengthMismatchError, NulCharacterError,
)

BLOCK_BYTES = 1 << 18  # padded distinct rows read as one int at a time, at least one row
_BIT_DIGITS = bytes.maketrans(b"\x00\x80", b"01")

# Record column annotations: the buffer formats each keeps, the array typecode of others
Ints = Reals = memoryview
_FORMATS = {"Ints": ("bBhHiIlLqQ", "q"), "Reals": ("d", "d")}  # a bool is copied as 0 or 1


class Record:
    """A frozen record of its class's annotated fields; Ints and Reals ones are read-only views.

    It binds its arguments as a call does, compares field by field and copies
    and pickles through its constructor, so each copy passes the class's checks
    again. A ``tuple[...]`` field holds a tuple. An Ints or Reals field views
    a buffer of one of its _FORMATS as it is; any other value, a bool buffer or
    a one-dimensional memoryview included, is copied into an array('q' or 'd').
    """

    def __init_subclass__(cls) -> None:
        annotations = cls.__dict__.get("__annotations__", {})  # text under the __future__ import
        cls._arguments = namedtuple(cls.__name__, annotations)  # binds, or raises, as a call does
        cls._fields = cls._arguments._fields
        cls._columns = {name: _FORMATS[kind] for name, kind in annotations.items() if kind in _FORMATS}
        cls._tuples = {name for name, kind in annotations.items() if kind.startswith("tuple[")}

    def __init__(self, *args: object, **kwargs: object) -> None:
        for name, value in zip(self._fields, self._arguments(*args, **kwargs)):
            if name in self._tuples:  # a list given would stay open to change, and unhashable
                value = tuple(value)
            if name in self._columns:
                formats, typecode = self._columns[name]
                if isinstance(value, memoryview) and value.ndim > 1:  # array() copies one dimension
                    if memoryview(value.obj) != value:
                        raise TypeError(f"{name}: a view of more than one dimension must be whole")
                    value = value.obj  # its own view has the shape and format, copied or pickled
                try:  # a memoryview, perhaps of part of an array, is copied: a view spans its object
                    view = None if isinstance(value, memoryview) else memoryview(value)
                except TypeError:  # a sequence of numbers
                    view = None
                if view is None or view.format not in formats:  # numpy's bools: tolist() gives ints
                    view = memoryview(array(typecode, value.tolist() if hasattr(value, "tolist")
                                            else value))
                value = view.toreadonly()
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Refuse fields that break the record's rule; a subclass's hook."""

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return vars(self) == vars(other)  # memoryviews compare shape and values, across formats

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy, pickle and _replace call __init__ with the object each view holds
        return type(self), tuple(value.obj if isinstance(value, memoryview) else value
                                 for value in vars(self).values())

    def _replace(self, **changes: object) -> Record:
        return type(self)(**{**dict(zip(self._fields, self.__reduce__()[1])), **changes})


class SymbolMatrix(Record):
    """Padded character codes, swap_match's input: ``codes`` has shape (rows, width).

    Cell [r, k] is the code point of row r's k-th character, or 0 past its end; the
    format is ``B`` (uint8) for an ASCII corpus and ``I`` (uint32) otherwise.
    """

    codes: Ints

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


class ClassSequence(Record):
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

    def __hash__(self) -> int:
        return hash((self.classes, self.class_level))


class SensorMemory(NamedTuple):
    """Class-indexed symbol slots used to decode predictions.

    Slot i holds the symbol for class i+1, or None when no corpus row
    encoded to that class (a redundant class cell).
    """

    slots: tuple[str | None, ...]

    @property
    def class_level(self) -> int:
        return len(self.slots)


class EncodedCorpus(Record):
    """Everything the encoder derives from one corpus: row r's score is distinct[score_index[r]]."""

    corpus: tuple[str, ...]
    distinct: tuple[MatchScore, ...]  # ascending
    score_index: Ints  # one entry per row
    classes: ClassSequence
    memory: SensorMemory

    @property
    def matrix(self) -> SymbolMatrix:
        """The corpus's code matrix, built anew with numpy on each access."""
        return symbol_integer_transform(self.corpus)

    @property
    def scores(self) -> tuple[MatchScore, ...]:
        """Each row's score, built anew on each access."""
        return tuple(map(self.distinct.__getitem__, self.score_index))


def _checked_text(corpus: Sequence[str]) -> str:
    """The corpus's rows joined, once none is refused (see symbol_integer_transform)."""
    if len(corpus) == 0:
        raise EmptyCorpusError("corpus is empty")
    text = "".join(corpus)
    if "" in corpus or "\x00" in text:
        for index, word in enumerate(corpus):
            if word == "":
                raise EmptyRowError(index)
            if "\x00" in word:
                raise NulCharacterError(index)
    return text


def symbol_integer_transform(corpus: Sequence[str]) -> SymbolMatrix:
    """Turn symbol strings into a zero-padded matrix of character codes, with numpy.

    Raises EmptyCorpusError for an empty corpus, and for the first bad row
    EmptyRowError for an empty string or NulCharacterError for a NUL
    character (code 0 is reserved for padding), each with the 0-based row
    index. Lone surrogates keep their code points, as ord() gives them.
    """
    import numpy as np
    narrow = _checked_text(corpus).isascii()
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


def swap_match(matrix: SymbolMatrix, reference: Reference = "last") -> list[MatchScore]:
    """Each row's positional agreement with the reference row; equal values share one score.

    The numpy reference for encode_corpus. Agreement compares the integer
    codes: no shared scaling changes which cells are equal.
    """
    import numpy as np
    # Padded on the left to whole 64-bit words, a packed row reads big-endian as its
    # value; a stable pass per word, the first word last, sorts the rows by value.
    pad = -matrix.width % 64
    agree = np.zeros((matrix.rows, pad + matrix.width), dtype=bool)
    codes = np.asarray(matrix.codes)
    np.equal(codes, codes[resolve_reference(reference, matrix.rows)], out=agree[:, pad:])
    words = np.packbits(agree, axis=1).view(">u8")
    order = np.lexsort(words.T[::-1])
    starts = np.r_[True, np.diff(words[order], axis=0).any(axis=1)]  # a new value begins
    index = np.empty_like(order)
    index[order] = np.cumsum(starts) - 1
    distinct = words[order[starts]].view(f"V{8 * words.shape[1]}")[:, 0].tolist()
    scores = _scores(list(map(int.from_bytes, distinct, repeat("big"))))
    return list(map(scores.__getitem__, index.tolist()))


def _scores(values: list[int]) -> tuple[MatchScore, ...]:
    """The scores of ascending distinct match values, each scaled by the last."""
    max_value = values[-1]
    scales = [value / max_value for value in values]
    # tuple.__new__ skips the NamedTuple's Python-level __new__ and its argument binding
    return tuple(map(tuple.__new__, repeat(MatchScore), zip(values, scales)))


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
    slots = dict(zip(classes.classes, corpus))  # a later row overwrites an earlier one
    return SensorMemory(tuple(map(slots.get, range(1, classes.class_level + 1))))


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
    """Run the full encoding chain over a corpus, scoring each distinct row once.

    Raises what symbol_integer_transform raises for a bad corpus, then
    what resolve_reference raises for a bad reference.
    """
    lane = 1 if _checked_text(corpus).isascii() else 4  # bytes a character takes
    target = corpus[resolve_reference(reference, len(corpus))]
    rows = dict.fromkeys(corpus)  # each distinct row, first seen first; later its score's rank
    cells = max(map(len, rows))
    # bytes a row, rows a block: no more than there are, so that few rows make small ints
    size, count = lane * cells, min(len(rows), max(1, BLOCK_BYTES // (lane * cells)))
    codec = "ascii" if lane == 1 else "utf-32-be"
    references = int.from_bytes((target.ljust(cells, "\0") * count).encode(codec, "surrogatepass"),
                                "big")
    low = int.from_bytes((b"\x7f" + b"\xff" * (lane - 1)) * (cells * count), "big")  # tops clear
    high = low ^ ((1 << 8 * size * count) - 1)  # each lane's top bit
    distinct_rows, keys = list(rows), []
    for start in range(0, len(distinct_rows), count):
        block = distinct_rows[start:start + count]
        shift = 8 * size * (count - len(block))  # a short last block drops the last rows
        padded = "".join([row.ljust(cells, "\0") for row in block]).encode(codec, "surrogatepass")
        x = int.from_bytes(padded, "big") ^ references >> shift
        # high & ~(x | ((x & low) + low)), as no code point reaches a lane's top bit
        agree = (high >> shift & ~(x + (low >> shift))).to_bytes(size * len(block), "big")
        bits = agree[::lane].translate(_BIT_DIGITS)  # a lane's first byte: 0x80 or 0
        keys += [bits[cell:cell + cells] for cell in range(0, len(bits), cells)]
    ordered = sorted(set(keys))  # digit strings of one length sort as their values
    distinct = _scores([int(key, 2) for key in ordered])
    rows.update(zip(distinct_rows, map(dict(zip(ordered, range(len(ordered)))).__getitem__, keys)))
    index = array("q", map(rows.__getitem__, corpus))
    distinct_classes = class_encode(distinct, class_level).classes
    classes = ClassSequence(tuple(map(distinct_classes.__getitem__, index)), class_level)
    return EncodedCorpus(tuple(corpus), distinct, index, classes,
                         build_sensor_memory(corpus, classes))
