"""Reading corpora and numeric series from byte streams."""

from __future__ import annotations

__all__ = ["Corpus", "read_numeric_series", "read_text_corpus"]

import math
from typing import BinaryIO, NamedTuple

from .errors import BadEncodingError, BadNumberError, EmptyCorpusError


class Corpus(NamedTuple):
    """Ordered, non-empty list of symbol strings plus where they came from."""

    items: tuple[str, ...]
    source: str


def _lines(text: str) -> list[str]:
    """text split at each line end: \n, \r\n or a lone \r (a search costs less than a replace)."""
    return (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")


def _decode_lines(stream: BinaryIO) -> list[str]:
    """The stream's UTF-8 text as lines; BadEncodingError names the first bad byte and its line."""
    data = stream.read()
    try:
        return _lines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # the bytes before the bad one are valid; their last line is the bad byte's
        line_number = len(_lines(data[:exc.start].decode("utf-8")))
        raise BadEncodingError(exc.start, line_number) from exc


def read_text_corpus(stream: BinaryIO, source: str = "<stream>") -> Corpus:
    """One item per non-empty line, order preserved, blank lines skipped."""
    items = tuple(filter(None, _decode_lines(stream)))
    if not items:
        raise EmptyCorpusError(f"{source}: no non-empty lines")
    return Corpus(items=items, source=source)


def read_numeric_series(stream: BinaryIO, source: str = "<stream>") -> Corpus:
    """Parse each non-empty line as a decimal number and canonicalize it.

    Integer-valued numbers are rendered without a decimal point ("20.0"
    becomes "20"); anything else uses the shortest round-trip decimal.
    Unparseable or non-finite lines, and any holding '_' (a digit separator
    to float()) or a character that is not ASCII (float() reads other
    scripts' digits), raise BadNumberError with the 1-based physical line
    number.
    """
    items = []
    for line_number, line in enumerate(_decode_lines(stream), start=1):
        if line == "":
            continue
        try:
            value = float(line)
        except ValueError as exc:
            raise BadNumberError(line_number, line) from exc
        if "_" in line or not line.isascii() or not math.isfinite(value):
            raise BadNumberError(line_number, line)
        if value == int(value):
            items.append(str(int(value)))
        else:
            items.append(repr(value))
    if not items:
        raise EmptyCorpusError(f"{source}: no non-empty lines")
    return Corpus(items=tuple(items), source=source)
