"""Command-line interface: encode, predict, and report workflows.

Settings resolve with flag > config file > built-in default precedence,
and every value is validated before any computation with the offending
source named on failure. Outputs are deterministic: no timestamps, '.'
decimal separator, reals at fixed precision.

Exit codes: 0 success, 1 input/data error (or, with nothing printed,
standard output closed by its reader), 2 configuration error.

No command imports numpy. Each imports the encoder, the learner and the
walk where it runs them, so `report` and `--version` start without them.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import chain, compress
from operator import and_, eq
from typing import Iterator, NamedTuple, Sequence, TextIO

from . import __version__
from .config import (
    ADDITIVE_SUBTRACTIVE, MAX_CLASS_LEVEL, MIN_CLASS_LEVEL, MULTIPLICATIVE_DIVISIVE, LearnerConfig,
    Reference, RunConfig, check_class_level,
)
from .errors import BadConfigError, BadEncodingError, BadReferenceError, SymcastError
from .ingest import Corpus, _decode_lines, read_numeric_series, read_text_corpus
from .tracetext import MAPE_FORMAT, _test_mapes, _write_blocks, format_real, read_cumulative_mape

_SPECIALS = ',"\r\n'  # a CSV field holding any of these is quoted
_NEEDS_QUOTES = re.compile(f"[{_SPECIALS}]").search


class Settings(NamedTuple):
    """The merged settings; perfbench also reads run_config() and learner_config()."""

    class_level: int = 5
    reference: Reference = "last"
    run: RunConfig = RunConfig()

    def learner_config(self) -> LearnerConfig:
        return self.run.learner

    def run_config(self) -> RunConfig:
        return self.run


def _parse_reference(text: str) -> Reference:
    if text in ("last", "first"):
        return text
    try:
        row = int(text)
    except ValueError:
        raise ValueError(f"reference must be last, first, or a row number, got {text!r}") from None
    if row < 1:
        raise ValueError(f"reference row number must be >= 1, got {row}")
    return row - 1  # row numbers are 1-based on the command line


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# setting name (also its config-file key) -> (flag, type conversion, the class
# and field that hold the value, help); ranges are checked by the configs
_FIELDS = {
    "class_level": ("--class-level", int, Settings, "class_level",
                    f"number of integer classes, {MIN_CLASS_LEVEL}..{MAX_CLASS_LEVEL}"),
    "reference": ("--reference", _parse_reference, Settings, "reference",
                  "reference row: last, first, or a 1-based row number"),
    "train_fraction": ("--train-fraction", float, RunConfig, "train_fraction",
                       "fraction of elements used as the train prefix"),
    "population": ("--population", int, LearnerConfig, "population_size",
                   "number of candidate adjustment magnitudes"),
    "max_adjust": ("--max-adjust", float, LearnerConfig, "max_deviant_adjust",
                   "largest adjustment magnitude"),
    "rule": ("--rule", str, LearnerConfig, "rule_mode",
             f"update rule: {ADDITIVE_SUBTRACTIVE} or {MULTIPLICATIVE_DIVISIVE}"),
    "lp": ("--lp", float, LearnerConfig, "bias", "bias added when a prediction is exact"),
    "k_winners": ("--k-winners", int, LearnerConfig, "k_winners",
                  "how many candidates the winner scan keeps"),
    "freeze_after_train": ("--freeze-after-train", _parse_bool, RunConfig, "freeze_after_train",
                           "stop learning when the test phase begins"),
}


def _read_config_file(path: str) -> dict[str, tuple[str, int]]:
    """Flat key = value UTF-8 file with # comments; returns raw values + line numbers."""
    entries: dict[str, tuple[str, int]] = {}
    with open(path, "rb") as handle:
        try:
            lines = _decode_lines(handle)
        except BadEncodingError as exc:
            raise BadConfigError(
                "config file", f"{path} line {exc.line_number}: not valid UTF-8"
            ) from None
    for line_number, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadConfigError(
                "config file", f"{path} line {line_number}: expected key = value"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise BadConfigError(
                "config file", f"{path} line {line_number}: unknown key {key!r}"
            )
        entries[key] = (value, line_number)
    return entries


def _given(args: argparse.Namespace) -> dict[str, tuple[str, str]]:
    """Each setting given by flag or config file: its raw value and where it was given."""
    entries = _read_config_file(args.config) if getattr(args, "config", None) else {}
    given = {}
    for name, (flag, *_) in _FIELDS.items():
        if getattr(args, name, None) is not None:
            given[name] = getattr(args, name), f"flag {flag}"
        elif name in entries:
            given[name] = entries[name][0], f"config file {args.config} line {entries[name][1]}"
    return given


def _merge_settings(args: argparse.Namespace, given: dict | None = None) -> Settings:
    """The checked settings from given, the result of _given(args), which is read if not passed."""
    given = _given(args) if given is None else given
    values: dict[type, dict] = {Settings: {}, RunConfig: {}, LearnerConfig: {}}
    for name, (raw, source) in given.items():
        _, parse, owner, field, _ = _FIELDS[name]
        try:
            values[owner][field] = parse(raw)
        except ValueError as exc:
            raise BadConfigError(name, f"{exc} (from {source})") from None

    run = RunConfig(learner=LearnerConfig(**values[LearnerConfig]), **values[RunConfig])
    settings = Settings(**values[Settings], run=run)
    try:
        run.validate()
        check_class_level(settings.class_level)
    except BadConfigError as exc:  # defaults pass, so the field was given
        name = next(name for name in given if _FIELDS[name][3] == exc.field)
        raise BadConfigError(name, f"{exc.reason} (from {given[name][1]})") from None
    return settings


def _read_corpus(args: argparse.Namespace) -> Corpus:
    reader = read_numeric_series if getattr(args, "numeric", False) else read_text_corpus
    if args.input == "-":
        return reader(sys.stdin.buffer, source="<stdin>")
    with open(args.input, "rb") as handle:
        return reader(handle, source=args.input)


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Standard output for no path or '-', else the file, closed on leaving."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as stream:
        yield stream


def _csv_fields(texts: Sequence[str]) -> Sequence[str]:
    """texts as CSV fields: a text holding one of _SPECIALS is quoted, its quotes doubled."""
    joined = "".join(texts)
    if not any(special in joined for special in _SPECIALS):
        return texts
    return ['"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text for text in texts]


def _write_encode_report(encoded, corpus: Corpus, stream: TextIO) -> None:
    """The encode CSV of an EncodedCorpus, written a block at a time (see _write_blocks)."""
    slots = ["[]" if symbol is None else symbol for symbol in encoded.memory.slots]
    distinct, index = encoded.distinct, encoded.score_index
    classes = dict(zip(index, encoded.classes.classes))  # the rows of one score share its class
    limit = sys.get_int_max_str_digits()
    # A match value has as many bits as its row has cells, and CPython refuses to
    # print an int of more than 4,300 digits; lift that limit here only.
    sys.set_int_max_str_digits(0)
    try:
        texts = [f"{value},{scale:.6f},{classes.get(rank, 0)}\n"
                 for rank, (value, scale) in enumerate(distinct)]
    finally:
        sys.set_int_max_str_digits(limit)
    _write_blocks(stream, "row_index,symbol,match_value,scale,class", len(index),
                  lambda start, stop: map(",".join, zip(map(str, range(start + 1, stop + 1)),
                                                        _csv_fields(corpus.items[start:stop]),
                                                        map(texts.__getitem__, index[start:stop]))))
    stream.write("\nclass,symbol\n")
    stream.writelines(map("{},{}\n".format, range(1, len(slots) + 1), _csv_fields(slots)))


def _encode(args: argparse.Namespace) -> tuple:
    """Settings, corpus and EncodedCorpus; a reference row past the corpus is a config error."""
    from .encoder import encode_corpus
    given = _given(args)  # a config file is read once: it may be a pipe
    settings, corpus = _merge_settings(args, given), _read_corpus(args)
    try:
        encoded = encode_corpus(corpus.items, settings.class_level, settings.reference)
    except BadReferenceError:  # the setting is last, first or a row index >= 0
        row, rows, source = settings.reference + 1, len(corpus.items), given["reference"][1]
        raise BadConfigError("reference",
                             f"row {row} out of range for {rows} rows (from {source})") from None
    return settings, corpus, encoded


def cmd_encode(args: argparse.Namespace) -> int:
    _, corpus, encoded = _encode(args)
    with _output(args.out) as stream:
        _write_encode_report(encoded, corpus, stream)
    return 0


def _write_decoded(decoded, stream: TextIO) -> None:
    """The decoded steps as CSV, a block at a time; each distinct row is formed once."""
    rows = list(zip(decoded.predicted_symbol, decoded.expected_symbol, decoded.exact))
    texts = {row: "{},{},{}\n".format(*_csv_fields(row[:2]), "true" if row[2] else "false")
             for row in set(rows)}
    _write_blocks(stream, "predicted_symbol,expected_symbol,exact", len(rows),
                  lambda start, stop: map(texts.__getitem__, rows[start:stop]))


def _summary_lines(trace, baseline=None) -> list[str]:
    from .pipeline import mape
    test_steps = len(trace) - trace.is_test.tolist().count(0)
    exact = map(and_, trace.is_test, map(eq, trace.predicted_class, trace.expected_class))
    counts = sorted(Counter(compress(trace.expected_class, exact)).items())
    lines = [
        f"train_elements: {len(trace) - test_steps + 1}",
        f"test_steps: {test_steps}",
        f"exact_test_matches: {sum(count for _, count in counts)}",
    ]
    if counts:
        breakdown = " ".join(f"{cls}={count}" for cls, count in counts)
        lines.append(f"exact_test_matches_by_class: {breakdown}")
    final_mape, _ = mape(trace)
    lines.append(f"final_mape_percent: {final_mape:{MAPE_FORMAT}}")
    lines.append(f"final_deviant_mean: {format_real(trace.deviant_mean_after[-1])}")
    if baseline is not None:
        baseline_mape, _ = mape(baseline)
        lines.append(f"baseline_final_mape_percent: {baseline_mape:{MAPE_FORMAT}}")
    return lines


def cmd_predict(args: argparse.Namespace) -> int:
    from .pipeline import baseline_persistence, decode_trace, run_continual, write_trace
    settings, _, encoded = _encode(args)
    trace = run_continual(encoded.classes, settings.run)
    baseline = baseline_persistence(encoded.classes, settings.run) if args.baseline else None

    with _output(args.out) as stream:
        write_trace(trace, stream)
        if baseline is not None:
            stream.write("\n")
            write_trace(baseline, stream)
        if args.decode:
            stream.write("\n")
            _write_decoded(decode_trace(trace, encoded.memory), stream)

    # Keep stdout machine-parseable when the trace itself goes to stdout.
    summary_stream = sys.stderr if stream is sys.stdout else sys.stdout
    for line in _summary_lines(trace, baseline):
        print(line, file=summary_stream)
    return 0


def _render_error_series_svg(series: Sequence[float]) -> str:
    """The line chart of a nonempty series, its coordinates computed in Python floats."""
    width, height, margin = 640, 360, 48
    top = max(max(series), 1e-9)
    n = len(series)
    spread = [i / (n - 1) for i in range(n)] if n > 1 else [0.5]
    x = [margin + (width - 2 * margin) * at for at in spread]
    y = [height - margin - (height - 2 * margin) * (value / top) for value in series]
    points = " ".join(["%.2f,%.2f"] * n) % tuple(chain.from_iterable(zip(x, y)))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<text x="{margin}" y="{margin - 8}" font-size="12">cumulative MAPE '
        f"(max {top:{MAPE_FORMAT}}%)</text>\n"
        f'<text x="{width - margin}" y="{height - margin + 16}" font-size="12" '
        f'text-anchor="end">test step {n}</text>\n'
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>\n'
        f"</svg>\n"
    )


def cmd_report(args: argparse.Namespace) -> int:
    stdin = args.input == "-"  # read as a file is: UTF-8, with universal newlines
    source = sys.stdin.fileno() if stdin else args.input
    # a byte that is not UTF-8 decodes to a lone surrogate, which the reader
    # refuses as not ASCII with its line, so the first bad line is named
    with open(source, encoding="utf-8", errors="surrogateescape", closefd=not stdin) as handle:
        series = _test_mapes(read_cumulative_mape(handle))

    def block_rows(start: int, stop: int) -> tuple[str]:
        values = series[start:stop]
        rows = ("%d,%" + MAPE_FORMAT + "\n") * len(values)
        return (rows % tuple(chain.from_iterable(zip(range(start + 1, stop + 1), values))),)

    with _output(args.out) as stream:
        _write_blocks(stream, "test_step,cumulative_mape", len(series), block_rows)

    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(_render_error_series_svg(series))
    return 0


def _add_common_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input path, or - for stdin")
    parser.add_argument("--out", help="output path (default: stdout)")


def _add_setting(parser: argparse.ArgumentParser, name: str, **kwargs) -> None:
    flag, *_, help_text = _FIELDS[name]
    parser.add_argument(flag, dest=name, help=help_text, **kwargs)


def _add_config_flags(parser: argparse.ArgumentParser, names: Sequence[str]) -> None:
    parser.add_argument("--config", help="key = value configuration file")
    for name in names:
        _add_setting(parser, name, metavar="V")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcast",
        description="Continual one-step-ahead prediction over symbol streams.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    encode = commands.add_parser("encode", help="encode a corpus into integer classes")
    _add_common_io(encode)
    _add_config_flags(encode, ["class_level", "reference"])
    encode.add_argument("--numeric", action="store_true", help="parse lines as numbers")
    encode.set_defaults(func=cmd_encode)

    predict = commands.add_parser("predict", help="encode, then continually predict")
    _add_common_io(predict)
    _add_config_flags(predict, [name for name in _FIELDS if name != "freeze_after_train"])
    predict.add_argument("--numeric", action="store_true", help="parse lines as numbers")
    predict.add_argument("--baseline", action="store_true",
                         help="append a persistence-baseline trace")
    predict.add_argument("--decode", action="store_true",
                         help="append decoded symbol pairs")
    _add_setting(predict, "freeze_after_train", action="store_const", const="true")
    predict.set_defaults(func=cmd_predict)

    report = commands.add_parser("report", help="error-response series from a trace")
    _add_common_io(report)
    report.add_argument("--svg", metavar="PATH", help="also write a line chart")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader of standard output has gone: stop quietly, as the signal
        # module's notes on SIGPIPE advise, with nothing left to flush there.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except BadConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SymcastError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
