"""Seeded inputs, CLI command sequences and output checks for each workload.

Every generator takes a ``random.Random`` built from the run's seed, so the
same seed always gives the same input file. The expected CLI outputs are
rebuilt in-process from symcast's public functions and the CLI's own
writers; the benchmark compares the CLI's files against them byte for byte.
"""

from __future__ import annotations

import io
import random
import statistics
import string
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from symcast import cli
from symcast.encoder import EncodedCorpus, encode_corpus
from symcast.ingest import read_numeric_series, read_text_corpus
from symcast.learner import Learner, LearnerConfig
from symcast.pipeline import (
    baseline_persistence,
    decode_trace,
    mape,
    run_continual,
    write_trace,
)

LOWER = string.ascii_lowercase
DIGITS = string.digits
ORACLE_SAMPLE = 200  # encode-wide rows cross-checked against tests/oracle.py


def _diverge(rng: random.Random, reference: str, shared: int, length: int, alphabet: str) -> str:
    """A word equal to reference on its first `shared` cells and different on the next."""
    if shared < len(reference):
        differ = rng.choice(alphabet.replace(reference[shared], ""))
    else:
        differ = rng.choice(alphabet)
    tail = "".join(rng.choices(alphabet, k=max(0, length - shared - 1)))
    return reference[:shared] + differ + tail


def wide_rows(rng: random.Random, rows: int, width: int = 64) -> list[str]:
    """Rows up to `width` wide sharing a uniform random-length prefix with the last row.

    The last row is the reference and is exactly `width` wide, so the
    largest match value is 2**width - 1 and the values cover that range.
    """
    reference = "".join(rng.choices(LOWER, k=width))
    out = []
    for _ in range(rows - 1):
        shared = rng.randrange(width)
        out.append(_diverge(rng, reference, shared, rng.randint(shared + 1, width), LOWER))
    out.append(reference)
    return out


def _vocabulary(rng: random.Random, size: int, reference: str, shared_max: int,
                lengths: tuple[int, int], alphabet: str) -> list[str]:
    """`size` distinct words, the reference first, the others sharing 0..shared_max leading cells."""
    words = [reference]
    while len(words) < size:
        word = _diverge(rng, reference, rng.randint(0, shared_max), rng.randint(*lengths), alphabet)
        if word not in words and word[0] != "0":
            words.append(word)
    return words


def numeric_rows(rng: random.Random, rows: int, vocabulary: int = 500, digits: int = 5) -> list[str]:
    """Seeded draws from a fixed set of integers sharing 0..digits-1 leading digits with the last row.

    The series opens with a rise, from a number sharing no digit with the
    reference to one sharing all but the last. The first mismatch sets the
    sign of the deviant mean and muldiv can never flip it, so without a
    fixed opening the seeds would split between two regimes whose MAPE
    differs by a third.
    """
    fixed = random.Random("learn-pop100k vocabulary")
    reference = str(fixed.randrange(10 ** (digits - 1), 10**digits))
    words = _vocabulary(fixed, vocabulary, reference, digits - 1, (digits, digits), DIGITS)
    low = ("2" if reference[0] == "1" else "1") * digits
    high = reference[:-1] + ("1" if reference[-1] == "0" else "0")
    return [low, high] + [rng.choice(words) for _ in range(rows - 3)] + [reference]


def markov_rows(rng: random.Random, rows: int, vocabulary: int = 60, repeat: float = 0.3) -> list[str]:
    """A seeded sticky Markov chain over a fixed vocabulary; the last row is the reference.

    The words share 0-4 leading letters with the reference. The chain
    repeats the previous word with probability `repeat`, else draws
    uniformly from the vocabulary. The vocabulary does not depend on the
    seed, so seeds differ in word order only and the MAPE is comparable
    between them.
    """
    fixed = random.Random("predict-full vocabulary")
    reference = "".join(fixed.choices(LOWER, k=8))
    words = _vocabulary(fixed, vocabulary, reference, 4, (5, 10), LOWER)
    out = [rng.choice(words)]
    while len(out) < rows - 1:
        out.append(out[-1] if rng.random() < repeat else rng.choice(words))
    out.append(reference)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    make_rows: Callable[[random.Random, int], list[str]]
    # None: the workload runs `symcast encode`; otherwise `symcast predict` with these flags.
    predict_flags: tuple[str, ...] | None = None
    report: bool = False  # also run `symcast report --svg` on the predict trace

    @property
    def numeric(self) -> bool:
        return "--numeric" in (self.predict_flags or ())

    @property
    def settings(self) -> cli.Settings:
        """The settings of the first command, parsed and merged by the CLI's own code."""
        return cli._merge_settings(cli.build_parser().parse_args(self.commands(Path())[0]))

    def commands(self, work: Path) -> list[list[str]]:
        """CLI argument lists, run in order; each writes the file its --out names."""
        source = str(work / "input.txt")
        if self.predict_flags is None:
            return [["encode", "--input", source, "--out", str(work / "encode.csv")]]
        trace = str(work / "trace.csv")
        sequence = [["predict", *self.predict_flags, "--input", source, "--out", trace]]
        if self.report:
            sequence.append([
                "report", "--input", trace,
                "--out", str(work / "series.csv"), "--svg", str(work / "chart.svg"),
            ])
        return sequence


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("encode-wide", 50_000, wide_rows),
        Workload(
            "learn-pop100k", 1_000, numeric_rows,
            predict_flags=("--numeric", "--rule", "muldiv", "--population", "100000"),
        ),
        Workload(
            "predict-full", 25_000, markov_rows,
            predict_flags=("--baseline", "--decode"),
            report=True,
        ),
    )
}


def write_input(workload: Workload, seed: int, rows: int, work: Path) -> int:
    """Write the seeded input file; returns its size in bytes."""
    data = ("\n".join(workload.make_rows(random.Random(seed), rows)) + "\n").encode("utf-8")
    (work / "input.txt").write_bytes(data)
    return len(data)


class StepTimer:
    """Times Learner.learn_step, in-process, over whole passes of a class sequence.

    A step's time runs from observing an element to holding the next
    prediction. Each pass starts a fresh learner, set up the way
    run_continual sets one up. The timing runs in slices spread over the
    run, and a pass may span slices. Only complete passes count, so every
    run weighs each step of the sequence alike. The time of each slice is
    kept apart, so that it can be scaled by the machine's speed at the time.
    """

    def __init__(self, classes: tuple[int, ...], config: LearnerConfig):
        self.classes = classes
        self.config = config
        self.passes = 0  # complete passes
        self.slice_ns: Counter = Counter()  # the complete passes' step time in each slice
        self._slice = -1
        self._steps = self._passes()

    def _passes(self):
        clock = time.perf_counter_ns
        while True:
            learner = Learner(self.config)
            spent: Counter = Counter()
            for previous, expected in zip(self.classes, self.classes[1:]):
                start = clock()
                learner.learn_step(previous, expected)
                spent[self._slice] += clock() - start
                yield
            self.slice_ns.update(spent)
            self.passes += 1

    def run_for(self, seconds: float) -> None:
        """Time steps for one more slice, of `seconds`."""
        self._slice += 1
        deadline = time.perf_counter() + seconds
        for _ in self._steps:
            if time.perf_counter() >= deadline:
                break

    def scaled_mean_ns(self, factors: list[float]) -> float:
        """Mean step time, each slice's time multiplied by factors[slice].

        First completes a pass, within the last slice, if none is complete.
        """
        while not self.passes:
            next(self._steps)
        total = sum(ns * factors[index] for index, ns in self.slice_ns.items())
        return total / (self.passes * (len(self.classes) - 1))


def _written(write, *args) -> str:
    """What one of the CLI's writers puts on a stream."""
    stream = io.StringIO()
    write(*args, stream)
    return stream.getvalue()


def _series_csv(trace_text: str) -> bytes:
    """The report's series file, built from the trace's cumulative_mape column."""
    column = [line.split(",")[7] for line in trace_text.splitlines()[1:]]
    values = [value for value in column if value != ""]
    lines = [f"{step},{value}" for step, value in enumerate(values, start=1)]
    return ("test_step,cumulative_mape\n" + "".join(line + "\n" for line in lines)).encode("utf-8")


def _oracle_disagreements(seed: int, items, encoded: EncodedCorpus, class_level: int,
                          encode_reference) -> list[str]:
    """Compare a seeded sample of rows with tests/oracle.py and a naive bit count.

    The sample is scored against the reference row (the last row). That row
    is the widest and has the largest match value, so the oracle's classes
    for the sample equal those of the whole corpus.
    """
    rng = random.Random(f"oracle-{seed}")
    sample = sorted(rng.sample(range(len(items) - 1), min(ORACLE_SAMPLE, len(items) - 1)))
    reference = items[-1]
    classes, _ = encode_reference([items[i] for i in sample] + [reference], class_level, len(sample))
    problems = []
    for position, row in enumerate(sample):
        word = items[row].ljust(len(reference), "\0")
        bits = "".join("1" if a == b else "0" for a, b in zip(word, reference))
        value, cls = encoded.scores[row].value, encoded.classes.classes[row]
        if value != int(bits, 2):
            problems.append(f"row {row + 1}: match value {value} != {int(bits, 2)}")
        if cls != classes[position]:
            problems.append(f"row {row + 1}: class {cls} != oracle {classes[position]}")
    return problems


@dataclass
class Reference:
    """Expected CLI outputs, the class sequence and the input's properties."""

    settings: cli.Settings  # those the CLI runs the workload's first command with
    outputs: list[tuple[str, bytes]]  # (file name, expected bytes) per command
    classes: tuple[int, ...]
    summary_mape: str | None  # predict's final_mape_percent line value
    final_mape_pct: float
    record: dict
    problems: list[str]  # reasons every invocation must count as failed


def build_reference(workload: Workload, seed: int, work: Path, encode_reference) -> Reference:
    """Rebuild every expected output in-process and record the input's properties."""
    with open(work / "input.txt", "rb") as handle:
        reader = read_numeric_series if workload.numeric else read_text_corpus
        corpus = reader(handle, source="input.txt")
    settings = workload.settings
    encoded = encode_corpus(corpus.items, settings.class_level, settings.reference)
    config = settings.run_config()
    trace = run_continual(encoded.classes, config)
    final_mape = mape(trace)[0]
    trace_text = _written(write_trace, trace)

    problems: list[str] = []
    summary = None
    if workload.predict_flags is None:
        outputs = [("encode.csv", _written(cli._write_encode_report, encoded, corpus).encode("utf-8"))]
        problems += _oracle_disagreements(seed, corpus.items, encoded, settings.class_level,
                                          encode_reference)
    else:
        text = trace_text
        if "--baseline" in workload.predict_flags:
            text += "\n" + _written(write_trace, baseline_persistence(encoded.classes, config))
        if "--decode" in workload.predict_flags:
            text += "\n" + _written(cli._write_decoded, decode_trace(trace, encoded.memory))
        outputs = [("trace.csv", text.encode("utf-8"))]
        if workload.report:
            outputs.append(("series.csv", _series_csv(trace_text)))
        summary = f"{final_mape:.6f}"

    histogram = Counter(encoded.classes.classes)
    record = {
        "rows": len(corpus.items),
        "max_width": encoded.matrix.width,
        "class_histogram": {str(c): histogram.get(c, 0) for c in range(1, settings.class_level + 1)},
        "zero_mismatch_share": (
            sum(step.raw_prediction == step.expected_class for step in trace.steps) / len(trace.steps)),
    }
    return Reference(settings, outputs, encoded.classes.classes, summary, final_mape, record,
                     problems)


def check_invocation(workload: Workload, index: int, work: Path, reference: Reference,
                     exit_code: int, stdout: str) -> str | None:
    """Why the index-th command of the sequence failed, or None when it is correct."""
    if exit_code != 0:
        return f"exit code {exit_code}: {stdout.strip()[-200:]!r}"
    if reference.problems:
        return reference.problems[0]
    name, expected = reference.outputs[index]
    path = work / name
    if not path.is_file() or path.read_bytes() != expected:
        return f"{name} differs from the in-process output"
    if index == 0 and reference.summary_mape is not None:
        lines = [line for line in stdout.splitlines() if line.startswith("final_mape_percent: ")]
        if lines != [f"final_mape_percent: {reference.summary_mape}"]:
            return f"summary final_mape_percent {lines} != {reference.summary_mape}"
    if workload.report and index == 1:
        svg = (work / "chart.svg").read_text(encoding="utf-8") if (work / "chart.svg").is_file() else ""
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            return "chart.svg is not a complete SVG document"
    return None


def percentiles(values) -> dict[int, float]:
    """The 50th, 90th and 99th percentiles of at least two values."""
    cuts = statistics.quantiles(values, n=100)
    return {50: cuts[49], 90: cuts[89], 99: cuts[98]}
