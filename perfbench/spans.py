"""Spans around calls into symcast's public functions, for the traced pass only.

``traced(tracer)`` swaps each function listed in TARGETS for a wrapper in
every loaded symcast module that holds it (``symcast.cli`` imports most of
them by name), and puts the originals back on exit. A span is kept in
memory as [name, start_ns, end_ns, parent index]; ``write_csv`` writes the
spans out once the run is over.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

import symcast.encoder
import symcast.ingest
import symcast.learner
import symcast.pipeline

NO_PARENT = -1  # parent index of a span no other span encloses


def _count_cells(counts, args, result):
    counts["encoder.cells"] += result.rows * result.width


def _count_classes(counts, args, result):
    counts["encoder.rows"] += len(result.classes)
    counts["encoder.class1_rows"] += result.classes.count(1)


def _count_empty_slots(counts, args, result):
    counts["encoder.empty_classes"] += sum(slot is None for slot in result.slots)


def _count_candidates(counts, args, result):
    counts["learner.candidates_generated"] += len(result)


def _count_winners(counts, args, result):
    counts["learner.winners_kept"] += len(result)


def _count_outcome(counts, args, result):
    counts["learner.zero_mismatch_steps"] += result.signed_diff == 0
    counts["learner.fallback_steps"] += result.used_fallback


def _stream_position(args, kwargs):
    stream = args[1] if len(args) > 1 else kwargs["stream"]
    return stream.tell()


# (owner, attribute, counter hook run on the result, byte-counting probe)
TARGETS: list[tuple[object, str, Callable | None, Callable | None]] = [
    (symcast.ingest, "read_text_corpus", None, None),
    (symcast.ingest, "read_numeric_series", None, None),
    (symcast.encoder, "encode_corpus", None, None),
    (symcast.encoder, "symbol_integer_transform", _count_cells, None),
    (symcast.encoder, "swap_match", None, None),
    (symcast.encoder, "class_encode", _count_classes, None),
    (symcast.encoder, "build_sensor_memory", _count_empty_slots, None),
    (symcast.encoder, "decode_class", None, None),
    (symcast.learner.Learner, "learn_step", _count_outcome, None),
    (symcast.learner, "adjust_candidates", _count_candidates, None),
    (symcast.learner, "select_winners", _count_winners, None),
    (symcast.pipeline, "run_continual", None, None),
    (symcast.pipeline, "baseline_persistence", None, None),
    (symcast.pipeline, "mape", None, None),
    (symcast.pipeline, "decode_trace", None, None),
    (symcast.pipeline, "write_trace", None, _stream_position),
    (symcast.pipeline, "read_trace", None, None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open = [NO_PARENT]

    def wrap(self, name: str, func: Callable, hook: Callable | None, probe: Callable | None):
        spans, counts, open_spans, clock = self.spans, self.counts, self._open, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            before = probe(args, kwargs) if probe else 0
            record = [name, 0, 0, open_spans[-1]]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                open_spans.pop()
            if hook:
                hook(counts, args, result)
            if probe:
                counts[f"{name}.bytes"] += probe(args, kwargs) - before
            return result

        return wrapper

    def totals(self) -> tuple[dict, dict, Counter]:
        """Per span name: seconds inside it, seconds in its direct children, and calls."""
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += (end - start) / 1e9
            calls[name] += 1
            if parent != NO_PARENT:
                child[self.spans[parent][0]] += (end - start) / 1e9
        return total, child, calls

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def write_csv(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index},{name},{start},{end},{parent}\n")


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every call to a TARGETS function through a span for the duration."""
    modules = [module for name, module in sys.modules.items()
               if name == "symcast" or name.startswith("symcast.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attribute, hook, probe in TARGETS:
            original = getattr(owner, attribute)
            wrapper = tracer.wrap(attribute, original, hook, probe)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                if holder.__dict__.get(attribute) is original:
                    undo.append((holder, attribute, original))
                    setattr(holder, attribute, wrapper)
        yield tracer
    finally:
        for holder, attribute, original in reversed(undo):
            setattr(holder, attribute, original)
