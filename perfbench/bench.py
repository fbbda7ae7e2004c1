"""Runs one workload: seeded input, timed CLI subprocesses or traced in-process passes.

Imported by run.py and selftest.py once src/ is on sys.path.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import spans
import symcast.cli
import workloads as wl
from symcast.encoder import ClassSequence
from symcast.pipeline import run_continual

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
WORK = ROOT / ".perfbench_work"  # inputs and CLI outputs, removed after each run
OUT = ROOT / ".perfbench_out"  # per-run records and span files
EXPECTED = HERE / "expected.json"  # sha256 of each workload's first output, by seed

LATENCY_SHARE = 0.2  # in-process learn_step timing per iteration, as a share of its CLI time
CLI = ["-m", "symcast.cli"]
PROBE = [str(HERE / "probe.py")]
# End-to-end timings are scaled to a machine on which probe.py takes this long:
# about its time on the 2-vCPU virtual machine where the bounds were set.
PROBE_REFERENCE_S = 0.2
INVOCATION_TIMEOUT_S = 60
MIB = 2**20

END_TO_END_UNITS = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "predict_latency_us.mean": "us",
    "final_mape_pct": "%",
}

PER_LAYER_UNITS = {
    "ingest.read_s": "s",
    "ingest.mb_per_s": "MiB/s",
    "encoder.transform_s": "s",
    "encoder.swap_match_s": "s",
    "encoder.class_encode_s": "s",
    "encoder.memory_s": "s",
    "encoder.cells": "count",
    "encoder.ns_per_cell": "ns",
    "encoder.class1_share": "share",
    "encoder.empty_classes": "count",
    "learner.steps": "count",
    "learner.step_us.p50": "us",
    "learner.step_us.p90": "us",
    "learner.step_us.p99": "us",
    "learner.adjust_candidates_s": "s",
    "learner.select_winners_s": "s",
    "learner.select_winners_calls": "count",
    "learner.candidates_generated": "count",
    "learner.winner_yield": "share",
    "learner.zero_mismatch_share": "share",
    "learner.fallback_steps": "count",
    "pipeline.run_continual_s": "s",
    "pipeline.run_continual_self_s": "s",
    "pipeline.baseline_s": "s",
    "pipeline.mape_s": "s",
    "pipeline.decode_trace_s": "s",
    "pipeline.write_trace_s": "s",
    "pipeline.trace_mb": "MiB",
    "pipeline.read_trace_s": "s",
    "pipeline.trace_peak_mb": "MiB",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Tally:
    """CLI invocations attempted and the reasons of those that failed."""

    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.errors.append(f"{label}: {problem}")


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    maxrss_mib: float
    stdout: str


def _spawn(args: list[str], work: Path, program: list[str] = CLI) -> Invocation:
    """Run `python PROGRAM ARGS` to completion; wall time from spawn to exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *program, *args],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        stdout += err_path.read_text(encoding="utf-8", errors="replace")
    return Invocation(proc.returncode, wall, usage.ru_maxrss * 1024 / MIB, stdout)


def _run_in_process(args: list[str], main) -> tuple[int, str]:
    """Call symcast.cli.main in this process; returns its exit code and stdout."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            code = main(args)
        except Exception as exc:  # a traceback the CLI let escape counts as a failure
            return 1, f"uncaught {type(exc).__name__}: {exc}"
    return code, captured.getvalue()


def _timed(workload, rows, reference, work, seconds, tally, tamper) -> tuple[dict, dict]:
    """End-to-end metrics, from CLI subprocesses with tracing off; also the raw samples.

    Each iteration runs the command sequence, spawns probe.py, spawns
    `--version` once (for setup_s), times in-process learn_step calls for
    LATENCY_SHARE of the commands' time and spawns probe.py again. So every
    kind of sample spreads over the run and sits between two probes. The
    speed of a shared virtual machine can drift by a third and more within
    a minute, with load that is not its own. So each sample is scaled by
    PROBE_REFERENCE_S over the mean of the probe times either side of it:
    the scaled samples move with symcast, not with the neighbours. wall_s
    and setup_s are the medians of theirs; the latency is the mean step
    time over complete passes, each slice scaled.
    """
    commands = workload.commands(work)
    steps = wl.StepTimer(reference.classes, reference.settings.learner_config())
    setup, walls, peaks, durations = [], [], [], []
    probes = [_probe(work)]
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        wall = peak = 0.0
        for index, args in enumerate(commands):
            run = _spawn(args, work)
            if tamper:
                tamper(Path(args[args.index("--out") + 1]))
            tally.add(args[0], wl.check_invocation(workload, index, work, reference,
                                                   run.exit_code, run.stdout))
            wall += run.wall_s
            peak = max(peak, run.maxrss_mib)
        walls.append(wall)
        peaks.append(peak)
        probes.append(_probe(work))
        run = _spawn(["--version"], work)
        tally.add("--version", None if run.exit_code == 0 and run.stdout.startswith("symcast ")
                  else f"exit {run.exit_code}, stdout {run.stdout[:80]!r}")
        setup.append(run.wall_s)
        steps.run_for(LATENCY_SHARE * wall)
        probes.append(_probe(work))
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break

    factors = [2 * PROBE_REFERENCE_S / (before + after) for before, after in zip(probes, probes[1:])]
    commands_factors, version_and_steps_factors = factors[0::2], factors[1::2]
    wall_s = statistics.median(wall * factor for wall, factor in zip(walls, commands_factors))
    samples = {"wall_s": walls, "peak_rss_mb": peaks, "setup_s": setup, "probe_s": probes,
               "latency_passes": steps.passes}
    return samples, {
        "wall_s": wall_s,
        "rows_per_s": rows / wall_s,
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(
            spawn * factor for spawn, factor in zip(setup, version_and_steps_factors)),
        "predict_latency_us.mean": steps.scaled_mean_ns(version_and_steps_factors) / 1e3,
        "final_mape_pct": reference.final_mape_pct,
    }


def _probe(work: Path) -> float:
    """Wall time of one probe.py subprocess: the machine's speed right now."""
    run = _spawn([], work, PROBE)
    if run.exit_code != 0:
        raise RuntimeError(f"perfbench/probe.py exited {run.exit_code}: {run.stdout[-200:]}")
    return run.wall_s


def _layer_metrics(tracer, input_bytes: int) -> dict:
    total, child, calls = tracer.totals()
    counts = tracer.counts
    read_s = total["read_text_corpus"] + total["read_numeric_series"]
    cells = counts["encoder.cells"]
    steps = tracer.durations_ns("learn_step")
    candidates = counts["learner.candidates_generated"]
    step_us = ({cut: ns / 1e3 for cut, ns in wl.percentiles(steps).items()} if len(steps) > 1
               else dict.fromkeys((50, 90, 99), 0.0))
    return {
        "ingest.read_s": read_s,
        "ingest.mb_per_s": input_bytes / MIB / read_s if read_s else 0.0,
        "encoder.transform_s": total["symbol_integer_transform"],
        "encoder.swap_match_s": total["swap_match"],
        "encoder.class_encode_s": total["class_encode"],
        "encoder.memory_s": total["build_sensor_memory"],
        "encoder.cells": cells,
        "encoder.ns_per_cell": (
            (total["symbol_integer_transform"] + total["swap_match"]) * 1e9 / cells if cells else 0.0),
        "encoder.class1_share": (
            counts["encoder.class1_rows"] / counts["encoder.rows"] if counts["encoder.rows"] else 0.0),
        "encoder.empty_classes": counts["encoder.empty_classes"],
        "learner.steps": len(steps),
        "learner.step_us.p50": step_us[50],
        "learner.step_us.p90": step_us[90],
        "learner.step_us.p99": step_us[99],
        "learner.adjust_candidates_s": total["adjust_candidates"],
        "learner.select_winners_s": total["select_winners"],
        "learner.select_winners_calls": calls["select_winners"],
        "learner.candidates_generated": candidates,
        "learner.winner_yield": counts["learner.winners_kept"] / candidates if candidates else 0.0,
        "learner.zero_mismatch_share": (
            counts["learner.zero_mismatch_steps"] / len(steps) if steps else 0.0),
        "learner.fallback_steps": counts["learner.fallback_steps"],
        "pipeline.run_continual_s": total["run_continual"],
        "pipeline.run_continual_self_s": total["run_continual"] - child["run_continual"],
        "pipeline.baseline_s": total["baseline_persistence"],
        "pipeline.mape_s": total["mape"],
        "pipeline.decode_trace_s": total["decode_trace"],
        "pipeline.write_trace_s": total["write_trace"],
        "pipeline.trace_mb": counts["write_trace.bytes"] / MIB,
        "pipeline.read_trace_s": total["read_trace"],
        "cli.self_s": total["main"] - child["main"],
    }


def _traced(workload, reference, work, seconds, tally, tamper, input_bytes,
            spans_path) -> tuple[dict, dict]:
    """Per-layer metrics, from in-process CLI passes, untraced then traced; also the raw samples."""
    peak_mib = 0.0
    if workload.predict_flags is not None:
        classes = ClassSequence(reference.classes, reference.settings.class_level)
        tracemalloc.start()
        try:
            run_continual(classes, reference.settings.run_config())
            peak_mib = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()

    commands = workload.commands(work)

    def sequence(main) -> float:
        began = time.perf_counter()
        for index, args in enumerate(commands):
            code, stdout = _run_in_process(args, main)
            if tamper:
                tamper(Path(args[args.index("--out") + 1]))
            tally.add(args[0], wl.check_invocation(workload, index, work, reference, code, stdout))
        return time.perf_counter() - began

    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced.append(sequence(symcast.cli.main))
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced.append(sequence(tracer.wrap("main", symcast.cli.main, None, None)))
        layers.append(_layer_metrics(tracer, input_bytes))
        pair_s = time.perf_counter() - began
        if time.perf_counter() - start + pair_s > seconds:
            break
    tracer.write_csv(spans_path)

    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["pipeline.trace_peak_mb"] = peak_mib
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"untraced_s": untraced, "traced_s": traced}, metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        rows: int | None = None, tamper=None) -> dict:
    """Run one workload and return the result object the last stdout line carries.

    rows overrides the workload's input size and tamper(path) is called on
    every CLI output file before it is checked; both exist for selftest.py.
    """
    workload = wl.WORKLOADS[workload_name]
    rows = rows or workload.rows
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=WORK))
    try:
        input_bytes = wl.write_input(workload, seed, rows, work)
        reference = wl.build_reference(workload, seed, work, _load_oracle())
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload_name].get(str(seed))
        if recorded and rows == workload.rows:
            actual = hashlib.sha256(reference.outputs[0][1]).hexdigest()
            if actual != recorded:
                reference.problems.append(
                    f"{reference.outputs[0][0]} sha256 {actual} != recorded {recorded}")
        tally = Tally()
        if trace:
            spans_path = OUT / f"spans-{workload_name}-{seed}.csv"
            samples, metrics = _traced(workload, reference, work, seconds, tally, tamper,
                                       input_bytes, spans_path)
        else:
            samples, metrics = _timed(workload, rows, reference, work, seconds, tally, tamper)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": metrics,
        "input": reference.record,
        "errors": tally.errors[:20],
    }
    if not trace:
        result["probe_s"] = statistics.median(samples["probe_s"])
    record = OUT / f"{workload_name}-{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps(dict(result, samples=samples), indent=1) + "\n", encoding="utf-8")
    return result


def _load_oracle():
    """encode_reference from tests/oracle.py, the brute-force encoder the tests use."""
    spec = importlib.util.spec_from_file_location("symcast_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.encode_reference
