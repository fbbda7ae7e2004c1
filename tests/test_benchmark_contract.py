"""The benchmark's contract with the package, checked without running the benchmark.

perfbench/workloads.py rebuilds every workload's expected CLI outputs
in-process. It reads PredictionTrace.steps, cli._merge_settings and the
cli.Settings it returns (class_level, reference, run_config() and
learner_config()), cli._write_decoded and cli._write_encode_report,
EncodedCorpus.scores[i].value and EncodedCorpus.matrix.width, and times
Learner.learn_step on a Learner built from learner_config().
perfbench/spans.py wraps the functions its TARGETS list names (among them
learner.adjust_candidates and learner.select_winners) and reads
StepOutcome.signed_diff and StepOutcome.used_fallback. perfbench/expected.json
records the sha256 of each workload's first output by seed. A change that
breaks those names or the recorded bytes fails here, before a benchmark run
would count every invocation as failed. The modules are loaded from their
files, read-only.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from oracle import encode_reference

from symcast.encoder import encode_corpus
from symcast.learner import Learner, StepOutcome

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")


@pytest.mark.parametrize("owner,attribute", [target[:2] for target in spans.TARGETS])
def test_every_span_target_resolves(owner, attribute):
    assert callable(getattr(owner, attribute))


def test_step_outcome_has_the_fields_the_spans_count():
    assert {"signed_diff", "used_fallback"} <= set(StepOutcome._fields)


def test_encoded_corpus_has_the_fields_the_workloads_read():
    encoded = encode_corpus(["Car", "Bus", "Bu"], class_level=5)
    assert encoded.matrix.width == 3
    assert [encoded.scores[row].value for row in range(3)] == [0b000, 0b110, 0b111]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_settings_build_a_learner_that_steps(name):
    settings = workloads.WORKLOADS[name].settings
    assert settings.class_level == 5
    assert settings.reference == "last"
    settings.run_config().validate()
    outcome = Learner(settings.learner_config()).learn_step(1, 3)
    assert outcome.signed_diff == -2.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_at_full_size_matches_the_recorded_hash(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    workloads.write_input(workload, 0, workload.rows, tmp_path)
    reference = workloads.build_reference(workload, 0, tmp_path, encode_reference)
    assert reference.problems == []
    _, first_output = reference.outputs[0]
    assert hashlib.sha256(first_output).hexdigest() == EXPECTED[name]["0"]
