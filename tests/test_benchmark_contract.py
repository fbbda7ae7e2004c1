"""The benchmark's contract with the package, checked without running the benchmark.

perfbench/workloads.py rebuilds every workload's expected CLI outputs
in-process. It reads PredictionTrace.steps, cli.Settings, cli._write_decoded
and cli._write_encode_report, and perfbench/expected.json records the
sha256 of each workload's first output by seed. A change that breaks those
names or the recorded bytes fails here, before a benchmark run would count
every invocation as failed. The module is loaded from its file, read-only.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from oracle import encode_reference

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_at_full_size_matches_the_recorded_hash(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    workloads.write_input(workload, 0, workload.rows, tmp_path)
    reference = workloads.build_reference(workload, 0, tmp_path, encode_reference)
    assert reference.problems == []
    _, first_output = reference.outputs[0]
    assert hashlib.sha256(first_output).hexdigest() == EXPECTED[name]["0"]
