"""Self-test of the benchmark: every workload at a tiny size, in well under a minute.

For each workload it checks that an untraced and a traced run are correct,
that each emits exactly the metrics BENCHMARK.json names for its mode,
with the same units, and that corrupting a CLI output file before the
check makes the run report failed invocations. Run from the repository
root:

    python3 perfbench/selftest.py

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402  (needs src/ on sys.path)

TINY_ROWS = {"encode-wide": 300, "learn-pop100k": 40, "predict-full": 400}
SEED = 3


def corrupt(path: Path) -> None:
    """Flip the lowest bit of the last byte before the final newline."""
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        name, rows = workload["name"], TINY_ROWS[workload["name"]]
        for trace, key, units in ((False, "end_to_end", bench.END_TO_END_UNITS),
                                  (True, "per_layer", bench.PER_LAYER_UNITS)):
            result = bench.run(name, SEED, 0.1, trace, rows=rows)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {result['errors']}")
            wanted = {metric["name"]: metric["unit"] for metric in spec[key]}
            emitted = {metric: units[metric] for metric in result["metrics"]}
            if emitted != wanted:
                problems.append(f"{name} trace={int(trace)}: metrics {emitted} != {wanted}")
        corrupted = bench.run(name, SEED, 0.1, False, rows=rows, tamper=corrupt)
        if corrupted["failed"] == 0 or corrupted["correct"]:
            problems.append(f"{name}: a corrupted CLI output was not counted as failed")
        print(f"{name}: checked; corrupted run failed {corrupted['failed']} of "
              f"{corrupted['attempted']} invocations", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
