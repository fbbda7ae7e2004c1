"""Write expected.json: the sha256 of each workload's first output file, by seed.

The hashes pin the program's behaviour: a run at a recorded seed and the
default size fails every invocation when its output differs. Regenerate
only for a change meant to alter output bytes. From the repository root:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(32)
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402  (needs src/ on sys.path)
import workloads as wl  # noqa: E402


def main() -> int:
    oracle = bench._load_oracle()
    table: dict[str, dict[str, str]] = {}
    for name, workload in wl.WORKLOADS.items():
        table[name] = {}
        for seed in SEEDS:
            bench.WORK.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=bench.WORK) as work:
                wl.write_input(workload, seed, workload.rows, Path(work))
                reference = wl.build_reference(workload, seed, Path(work), oracle)
            if reference.problems:
                raise SystemExit(f"{name} seed {seed}: {reference.problems[0]}")
            table[name][str(seed)] = hashlib.sha256(reference.outputs[0][1]).hexdigest()
        print(name, len(table[name]), "seeds", flush=True)
    bench.EXPECTED.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
