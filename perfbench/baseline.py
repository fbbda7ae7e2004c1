"""Run every workload over a range of seeds and summarise the results as JSON.

Each run is `perfbench/run.py` in its own process, one at a time. For every
end-to-end metric the summary gives the median, the quartiles and the
spread (interquartile distance over the median, as statistics.quantiles
gives them), next to the metric's bound from BENCHMARK.json. One traced run
per workload adds the per-layer metrics. From the repository root:

    python3 perfbench/baseline.py --out perfbench/results/seed_baseline.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["input"] = json.loads(next(line for line in lines if line.startswith("input "))[6:])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="where to write the summary JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import numpy

    sources = sorted((ROOT / "src" / "symcast").glob("*.py"))
    summary = {
        # identifies the program measured without needing git
        "src_sha256": hashlib.sha256(b"".join(path.read_bytes() for path in sources)).hexdigest(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name in (workload["name"] for workload in spec["workloads"]):
        runs = []
        for seed in summary["seeds"]:
            runs.append(_run(name, seed, spec["run_seconds"], 0))
            print(name, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
            }
            print(f"  {metric['name']:24} median {median:12.4f} spread {(q3 - q1) / median:.4f}"
                  f" (bound {metric['bound']})", flush=True)
        traced = _run(name, summary["seeds"][0], spec["run_seconds"], 1)
        summary["workloads"][name] = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "input": {str(seed): run["input"] for seed, run in zip(summary["seeds"], runs)},
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
