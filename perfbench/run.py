"""symcast benchmark: seeded workloads through the real CLI, every output checked.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload predict-full --seed 1 --seconds 35 --trace 0

With --trace 0 the benchmark runs the workload's CLI command sequence as
subprocesses (`python -m symcast.cli`, `src` on PYTHONPATH), one at a time,
for --seconds, and reports the end-to-end metrics. With --trace 1 it runs
the same sequence in-process, alternating untraced and traced passes, and
reports per-layer metrics from spans around symcast's public functions.
Either way the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/README.md says why each
workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name from perfbench/workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symcast" / "cli.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"error: {ROOT} holds no symcast checkout (need src/symcast and tests/oracle.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench.wl.WORKLOADS)}")
    # One CPU for this process and the CLI children it spawns, which inherit
    # the mask: the CPUs of a small virtual machine can run at different
    # speeds, and a run that moved between them would mix the two.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # On SIGTERM unwind normally, so the running CLI child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = bench.PER_LAYER_UNITS if args.trace else bench.END_TO_END_UNITS
    for name, value in result["metrics"].items():
        print(f"{name:32} {value:>16.6f} {units[name]}")
    print(f"{'error_rate':32} {result['failed'] / result['attempted']:>16.6f} share"
          f" ({result['failed']} of {result['attempted']} CLI invocations failed)")
    if "probe_s" in result:
        print(f"timings scaled to a probe.py time of {bench.PROBE_REFERENCE_S} s;"
              f" in this run its median was {result['probe_s']:.4f} s")
    print("input", json.dumps(result["input"], sort_keys=True))
    for error in result["errors"]:
        print("error", error)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
