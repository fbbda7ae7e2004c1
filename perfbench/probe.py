"""A fixed piece of work that times the machine, not symcast.

bench.py spawns it once per iteration, between the workload's CLI commands,
and scales every end-to-end timing by how long it took. It imports no
symcast code, so a change to the program cannot move it. Its mix follows
the CLI's: interpreter start and the numpy import, numpy sorts over a few
MiB, and a pure-Python loop.
"""
import numpy as np

values = np.random.default_rng(0).integers(0, 2**62, 400_000)
for _ in range(6):
    ordered = np.sort(values)
    mixed = (values >> 3) ^ ordered
counts: dict[int, int] = {}
for i in range(150_000):
    counts[i & 1023] = counts.get(i & 1023, 0) + len(str(i))
