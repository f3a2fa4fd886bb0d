"""Set-up probe: a fresh interpreter pays what a user pays before the first op.

Usage: python3 perfbench/probe.py <workload> <seed>

Imports what the workload needs (cvqss for the in-process workloads),
generates the inputs and runs one warm-up op, then prints the
``time.perf_counter()`` reading at that moment as JSON.  perf_counter reads
CLOCK_MONOTONIC, which all processes share on Linux, so the parent subtracts
its own reading taken just before it started this process.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    w = workloads.make(name)
    pool = w.inputs(seed)
    out = w.op(pool[0])
    t_ready = time.perf_counter()
    problems = w.check(pool[0], out)
    print(json.dumps({"t_ready": t_ready, "problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
