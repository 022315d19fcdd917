"""Child process behind setup_s: import rsplfr and build one workload.

Prints the seconds from just before ``import rsplfr`` to a built
workload (SystemParams, Pda, Scenario or audit inputs), the point where
the first timed call would start.

    python3 bench/setup_probe.py <workload> <seed> <quick 0|1>
"""

import sys
import time

t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import rsplfr  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
print(repr(time.perf_counter() - t0))
