"""Time one set-up in a fresh interpreter: import patternstats and build a
workload's inputs.  Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (importing it imports patternstats)

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(time.perf_counter() - start)
