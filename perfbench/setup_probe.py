"""One fresh-process set-up of a workload; prints the CLOCK_MONOTONIC time it was ready.

run.py starts this several times per run and takes the median of
(ready time - spawn time) as ``setup_s``: interpreter start, imports,
``load_dataset`` and fixture deserialization.

    python3 perfbench/setup_probe.py <workload> <seed> <tmp_dir>
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, tmp_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name](seed, tmp_dir).setup()
    print(repr(time.monotonic()))
