"""Child process that measures set-up: import kernelconnect, build the inputs
of one pass of a workload, print one JSON line, exit.

    python3 perfbench/setup_probe.py <workload> <seed> <tiny 0|1>

run.py starts it with PYTHONPATH pointing at the checkout's src/ and times it
from process start to that line.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import kernelconnect  # noqa: E402

IMPORTED = time.perf_counter()

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    WORKLOADS[name].setup(kernelconnect, seed, 0, tiny)
    print(json.dumps({"import_s": IMPORTED - START, "file": kernelconnect.__file__}), flush=True)
