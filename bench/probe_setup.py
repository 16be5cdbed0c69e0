"""Time one workload set-up in a fresh process and print it in seconds.

    python3 bench/probe_setup.py <workload> <seed>

bench/run.py starts several of these so that `setup_s` is a median over
cold set-ups: the package import, instance generation, servers and, on
TCP, host start and connection.
"""

import time

_PROCESS_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workload = workloads.make(workloads.SPECS[sys.argv[1]], int(sys.argv[2]))
elapsed = time.perf_counter() - _PROCESS_START
workload.close()
print(elapsed)
