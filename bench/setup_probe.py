"""One fresh start of an in-process workload, run as a child by run.py.

Prints a JSON object with ``setup_s``: ``import bvd`` plus building the
workload's losses with ``catalog``, in seconds.
Usage, with src/ on PYTHONPATH: python3 bench/setup_probe.py WORKLOAD SEED
"""

import json
import sys
import time

t0 = time.perf_counter()
import bvd  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
t3 = time.perf_counter()
print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))
