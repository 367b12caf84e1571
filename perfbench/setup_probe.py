"""Set-up probe: import iclmanip from the checkout, build one workload's
fixtures (the fake server for remote-eval), tear them down and exit.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints time.monotonic() once the fixtures are built; run.py subtracts
the moment it spawned this interpreter to report setup_s, so tear-down
is not counted.
"""

import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import iclmanip  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workload_name, seed = sys.argv[1], int(sys.argv[2])
workdir = ROOT / ".perfbench" / f"probe-{os.getpid()}"
workload = workloads.WORKLOADS[workload_name](workloads.FULL, seed, workdir)
print(repr(time.monotonic()), flush=True)
workload.close()
