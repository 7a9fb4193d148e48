"""Set-up probe: import condind and build one workload's inputs in this
fresh interpreter, then print the seconds that took.

    python3 perfbench/probe.py <workload> <seed>
"""

import time

started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

root = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(root / "src"))
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), root)
print(time.perf_counter() - started)
