"""Set-up probe: import ``repro`` and construct one workload's system.

Run as ``python3 perfbench/setup_probe.py <workload>`` from the checkout
root.  Prints the host seconds (CPU time of this process, as every host
figure of the benchmark) from process start until the workload is ready to
run: interpreter start, the ``repro`` import and cluster or graph
construction.  Then prints the reference loop's CPU seconds in this
process, which ``run.py`` scales the first figure by.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402  (imports repro)

WORKLOADS[sys.argv[1]].setup()
ready = time.process_time()

from reference import reference_s  # noqa: E402

print(repr(ready), repr(reference_s()))
