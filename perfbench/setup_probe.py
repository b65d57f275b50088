"""Set-up probe: a fresh interpreter imports groverdyn and builds one cycle's inputs.

Usage: python3 perfbench/setup_probe.py <checkout> <workload> <seed> <sizes-json> <dir>

run.py times this script from spawn to exit as the workload's set-up.
"""

import json
import sys
from pathlib import Path

root, workload, seed, sizes, work = sys.argv[1:]
sys.path.insert(0, str(Path(root) / "src"))

import workloads  # noqa: E402  (imports groverdyn from the checkout)

workloads.build_cycle(workloads.WORKLOADS[workload], json.loads(sizes), Path(work), int(seed), 0)
