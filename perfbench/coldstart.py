"""Child process timed by ``setup_s``: cold start until a first run could begin.

Usage: ``python3 perfbench/coldstart.py RUNTIME SPEC...``.  Imports the
library, resolves the platform, builds the session and loads every input's
workload module, then prints ``ready``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Session, WorkloadSpec  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

Session(runtime=sys.argv[1], cores=8, platform="ivybridge-2x10")
for spec in sys.argv[2:]:
    get_workload(WorkloadSpec.parse(spec).name).benchmark
print("ready", flush=True)
