"""Outside-in benchmark of the simulator: end-to-end host cost plus a traced per-layer pass.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""
