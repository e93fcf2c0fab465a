#!/usr/bin/env python3
"""Parallel algorithms and executors on the task runtime (Section III).

Estimates pi two ways on the simulated node and shows how the executor's
chunking interacts with the performance counters: big chunks mean few
coarse tasks (low overhead, poor balance), small chunks mean many fine
tasks (visible scheduling overhead) — the granularity trade-off the
whole paper quantifies, reproduced in five lines of algorithm code.

Run:  python examples/parallel_algorithms.py
"""

import operator

from repro.counters.base import CounterEnvironment
from repro.counters.manager import ActiveCounters
from repro.counters.providers import build_registry
from repro.runtime.executors import StaticChunkSize, transform_reduce
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.simcore.rng import derive_rng

SAMPLES = 200_000
NS_PER_SAMPLE = 12  # simulated cost of one dart


def estimate_pi(chunk_size: int, cores: int = 8):
    """Monte-Carlo pi with a fixed executor chunk size."""
    rng = derive_rng(42, "pi")
    xs = rng.random(SAMPLES)
    ys = rng.random(SAMPLES)
    hits_in = (xs * xs + ys * ys <= 1.0).astype(int)

    def body(ctx):
        total = yield from transform_reduce(
            ctx,
            range(0, SAMPLES, 1000),  # 200 blocks of 1000 darts
            transform=lambda lo: int(hits_in[lo : lo + 1000].sum()),
            reduce_fn=operator.add,
            initial=0,
            work_per_item=NS_PER_SAMPLE * 1000,
            chunking=StaticChunkSize(chunk_size),
        )
        return 4.0 * total / SAMPLES

    engine = Engine()
    machine = Machine()
    runtime = HpxRuntime(engine, machine, num_workers=cores)
    env = CounterEnvironment(engine=engine, runtime=runtime, machine=machine)
    registry = build_registry(env)
    counters = ActiveCounters(
        registry,
        [
            "/threads{locality#0/total}/count/cumulative",
            "/threads{locality#0/total}/time/average",
            "/threads{locality#0/total}/time/average-overhead",
            "/threads{locality#0/total}/idle-rate",
        ],
    )
    counters.start()
    pi = runtime.run_to_completion(body)
    values = counters.evaluate_dict()
    return pi, engine.now, values


def main() -> None:
    print(f"monte-carlo pi, {SAMPLES:,} darts in 200 blocks, 8 workers\n")
    header = f"{'chunk':>6s} {'pi':>8s} {'time ms':>9s} {'tasks':>7s} {'grain us':>9s} {'ovh ns':>7s} {'idle %':>7s}"
    print(header)
    for chunk in (100, 25, 5, 1):
        pi, time_ns, counters = estimate_pi(chunk)
        tasks = counters["/threads{locality#0/total}/count/cumulative"]
        grain = counters["/threads{locality#0/total}/time/average"] / 1e3
        overhead = counters["/threads{locality#0/total}/time/average-overhead"]
        idle = counters["/threads{locality#0/total}/idle-rate"] / 100
        print(
            f"{chunk:6d} {pi:8.4f} {time_ns/1e6:9.3f} {tasks:7.0f} "
            f"{grain:9.1f} {overhead:7.0f} {idle:7.1f}"
        )
    print(
        "\nBig chunks: few coarse tasks, idle workers (poor balance)."
        "\nSmall chunks: good balance until scheduling overhead eats the gain"
        "\n— the granularity trade-off of the paper, straight from the counters."
    )


if __name__ == "__main__":
    main()
