#!/usr/bin/env python3
"""APEX-style runtime adaptation driven by performance counters.

The paper (Section VII) positions the counter framework as the basis
for "runtime adaptive mechanisms ... such as throttling the number of
cores used to save energy".  This example runs a workload whose
parallelism collapses halfway through; a policy sampling the idle-rate
counter parks the idle workers, cutting the active core-time (an energy
proxy) with almost no slowdown.

Run:  python examples/adaptive_throttling.py
"""

from repro.apex.policy import PolicyEngine
from repro.apex.throttle import IDLE_RATE_COUNTER, ConcurrencyThrottlePolicy
from repro.counters.base import CounterEnvironment
from repro.counters.providers import build_registry
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.clock import us
from repro.simcore.events import Engine
from repro.simcore.machine import Machine


def phased_workload(ctx):
    """Wide parallel phase, then a long serial tail."""

    def parallel_piece(pctx, k):
        yield pctx.compute(120_000, membytes=4096)
        return k

    def serial_chain(sctx, k):
        if k == 0:
            return 0
        yield sctx.compute(60_000)
        fut = yield sctx.async_(serial_chain, k - 1)
        value = yield sctx.wait(fut)
        return value + 1

    futures = []
    for k in range(64):
        futures.append((yield ctx.async_(parallel_piece, k)))
    yield ctx.wait_all(futures)
    fut = yield ctx.async_(serial_chain, 120)
    tail = yield ctx.wait(fut)
    return tail


def run(adaptive: bool) -> tuple[float, float, list]:
    engine = Engine()
    machine = Machine()
    runtime = HpxRuntime(engine, machine, num_workers=8)
    decisions = []
    if adaptive:
        env = CounterEnvironment(engine=engine, runtime=runtime, machine=machine)
        registry = build_registry(env)
        policy = ConcurrencyThrottlePolicy(runtime=runtime, upper_idle=3500)
        pe = PolicyEngine(
            engine=engine,
            runtime=runtime,
            registry=registry,
            counter_specs=[IDLE_RATE_COUNTER],
            period_ns=us(300),
            rules=[policy.rule()],
        )
        pe.start()
        runtime.run_to_completion(phased_workload)
        decisions = pe.history
    else:
        runtime.run_to_completion(phased_workload)
    wall_ms = engine.now / 1e6
    # Energy proxy: integral of *powered* (enabled) workers over time —
    # a parked core can drop to a sleep state.
    timeline = [(0, 8)] + [(d.time_ns, d.decision.value) for d in decisions]
    timeline.append((engine.now, timeline[-1][1]))
    powered_core_ns = sum(
        (t1 - t0) * active for (t0, active), (t1, _) in zip(timeline, timeline[1:])
    )
    return wall_ms, powered_core_ns / 1e6, decisions


def main() -> None:
    static_wall, static_powered, _ = run(adaptive=False)
    adaptive_wall, adaptive_powered, decisions = run(adaptive=True)

    print("static 8 workers:   wall %7.2f ms   powered core-time %7.2f core-ms"
          % (static_wall, static_powered))
    print("adaptive throttle:  wall %7.2f ms   powered core-time %7.2f core-ms"
          % (adaptive_wall, adaptive_powered))
    slowdown = (adaptive_wall - static_wall) / static_wall * 100
    saved = (static_powered - adaptive_powered) / static_powered * 100
    print(f"\nslowdown: {slowdown:+.1f}%   powered core-time saved: {saved:.0f}%")
    print("decisions taken:")
    for d in decisions:
        print(f"  t={d.time_ns/1e6:7.2f} ms  {d.rule}: {d.decision.action} -> "
              f"{d.decision.value} workers")


if __name__ == "__main__":
    main()
