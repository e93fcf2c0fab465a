"""The host's speed, measured between runs, to scale host times to a fixed speed.

A shared host's speed drifts by tens of percent over minutes, longer than
one benchmark run, so two runs of the same code minutes apart can differ
by more than any bound worth gating on.  The benchmark therefore times a
fixed reference workload right after every run: a small discrete-event
simulation written here, in the benchmark's own files, so no change to
the program changes it.  Like the simulator it pushes and pops a heap of
events, allocates slotted objects and updates dicts.  A run's host time
is scaled by ``NOMINAL_S / probe``: the time it would have taken on a
host where one probe takes ``NOMINAL_S``.  A program change that halves
a run's time halves its scaled time too; a host that slows down slows the
probe with it, which the scaling takes out.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Probe seconds that define the reference speed (a 2-core VM takes 50-100 ms).
NOMINAL_S = 0.1
#: Tasks the probe simulates, and the count it must report (a fixed tree).
PROBE_TASKS = 20_000
PROBE_DONE = 10_001


class _Task:
    __slots__ = ("id", "parent", "children", "depth", "meta")

    def __init__(self, ident: int, parent: _Task | None, depth: int) -> None:
        self.id = ident
        self.parent = parent
        self.children: list[_Task] = []
        self.depth = depth
        self.meta = {"id": ident, "state": 0}


def simulate() -> int:
    """A binary spawn tree under an event heap; returns how many tasks finished."""
    heap: list[tuple[int, int, _Task]] = [(0, 0, _Task(0, None, 0))]
    created, seq, done = 1, 0, 0
    per_depth: dict[int, int] = {}
    while heap:
        now, _, task = heapq.heappop(heap)
        task.meta["state"] += 1
        if created < PROBE_TASKS and task.depth < 14:
            for _ in range(2):
                child = _Task(created, task, task.depth + 1)
                task.children.append(child)
                created += 1
                seq += 1
                heapq.heappush(heap, (now + (child.id * 2654435761) % 997, seq, child))
        else:
            done += 1
            per_depth[task.depth] = per_depth.get(task.depth, 0) + 1
    return done


def probe() -> float:
    """Seconds of one reference simulation, with the collector off and a clean heap.

    The collector is switched off so that a program that changes the
    collector's settings on import does not change the probe.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        done = simulate()
        elapsed = (time.perf_counter_ns() - start) / 1e9
    finally:
        if enabled:
            gc.enable()
    if done != PROBE_DONE:
        raise RuntimeError(f"host-speed probe finished {done} tasks, expected {PROBE_DONE}")
    return elapsed


def scaled(seconds: float, probe_s: float) -> float:
    """*seconds* measured next to a probe of *probe_s*, at the reference speed."""
    return seconds * NOMINAL_S / probe_s
