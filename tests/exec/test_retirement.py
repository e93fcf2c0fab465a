"""What a retired task leaves behind.

A retired task must be freed by refcounting alone: the runtime takes its
future before fulfilling it, so no task <-> future cycle waits for the
cyclic GC (which ``Engine.run`` pauses).  The future keeps its producer,
so a later wait on it still reports the ``depend`` edge.
"""

from __future__ import annotations

import gc

import pytest

from repro import Session, WorkloadSpec
from repro.kernel.scheduler import StdRuntime
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine, MachineSpec

#: Cyclic garbage allowed per extra task; before the cycle break it was 5.
MAX_GARBAGE_PER_TASK = 0.05


def _cyclic_garbage(runtime: str, spec: str, params: dict) -> tuple[int, int]:
    """(tasks executed, objects a full collection frees) for one run with GC off."""
    session = Session(runtime=runtime, cores=4)
    gc.collect()
    gc.disable()
    try:
        result = session.run(WorkloadSpec.parse(spec), params=params)
        tasks = result.tasks_executed
        del result
        return tasks, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "runtime,spec,small,large",
    [
        ("hpx", "fib", {"n": 12}, {"n": 16}),
        ("std", "intersim", {"rounds": 4, "tasks_per_round": 16, "interchanges": 6}, {}),
    ],
)
def test_cyclic_garbage_does_not_grow_with_task_count(runtime, spec, small, large):
    small_tasks, small_garbage = _cyclic_garbage(runtime, spec, small)
    large_tasks, large_garbage = _cyclic_garbage(runtime, spec, large)
    assert large_tasks > 5 * small_tasks
    per_task = (large_garbage - small_garbage) / (large_tasks - small_tasks)
    assert per_task <= MAX_GARBAGE_PER_TASK, (small_garbage, large_garbage)


def _child(ctx):
    yield ctx.compute(1_000)
    return 7


def _parent(ctx):
    fut = yield ctx.async_(_child)
    yield ctx.compute(1_000_000)  # long enough for the child to retire
    value = yield ctx.wait(fut)
    return value, fut


@pytest.mark.parametrize("runtime_cls", [HpxRuntime, StdRuntime], ids=["hpx", "std"])
def test_wait_on_retired_producer_still_reports_depend(runtime_cls):
    rt = runtime_cls(Engine(), Machine(MachineSpec()), num_workers=2)
    events = []
    rt.trace = lambda t, kind, task, aux: events.append((kind, task, aux))
    value, fut = rt.run_to_completion(_parent)

    assert value == 7
    child = fut.producer_task
    assert child is not None and child.future is None  # retired: future taken
    kinds = [(kind, task) for kind, task, _ in events]
    parent = next(task for kind, task in kinds if kind == "create" and task is not child)
    depends = [(i, task, aux) for i, (kind, task, aux) in enumerate(events) if kind == "depend"]
    assert [(task, aux) for _, task, aux in depends] == [(parent, child.tid)]
    # The wait came after the producer retired, on a ready future: the
    # parent never suspended.
    assert depends[0][0] > kinds.index(("terminate", child))
    assert ("suspend", parent) not in kinds
