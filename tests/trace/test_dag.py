"""Task-DAG extraction and work/span analysis."""

import pytest

from repro.profiler.events import TraceRecorder
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

from tests.conftest import fib_body
from tests.trace.dag_oracle import build_task_dag, work_span


def traced(body, *args, cores=4):
    engine = Engine()
    rt = HpxRuntime(engine, Machine(), num_workers=cores)
    recorder = TraceRecorder(rt)
    with recorder:
        value = rt.run_to_completion(body, *args)
    return recorder, rt, engine, value


def test_dag_structure_of_fib():
    recorder, rt, _, _ = traced(fib_body, 10)
    graph = build_task_dag(recorder)
    # Two phase nodes per task.
    assert graph.number_of_nodes() == 2 * rt.stats.tasks_created
    spawn_edges = [(u, v) for u, v, d in graph.edges(data=True) if d["kind"] == "spawn"]
    join_edges = [(u, v) for u, v, d in graph.edges(data=True) if d["kind"] == "join"]
    # Every task except the root was spawned by its parent.
    assert len(spawn_edges) == rt.stats.tasks_created - 1
    # Every internal fib node joins two children.
    assert len(join_edges) >= 2 * ((rt.stats.tasks_created - 1) // 2)


def test_serial_chain_has_parallelism_one():
    def chain(ctx, k):
        yield ctx.compute(10_000)
        if k == 0:
            return 0
        fut = yield ctx.async_(chain, k - 1)
        value = yield ctx.wait(fut)
        return value + 1

    recorder, _, _, value = traced(chain, 20)
    assert value == 20
    ws = work_span(recorder)
    assert ws.tasks == 21
    assert ws.average_parallelism == pytest.approx(1.0, rel=0.15)


def test_fib_tree_parallelism_exceeds_one():
    recorder, _, engine, _ = traced(fib_body, 12)
    ws = work_span(recorder)
    assert ws.average_parallelism > 5
    # Span is a lower bound on any execution (Brent).
    assert engine.now >= ws.span_ns * 0.9


def test_parallelism_bounds_measured_speedup():
    """Measured speedup never exceeds the DAG's average parallelism."""
    recorder, _, e4, _ = traced(fib_body, 12, cores=4)
    ws = work_span(recorder)
    _, _, e1, _ = traced(fib_body, 12, cores=1)
    speedup = e1.now / e4.now
    assert speedup <= ws.average_parallelism * 1.1


def test_wide_fan_out_parallelism():
    def fan(ctx):
        futs = []
        for _ in range(16):
            futs.append((yield ctx.async_(leaf)))
        yield ctx.wait_all(futs)
        return None

    def leaf(ctx):
        yield ctx.compute(10_000)
        return None

    recorder, _, _, _ = traced(fan)
    ws = work_span(recorder)
    assert ws.tasks == 17
    assert 6 < ws.average_parallelism <= 17


def test_work_matches_profile_totals():
    from repro.profiler.report import build_profile

    recorder, _, _, _ = traced(fib_body, 10)
    ws = work_span(recorder)
    profile_total = sum(p.busy_ns for p in build_profile(recorder).values())
    assert ws.work_ns == profile_total
