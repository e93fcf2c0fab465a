"""Randomized task-DAG equivalence between the two runtimes.

hypothesis generates random fork/join tree programs (shape, costs,
policies, mutex use); both runtimes must compute identical results,
finish with clean state, and be deterministic run-to-run.  This is the
broadest invariant check in the suite: if the schedulers lost, duplicated
or misordered any task, the tree checksums would differ.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.scheduler import StdRuntime
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

# A node spec: (n_children, compute_ns, policy_index, use_mutex)
node_spec = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)

POLICIES = ("async", "fork", "deferred", "sync")

tree_spec = st.lists(node_spec, min_size=1, max_size=40)


def _node_task(ctx, spec: list, index: int, depth: int, shared: dict):
    """Interpret node *index* of the spec; children are the next spec
    entries in breadth order (wrapping), bounded by depth."""
    n_children, compute_ns, policy_idx, use_mutex = spec[index % len(spec)]
    if depth >= 4:
        n_children = 0
    yield ctx.compute(compute_ns)
    if use_mutex:
        yield ctx.lock(shared["mutex"])
        shared["counter"] += 1
        yield ctx.unlock(shared["mutex"])
    futures = []
    for c in range(n_children):
        child_index = index * 3 + c + 1
        fut = yield ctx.async_(
            _node_task,
            spec,
            child_index,
            depth + 1,
            shared,
            policy=POLICIES[policy_idx],
        )
        futures.append(fut)
    if futures:
        child_sums = yield ctx.wait_all(futures)
        return index + sum(child_sums)
    return index


def _root(ctx, spec: list):
    shared = {"mutex": ctx.new_mutex(), "counter": 0}
    fut = yield ctx.async_(_node_task, spec, 0, 0, shared)
    total = yield ctx.wait(fut)
    return total, shared["counter"]


def _run(runtime_cls, spec: list, cores: int):
    engine = Engine()
    rt = runtime_cls(engine, Machine(), num_workers=cores)
    value = rt.run_to_completion(_root, spec)
    return value, rt, engine


@settings(max_examples=30)
@given(tree_spec, st.integers(min_value=1, max_value=8))
def test_property_runtimes_agree(spec, cores):
    hpx_value, hpx_rt, _ = _run(HpxRuntime, spec, cores)
    std_value, std_rt, _ = _run(StdRuntime, spec, cores)
    assert hpx_value == std_value
    assert hpx_rt.stats.live_tasks == 0
    assert std_rt.stats.live_tasks == 0
    assert hpx_rt.stats.tasks_created == std_rt.stats.tasks_created


@settings(max_examples=15)
@given(tree_spec, st.integers(min_value=1, max_value=8))
def test_property_hpx_deterministic(spec, cores):
    v1, rt1, e1 = _run(HpxRuntime, spec, cores)
    v2, rt2, e2 = _run(HpxRuntime, spec, cores)
    assert v1 == v2
    assert e1.now == e2.now
    assert rt1.stats.overhead_ns == rt2.stats.overhead_ns


@settings(max_examples=10)
@given(tree_spec)
def test_property_result_independent_of_core_count(spec):
    values = {cores: _run(HpxRuntime, spec, cores)[0] for cores in (1, 3, 7)}
    assert len(set(values.values())) == 1


@settings(max_examples=10)
@given(tree_spec, st.lists(st.integers(1, 8), min_size=1, max_size=4))
def test_property_throttling_mid_run_is_safe(spec, throttle_points):
    """Randomly shrinking/growing the worker pool mid-run never breaks
    correctness."""
    engine = Engine()
    rt = HpxRuntime(engine, Machine(), num_workers=8)
    for i, count in enumerate(throttle_points):
        engine.schedule(5_000 * (i + 1), lambda c=count: rt.set_active_workers(c))
    value = rt.run_to_completion(_root, spec)
    baseline, _, _ = _run(HpxRuntime, spec, 8)
    assert value == baseline
    assert rt.stats.live_tasks == 0
