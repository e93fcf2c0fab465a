"""Thread-per-task kernel model: correctness, costs, failure modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.config import StdParams
from repro.kernel.scheduler import KMutex, ResourceExhausted, StdRuntime
from repro.model.work import Work
from repro.simcore.clock import ms
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

from tests.conftest import fib_body


def run_fib(cores: int, n: int = 10, params: StdParams | None = None):
    engine = Engine()
    rt = StdRuntime(engine, Machine(), num_workers=cores, params=params)
    value = rt.run_to_completion(fib_body, n)
    return value, engine, rt


def test_fib_correct():
    value, _, _ = run_fib(1)
    assert value == 55


@pytest.mark.parametrize("cores", [2, 5, 10, 20])
def test_fib_correct_multicore(cores):
    value, _, _ = run_fib(cores)
    assert value == 55


def test_thread_per_task():
    _, _, rt = run_fib(2, n=8)
    # One thread per async + the main thread.
    assert rt.stats.tasks_created == rt.stats.tasks_executed
    assert rt.stats.live_tasks == 0


def test_thread_creation_dominates_fine_grain():
    """std::async on ~0.5 us tasks is massively slower than the work.

    ``exec_ns`` includes the 18 us thread creations charged inside the
    parents' bodies; the pure task compute is well under 1 us per task.
    """
    _, engine, rt = run_fib(1, n=10)
    pure_compute_upper_bound = rt.stats.tasks_created * 1_300
    assert engine.now > 10 * pure_compute_upper_bound


def test_breadth_first_live_thread_explosion():
    """The run queue admits every spawned thread: the live count grows
    to a large fraction of the total — the paper's failure mechanism."""
    _, _, rt = run_fib(4, n=12)
    assert rt.stats.peak_live_tasks > rt.stats.tasks_created * 0.3


def test_memory_abort():
    params = StdParams(ram_budget_bytes=StdParams().thread_commit_bytes * 50)
    engine = Engine()
    rt = StdRuntime(engine, Machine(), num_workers=4, params=params)
    with pytest.raises(ResourceExhausted):
        rt.run_to_completion(fib_body, 12)
    assert rt.aborted
    assert "exhausted" in (rt.abort_reason or "")


def test_max_live_threads_property():
    params = StdParams()
    assert params.max_live_threads == params.ram_budget_bytes // params.thread_commit_bytes


def test_preemption_of_long_segments():
    """A compute longer than the quantum is sliced when others wait."""

    def long_task(ctx):
        yield ctx.compute(Work(cpu_ns=ms(10)))
        return "long"

    def short_task(ctx):
        yield ctx.compute(1000)
        return "short"

    def parent(ctx):
        f1 = yield ctx.async_(long_task)
        f2 = yield ctx.async_(short_task)
        a = yield ctx.wait(f1)
        b = yield ctx.wait(f2)
        return (a, b)

    engine = Engine()
    rt = StdRuntime(engine, Machine(), num_workers=1, params=StdParams())
    assert rt.run_to_completion(parent) == ("long", "short")
    assert rt.stats.preemptions >= 1


def test_no_preemption_when_alone():
    def long_task(ctx):
        yield ctx.compute(Work(cpu_ns=ms(10)))
        return None

    engine = Engine()
    rt = StdRuntime(engine, Machine(), num_workers=2)
    rt.run_to_completion(long_task)
    assert rt.stats.preemptions == 0


def test_deferred_policy_inline():
    def child(ctx):
        yield ctx.compute(100)
        return 5

    def parent(ctx):
        fut = yield ctx.async_(child, policy="deferred")
        value = yield ctx.wait(fut)
        return value

    engine = Engine()
    rt = StdRuntime(engine, Machine(), num_workers=1)
    assert rt.run_to_completion(parent) == 5
    # Deferred children never become kernel threads.
    assert rt.stats.peak_live_tasks == 1  # just main


def test_sync_policy_inline():
    def child(ctx):
        yield ctx.compute(100)
        return 6

    def parent(ctx):
        fut = yield ctx.async_(child, policy="sync")
        value = yield ctx.wait(fut)
        return value

    engine = Engine()
    rt = StdRuntime(engine, Machine(), num_workers=1)
    assert rt.run_to_completion(parent) == 6


def test_runqueue_lock_serializes():
    engine = Engine()
    rt = StdRuntime(engine, Machine(), num_workers=1)
    d1 = rt._lock_delay(100)
    d2 = rt._lock_delay(100)
    assert d1 == 100
    assert d2 == 200  # queued behind the first hold


def test_blocks_and_wakes_counted():
    _, _, rt = run_fib(2, n=8)
    assert rt.stats.blocks > 0
    assert rt.stats.wakes > 0


def test_exception_propagates():
    def boom(ctx):
        yield ctx.compute(1)
        raise ValueError("std task failed")

    engine = Engine()
    rt = StdRuntime(engine, Machine(), num_workers=2)
    with pytest.raises(ValueError, match="std task failed"):
        rt.run_to_completion(boom)


def test_deterministic():
    _, e1, rt1 = run_fib(4, n=11)
    _, e2, rt2 = run_fib(4, n=11)
    assert e1.now == e2.now
    assert rt1.stats.dispatches == rt2.stats.dispatches


class _FakeThread:
    def __init__(self, tid):
        self.tid = tid


def test_kmutex_fifo():
    m = KMutex(0)
    t1, t2 = _FakeThread(1), _FakeThread(2)
    assert m.try_acquire(t1)
    assert not m.try_acquire(t2)
    m.enqueue_waiter(t2)
    assert m.release(t1) is t2
    with pytest.raises(RuntimeError):
        m.release(t1)


def test_mutex_exclusion_kernel():
    def worker(ctx, mutex, log, k):
        yield ctx.lock(mutex)
        log.append(("enter", k))
        yield ctx.compute(500)
        log.append(("exit", k))
        yield ctx.unlock(mutex)
        return None

    def parent(ctx):
        mutex = ctx.new_mutex()
        log = []
        futs = []
        for k in range(4):
            futs.append((yield ctx.async_(worker, mutex, log, k)))
        yield ctx.wait_all(futs)
        return log

    engine = Engine()
    rt = StdRuntime(engine, Machine(), num_workers=4)
    log = rt.run_to_completion(parent)
    for i in range(0, len(log), 2):
        assert log[i] == ("enter", log[i][1])
        assert log[i + 1] == ("exit", log[i][1])


def test_hpx_beats_std_on_fine_grain():
    """The paper's headline: lightweight tasks vs pthreads."""
    from repro.runtime.scheduler import HpxRuntime

    engine_hpx = Engine()
    hpx = HpxRuntime(engine_hpx, Machine(), num_workers=4)
    hpx.run_to_completion(fib_body, 12)
    engine_std = Engine()
    std = StdRuntime(engine_std, Machine(), num_workers=4)
    std.run_to_completion(fib_body, 12)
    assert engine_std.now > 5 * engine_hpx.now


@settings(max_examples=8)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=3, max_value=10))
def test_property_fib_correct_everywhere(cores, n):
    expected = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55][n]
    value, _, rt = run_fib(cores, n=n)
    assert value == expected
    assert rt.stats.live_tasks == 0


def test_kernel_scatter_binding():
    from repro.simcore.topology import BindMode

    engine = Engine()
    rt = StdRuntime(engine, Machine(), num_workers=4, bind_mode=BindMode.SCATTER)
    assert rt.run_to_completion(fib_body, 10) == 55
    sockets = {c.socket for c in rt.cores}
    assert sockets == {0, 1}
