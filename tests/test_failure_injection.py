"""Failure injection: how the runtimes behave when task bodies misuse
the API or die at awkward moments.

These document guarantees (and non-guarantees, matching C++ semantics:
a task dying while holding a mutex deadlocks its waiters).
"""

import pytest

from repro.kernel.scheduler import StdRuntime
from repro.runtime.scheduler import DeadlockError, HpxRuntime
from repro.simcore.events import Engine, SimulationError
from repro.simcore.machine import Machine


def hpx(cores=2):
    return HpxRuntime(Engine(), Machine(), num_workers=cores)


def test_exception_before_first_yield():
    def bad(ctx):
        raise RuntimeError("immediate")
        yield  # pragma: no cover

    rt = hpx()
    with pytest.raises(RuntimeError, match="immediate"):
        rt.run_to_completion(bad)
    assert rt.stats.live_tasks == 0


def test_exception_in_one_of_many_children():
    def child(ctx, k):
        yield ctx.compute(100)
        if k == 3:
            raise ValueError("child 3")
        return k

    def parent(ctx):
        futs = []
        for k in range(6):
            futs.append((yield ctx.async_(child, k)))
        values = yield ctx.wait_all(futs)
        return values

    rt = hpx(4)
    with pytest.raises(ValueError, match="child 3"):
        rt.run_to_completion(parent)
    # Every sibling still ran to termination; nothing leaked.
    assert rt.stats.live_tasks == 0
    assert rt.stats.tasks_executed == rt.stats.tasks_created


def test_uncaught_exception_while_holding_mutex_deadlocks_waiters():
    """Matching C++: an exception does not unlock a raw mutex."""

    def dying_holder(ctx, mutex):
        yield ctx.lock(mutex)
        raise RuntimeError("died holding the lock")

    def waiter(ctx, mutex):
        yield ctx.lock(mutex)
        yield ctx.unlock(mutex)
        return "got it"

    def parent(ctx):
        mutex = ctx.new_mutex()
        f1 = yield ctx.async_(dying_holder, mutex)
        f2 = yield ctx.async_(waiter, mutex)
        try:
            yield ctx.wait(f1)
        except RuntimeError:
            pass
        value = yield ctx.wait(f2)  # never ready: mutex still held
        return value

    rt = hpx(2)
    with pytest.raises(DeadlockError):
        rt.run_to_completion(parent)


def test_caught_exception_inside_body_continues():
    def child(ctx):
        yield ctx.compute(10)
        raise ValueError("recoverable")

    def parent(ctx):
        fut = yield ctx.async_(child)
        try:
            yield ctx.wait(fut)
        except ValueError:
            yield ctx.compute(50)
            return "recovered"
        return "unreachable"

    assert hpx().run_to_completion(parent) == "recovered"


def test_yielding_garbage_is_reported():
    def bad(ctx):
        yield "not an effect"

    rt = hpx()
    with pytest.raises(TypeError, match="non-effect"):
        rt.run_to_completion(bad)


def test_unlock_of_unowned_mutex_fails_the_task():
    def bad(ctx):
        mutex = ctx.new_mutex()
        yield ctx.unlock(mutex)

    rt = hpx()
    with pytest.raises(RuntimeError, match="does not own"):
        rt.run_to_completion(bad)


def test_kernel_exception_in_child():
    def child(ctx):
        yield ctx.compute(10)
        raise KeyError("kernel child")

    def parent(ctx):
        fut = yield ctx.async_(child)
        value = yield ctx.wait(fut)
        return value

    rt = StdRuntime(Engine(), Machine(), num_workers=2)
    with pytest.raises(KeyError, match="kernel child"):
        rt.run_to_completion(parent)
    assert rt.stats.live_tasks == 0


def test_engine_budget_guards_runaway_simulations():
    engine = Engine(max_events=500)
    rt = HpxRuntime(engine, Machine(), num_workers=1)

    def endless(ctx):
        while True:
            yield ctx.compute(10)

    rt.submit(endless)
    with pytest.raises(SimulationError, match="budget"):
        engine.run()


def test_negative_compute_rejected():
    def bad(ctx):
        yield ctx.compute(-5)

    rt = hpx()
    with pytest.raises(ValueError, match="non-negative"):
        rt.run_to_completion(bad)
