"""Unified execution errors and their diagnostics."""

import pytest

import repro.kernel.scheduler as kernel_sched
import repro.runtime.scheduler as runtime_sched
from repro.exec.errors import (
    DeadlockError,
    ExecutionError,
    ResourceExhausted,
    describe_tasks,
    format_stall,
)
from repro.kernel.config import StdParams
from repro.kernel.scheduler import StdRuntime
from repro.model.future import SimFuture
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

from tests.conftest import fib_body


def test_legacy_names_are_aliases():
    assert runtime_sched.DeadlockError is DeadlockError
    assert kernel_sched.ResourceExhausted is ResourceExhausted
    assert kernel_sched.DeadlockError is DeadlockError


def test_one_hierarchy():
    assert issubclass(DeadlockError, ExecutionError)
    assert issubclass(ResourceExhausted, ExecutionError)
    assert issubclass(ExecutionError, RuntimeError)


def _stuck_body(ctx):
    yield ctx.compute(100)
    yield ctx.wait(SimFuture())  # never fulfilled


@pytest.mark.parametrize("cls", [HpxRuntime, StdRuntime])
def test_deadlock_diagnostics_name_the_stuck_task(cls):
    rt = cls(Engine(), Machine(), num_workers=2)
    with pytest.raises(DeadlockError) as exc_info:
        rt.run_to_completion(_stuck_body)
    message = str(exc_info.value)
    assert "1 unfinished" in message
    assert "_stuck_body" in message


def test_resource_exhausted_names_over_budget_threads():
    params = StdParams(ram_budget_bytes=4 * StdParams().thread_commit_bytes)
    rt = StdRuntime(Engine(), Machine(), num_workers=2, params=params)
    with pytest.raises(ResourceExhausted) as exc_info:
        rt.run_to_completion(fib_body, 10)
    message = str(exc_info.value)
    assert "exhausted memory" in message
    assert "thread" in message
    assert "fib_body" in message
    assert rt.aborted and rt.abort_reason == message


class _FakeTask:
    def __init__(self, tid, description, state):
        self.tid = tid
        self.description = description
        self.state = state


class _State:
    def __init__(self, value):
        self.value = value


def _tasks(n):
    return [_FakeTask(i, f"job({i})", _State("suspended")) for i in range(n)]


def test_describe_tasks_truncates():
    lines = describe_tasks(_tasks(7), noun="thread", limit=5)
    assert len(lines) == 6
    assert lines[0] == "  thread 0 job(0) state=suspended"
    assert lines[-1] == "  ... and 2 more"


def test_format_stall_headline():
    text = format_stall(_tasks(2), now_ns=1234, noun="task")
    assert text.splitlines()[0] == "deadlock: 2 unfinished tasks at t=1234ns"
    assert "job(1)" in text
