"""Post-mortem trace recorder, profiler and exporter."""

import json

import pytest

from repro.profiler.events import TRACE_EVENT_NS, TraceRecorder
from repro.profiler.report import build_profile, render_profile
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.trace import to_chrome_trace

from tests.conftest import fib_body


@pytest.fixture
def traced_run():
    engine = Engine()
    rt = HpxRuntime(engine, Machine(), num_workers=2)
    recorder = TraceRecorder(rt)
    with recorder:
        value = rt.run_to_completion(fib_body, 10)
    return recorder, rt, value, engine


def test_records_all_tasks(traced_run):
    recorder, rt, value, _ = traced_run
    assert value == 55
    assert recorder.task_count() == rt.stats.tasks_executed
    assert len(recorder.events_of_kind("create")) == rt.stats.tasks_created
    assert len(recorder.events_of_kind("terminate")) == rt.stats.tasks_executed


def test_activations_match_phases(traced_run):
    recorder, rt, _, _ = traced_run
    assert len(recorder.events_of_kind("activate")) == rt.stats.phases


def test_events_time_ordered(traced_run):
    recorder, _, _, _ = traced_run
    times = [e.time_ns for e in recorder.events]
    assert times == sorted(times)


def test_events_of_kind_validates(traced_run):
    recorder, _, _, _ = traced_run
    with pytest.raises(ValueError, match="unknown event kind"):
        recorder.events_of_kind("explode")


def test_tracing_perturbs_like_a_tool():
    """Recording costs simulated time (the post-mortem tax)."""
    e1 = Engine()
    rt1 = HpxRuntime(e1, Machine(), num_workers=1)
    rt1.run_to_completion(fib_body, 10)
    e2 = Engine()
    rt2 = HpxRuntime(e2, Machine(), num_workers=1)
    with TraceRecorder(rt2):
        rt2.run_to_completion(fib_body, 10)
    assert e2.now > e1.now


def test_detach_stops_recording():
    engine = Engine()
    rt = HpxRuntime(engine, Machine(), num_workers=1)
    recorder = TraceRecorder(rt)
    recorder.attach()
    recorder.detach()
    rt.run_to_completion(fib_body, 8)
    assert recorder.events == []
    assert rt.instrument_ns == 0


def test_profile_matches_counters(traced_run):
    """The post-mortem profile reconstructs what the in-situ counters
    already reported during the run (the paper's equivalence claim)."""
    recorder, rt, _, _ = traced_run
    profiles = build_profile(recorder)
    assert set(profiles) == {"fib_body"}
    profile = profiles["fib_body"]
    assert profile.tasks == rt.stats.tasks_executed
    assert profile.activations == rt.stats.phases
    # Busy time from the trace ~= cumulative task time + per-activation
    # costs the counters book as overhead; same order, within 2x.
    assert 0.5 < profile.busy_ns / rt.stats.exec_ns < 2.0
    assert profile.mean_task_ns > 0


def test_render_profile(traced_run):
    recorder, _, _, _ = traced_run
    text = render_profile(build_profile(recorder))
    assert "fib_body" in text
    assert "busy ms" in text


def test_chrome_trace_export(traced_run):
    recorder, rt, _, engine = traced_run
    doc = json.loads(to_chrome_trace(recorder))
    events = doc["traceEvents"]
    assert len(events) == rt.stats.phases
    for event in events[:50]:
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["tid"] in (0, 1)
        assert 0 <= event["ts"] * 1e3 <= engine.now


def test_trace_event_cost_constant():
    assert TRACE_EVENT_NS > 0
