"""The Timer handle protocol: active / cancel.

Callers (schedulers, PeriodicQuery) program against this protocol
instead of reaching into queue internals, so its semantics are pinned
here.
"""

from __future__ import annotations

from repro.simcore.events import Engine, Timer
from repro.simcore.events_legacy import LegacyEngine


def test_schedule_returns_active_timer():
    engine = Engine()
    timer = engine.schedule(10, lambda: None)
    assert isinstance(timer, Timer)
    assert timer.active


def test_cancel_tombstones_and_is_idempotent():
    engine = Engine()
    fired = []
    timer = engine.schedule(10, fired.append, 1)
    timer.cancel()
    assert not timer.active
    timer.cancel()  # idempotent: no error, no double bookkeeping
    assert engine.pending_events == 0
    engine.run()
    assert fired == []


def test_fired_timer_reports_inactive():
    engine = Engine()
    timer = engine.schedule(5, lambda: None)
    engine.run()
    assert not timer.active
    timer.cancel()  # cancelling a fired timer is a no-op
    assert not timer.active


def test_event_alias_is_gone():
    # The deprecated _Event alias was removed; Timer is the only name.
    import repro.simcore.events as events

    assert not hasattr(events, "_Event")


def test_legacy_engine_handles_expose_active():
    engine = LegacyEngine()
    handle = engine.schedule(10, lambda: None)
    assert handle.active
    handle.cancel()
    assert not handle.active
    assert handle.cancelled
