"""Discrete-event engine semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simcore.events import Engine, SimulationError


def test_engine_starts_at_zero(engine):
    assert engine.now == 0
    assert engine.pending_events == 0


def test_schedule_and_run(engine):
    fired = []
    engine.schedule(10, lambda: fired.append(engine.now))
    engine.schedule(5, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [5, 10]
    assert engine.now == 10


def test_fifo_tie_break(engine):
    """Events at the same time fire in scheduling order."""
    fired = []
    for i in range(5):
        engine.schedule(7, lambda i=i: fired.append(i))
    engine.run()
    assert fired == [0, 1, 2, 3, 4]


def test_negative_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_schedule_at_past_rejected(engine):
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5, lambda: None)


def test_cancellation(engine):
    fired = []
    handle = engine.schedule(5, lambda: fired.append("cancelled"))
    engine.schedule(3, lambda: fired.append("kept"))
    handle.cancel()
    engine.run()
    assert fired == ["kept"]


def test_nested_scheduling(engine):
    fired = []

    def outer():
        fired.append(("outer", engine.now))
        engine.schedule(5, lambda: fired.append(("inner", engine.now)))

    engine.schedule(10, outer)
    engine.run()
    assert fired == [("outer", 10), ("inner", 15)]


def test_run_until(engine):
    fired = []
    engine.schedule(5, lambda: fired.append(5))
    engine.schedule(50, lambda: fired.append(50))
    engine.run(until=10)
    assert fired == [5]
    assert engine.now == 5  # the clock does not fast-forward
    engine.run()
    assert fired == [5, 50]


def test_stop(engine):
    fired = []

    def stopper():
        fired.append("first")
        engine.stop("test reason")

    engine.schedule(1, stopper)
    engine.schedule(2, lambda: fired.append("second"))
    engine.run()
    assert fired == ["first"]
    assert engine.stop_reason == "test reason"
    # A fresh run continues with the remaining events.
    engine.run()
    assert fired == ["first", "second"]


def test_event_budget():
    engine = Engine(max_events=10)

    def reschedule():
        engine.schedule(1, reschedule)

    engine.schedule(1, reschedule)
    with pytest.raises(SimulationError, match="budget"):
        engine.run()


def test_events_processed_counter(engine):
    for i in range(7):
        engine.schedule(i, lambda: None)
    engine.run()
    assert engine.events_processed == 7


def test_queue_len_skips_cancelled(engine):
    h1 = engine.schedule(5, lambda: None)
    engine.schedule(6, lambda: None)
    h1.cancel()
    assert engine.pending_events == 1
    h1.cancel()  # a second cancel is a no-op
    assert engine.pending_events == 1
    engine.run()
    assert (engine.now, engine.events_processed) == (6, 1)


def test_queue_pop_order(engine):
    """Events pop in (time, seq) order: earliest time first, ties in
    scheduling order."""
    fired = []
    for time, tag in ((5, "b"), (3, "a"), (5, "c")):
        engine.schedule(time, lambda tag=tag: fired.append((engine.now, tag)))
    engine.run()
    assert fired == [(3, "a"), (5, "b"), (5, "c")]


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_property_fires_in_time_order(times):
    engine = Engine()
    fired = []
    for t in times:
        engine.schedule(t, lambda t=t: fired.append(t))
    engine.run()
    assert fired == sorted(times)
    assert engine.now == max(times)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancelled_never_fire(spec):
    engine = Engine()
    fired = []
    handles = []
    for t, cancel in spec:
        handles.append((engine.schedule(t, lambda t=t: fired.append(t)), cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    engine.run()
    expected = sorted(t for (t, cancel) in spec if not cancel)
    assert fired == expected
