"""Heap engine vs legacy reference engine: identical (time, seq) semantics.

Seeded randomized workloads (no Hypothesis needed — plain
``random.Random``) and whole simulated runs drive the engine and the
verbatim pre-optimisation object heap side by side and require
identical fire order, identical final clocks and identical counters.
This is the determinism contract the campaign cache and the
``repro compare`` gate rely on.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Session
from repro.simcore.events import Engine
from repro.simcore.events_legacy import LegacyEngine
from repro.simcore.record import RecordingEngine, replay_stream
from repro.workloads import WorkloadSpec

SEEDS = (0, 1, 20160523)
ENGINES = (Engine, LegacyEngine)
FAR = 25_000  # a fixed far-future delay, well past every near-term tie


def _random_workload(rng: random.Random, size: int) -> list[tuple[str, int]]:
    """A mix of schedules (near and tie-heavy, or far future), cancels of
    random outstanding handles and partial runs."""
    ops: list[tuple[str, int]] = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.55:
            ops.append(("push", rng.randrange(0, 64)))  # near future, many ties
        elif roll < 0.75:
            ops.append(("push", rng.randrange(0, FAR * 3)))  # far future
        elif roll < 0.9:
            ops.append(("cancel", rng.randrange(1 << 30)))
        else:
            ops.append(("run", rng.randrange(0, 64)))
    return ops


def _drive_random(engine_cls, ops: list[tuple[str, int]]):
    engine = engine_cls()
    fired: list[tuple[int, int]] = []
    handles = []
    for op, value in ops:
        if op == "push":
            tag = len(handles)
            handles.append(engine.schedule_at(engine.now + value, fired.append, (tag, value)))
        elif op == "cancel" and handles:
            handles[value % len(handles)].cancel()
        elif op == "run":
            engine.run(until=engine.now + value)
    engine.run()
    return fired, engine.now, engine.events_processed, engine.pending_events


def test_queue_pop_order_matches_legacy_across_random_workloads():
    """Random schedules, cancels and partial runs pop and fire events in
    the same order on both engines."""
    for seed in SEEDS:
        ops = _random_workload(random.Random(seed), 400)
        new = _drive_random(Engine, ops)
        assert new == _drive_random(LegacyEngine, ops)
        assert new[3] == 0


def test_pending_events_matches_legacy_under_cancellation():
    for seed in SEEDS:
        counts = []
        for engine_cls in ENGINES:
            rng = random.Random(seed)
            engine = engine_cls()
            handles = [engine.schedule(rng.randrange(0, FAR * 2), lambda: None) for _ in range(200)]
            rng.shuffle(handles)
            for handle in handles[: len(handles) // 2]:
                handle.cancel()
            before = engine.pending_events
            engine.run(until=FAR)
            counts.append((before, engine.pending_events, engine.now, engine.events_processed))
        assert counts[0] == counts[1]
        assert counts[0][0] == 100


def test_engine_fire_order_matches_legacy_with_nested_scheduling():
    """Full engine runs: randomized cascading events (each firing may
    schedule more, including zero-delay ties and far-future ones) fire
    in the same order at the same times on both engines."""
    for seed in SEEDS:

        def drive(engine_cls):
            rng = random.Random(seed)
            engine = engine_cls()
            fired: list[tuple[int, int]] = []

            def body(tag: int) -> None:
                fired.append((tag, engine.now))
                for _ in range(rng.randrange(0, 3)):
                    delay = rng.choice((0, 1, 7, 50, FAR))
                    engine.call_later(delay, body, rng.randrange(1 << 20))
                if rng.random() < 0.2:
                    handle = engine.schedule(rng.randrange(1, 40), body, -tag)
                    if rng.random() < 0.5:
                        handle.cancel()

            for tag in range(30):
                engine.schedule(rng.randrange(0, 100), body, tag)
            engine.run(until=40_000)  # bound the cascade
            return fired, engine.now, engine.events_processed

        assert drive(Engine) == drive(LegacyEngine)


def test_len_is_live_count_not_heap_size():
    for engine_cls in ENGINES:
        engine = engine_cls()
        handles = [engine.schedule(i % 5, lambda: None) for i in range(100)]
        assert engine.pending_events == 100
        for handle in handles[:60]:
            handle.cancel()
        assert engine.pending_events == 40  # cancelled events are not pending
        for handle in handles[:60]:
            handle.cancel()  # a second cancel is a no-op
        assert engine.pending_events == 40
        engine.run()
        assert engine.events_processed == 40


# -- edge cases of a same-timestamp group ------------------------------------


def _group(engine, fired: list, action=None) -> None:
    """Five events at t=10 (the third runs *action*), one at t=10 scheduled
    from inside the group, and one at t=20."""

    def member(tag: str) -> None:
        fired.append((engine.now, tag))
        if tag == "a":
            engine.call_later(0, member, "nested")
        if tag == "c" and action is not None:
            action()

    for tag in "abcde":
        engine.call_at(10, member, tag)
    engine.call_at(20, member, "late")


GROUP_ORDER = [
    (10, "a"),
    (10, "b"),
    (10, "c"),
    (10, "d"),
    (10, "e"),
    (10, "nested"),
    (20, "late"),
]


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["heap", "legacy"])
def test_stop_mid_group_resumes_in_time_seq_order(engine_cls):
    engine = engine_cls()
    fired: list = []
    _group(engine, fired, lambda: engine.stop("mid-group"))
    engine.run()
    assert fired == GROUP_ORDER[:3]
    assert engine.stop_reason == "mid-group"
    assert engine.pending_events == 4
    engine.run()
    assert fired == GROUP_ORDER
    assert engine.events_processed == len(GROUP_ORDER)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["heap", "legacy"])
def test_raise_mid_group_resumes_in_time_seq_order(engine_cls):
    engine = engine_cls()
    fired: list = []

    def boom() -> None:
        raise _Boom

    _group(engine, fired, boom)
    with pytest.raises(_Boom):
        engine.run()
    assert fired == GROUP_ORDER[:3]
    assert engine.events_processed == 3
    assert engine.pending_events == 4
    engine.run()
    assert fired == GROUP_ORDER
    assert engine.now == 20


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["heap", "legacy"])
def test_run_until_fires_a_live_event_at_exactly_until(engine_cls):
    engine = engine_cls()
    fired: list = []
    _group(engine, fired)
    engine.run(until=10)
    assert fired == GROUP_ORDER[:6]
    assert engine.now == 10
    assert engine.pending_events == 1
    engine.run(until=19)
    assert engine.now == 10  # the clock does not fast-forward
    engine.run(until=20)
    assert fired == GROUP_ORDER


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["heap", "legacy"])
def test_run_until_with_cancelled_event_at_head(engine_cls):
    engine = engine_cls()
    fired: list = []
    engine.schedule(5, fired.append, "cancelled-head").cancel()
    engine.schedule(8, fired.append, "cancelled-second").cancel()
    engine.schedule(12, fired.append, "live")
    engine.run(until=10)
    assert fired == []
    assert engine.now == 0
    assert engine.events_processed == 0
    assert engine.pending_events == 1
    engine.run(until=12)
    assert fired == ["live"]
    assert engine.now == 12


# -- whole simulated runs ------------------------------------------------------


def _assert_fib20_identical(platform: str | None) -> None:
    """fib(20), hpx, 8 cores: bit-identical simulated results (timestamps,
    counter values, task counts) on the heap engine and the legacy
    reference engine."""
    new, legacy = (
        Session(runtime="hpx", cores=8, platform=platform, engine_factory=engine_cls).run(
            WorkloadSpec.parse("fib"), params={"n": 20}
        )
        for engine_cls in ENGINES
    )
    assert new.verified and legacy.verified
    assert new.exec_time_ns == legacy.exec_time_ns
    assert new.engine_events == legacy.engine_events
    assert new.counters == legacy.counters
    assert new.tasks_executed == legacy.tasks_executed


def test_fib20_identical_artifacts_on_both_engines():
    _assert_fib20_identical(None)


def test_fib20_identical_artifacts_on_both_engines_epyc():
    """The same check on a non-default platform preset."""
    _assert_fib20_identical("epyc-2x64")


def test_recorded_stream_replays_identically_on_both_engines():
    """A recorded fib(12) event stream replays to the recorded run's final
    clock and event count on both engines."""
    recorder = RecordingEngine()
    recorded = Session(runtime="hpx", cores=4, engine_factory=lambda: recorder).run(
        WorkloadSpec.parse("fib"), params={"n": 12}
    )
    assert recorded.verified
    for engine_cls in ENGINES:
        _, now, events = replay_stream(recorder.groups, recorder.delays, engine_cls)
        assert (now, events) == (recorded.exec_time_ns, recorded.engine_events)
