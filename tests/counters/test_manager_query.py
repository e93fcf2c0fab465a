"""Active-counter manager and periodic queries."""

import pytest

from repro.counters.manager import ActiveCounters, format_counter_values
from repro.counters.query import PeriodicQuery
from repro.simcore.clock import us

from tests.conftest import fib_body


def test_active_counters_create(registry):
    ac = ActiveCounters(registry, ["/threads/time/average", "/runtime/uptime"])
    assert len(ac) == 2
    assert ac.names() == [
        "/threads{locality#0/total}/time/average",
        "/runtime{locality#0/total}/uptime",
    ]


def test_evaluate_returns_values(registry):
    ac = ActiveCounters(registry, ["/threads/count/cumulative"])
    values = ac.evaluate_active_counters()
    assert len(values) == 1
    assert values[0].value == 0.0


def test_evaluate_with_description(registry):
    ac = ActiveCounters(registry, ["/runtime/uptime"])
    values = ac.evaluate_active_counters(description="sample-3")
    assert "[sample-3]" in values[0].name


def test_evaluate_reset_protocol(registry, hpx4):
    """The paper's per-sample protocol: evaluate+reset between samples."""
    ac = ActiveCounters(registry, ["/threads/count/cumulative"])
    hpx4.run_to_completion(fib_body, 8)
    first = ac.evaluate_active_counters(reset=True)[0].value
    assert first == hpx4.stats.tasks_executed
    # After the reset the counter reads zero until more tasks run.
    assert ac.evaluate_active_counters()[0].value == 0.0


def test_reset_active_counters(registry, hpx4):
    ac = ActiveCounters(registry, ["/threads/count/cumulative"])
    hpx4.run_to_completion(fib_body, 8)
    ac.reset_active_counters()
    assert ac.evaluate_dict()["/threads{locality#0/total}/count/cumulative"] == 0.0


def test_start_stop_instrumentation(registry, hpx4):
    ac = ActiveCounters(registry, ["/threads/time/average"])
    assert hpx4.instrument_ns == 0
    ac.start()
    assert hpx4.instrument_ns > 0
    ac.stop()
    assert hpx4.instrument_ns == 0


def test_start_idempotent(registry, hpx4):
    ac = ActiveCounters(registry, ["/threads/time/average"])
    ac.start()
    level = hpx4.instrument_ns
    ac.start()
    assert hpx4.instrument_ns == level


def test_format_counter_values(registry):
    ac = ActiveCounters(registry, ["/threads/count/cumulative"])
    text = format_counter_values(ac.evaluate_active_counters())
    assert text == "/threads{locality#0/total}/count/cumulative,1,0,0"


def test_periodic_query_out_of_band(registry, hpx4, engine):
    query = PeriodicQuery(
        ActiveCounters(registry, ["/threads/count/cumulative"]),
        engine=engine,
        runtime=hpx4,
        interval_ns=us(20),
        in_band=False,
    )
    query.start()
    hpx4.run_to_completion(fib_body, 12)
    assert len(query.samples) > 2
    # Samples are cumulative and non-decreasing.
    values = [s[0].value for s in query.samples]
    assert values == sorted(values)


def test_periodic_query_in_band_perturbs(registry, hpx4, engine):
    """In-band querying consumes scheduler time (the counter-overhead
    effect of Section V-C)."""
    from repro.runtime.scheduler import HpxRuntime
    from repro.simcore.events import Engine
    from repro.simcore.machine import Machine

    baseline_engine = Engine()
    baseline = HpxRuntime(baseline_engine, Machine(), num_workers=1)
    baseline.run_to_completion(fib_body, 10)

    query = PeriodicQuery(
        ActiveCounters(registry, ["/threads/count/cumulative"]),
        engine=engine,
        runtime=hpx4,
        interval_ns=us(50),
        in_band=True,
    )
    query.start()
    hpx4.run_to_completion(fib_body, 10)
    assert query.samples  # queries actually ran as tasks


def test_periodic_query_stops_at_quiescence(registry, hpx4, engine):
    query = PeriodicQuery(
        ActiveCounters(registry, ["/runtime/uptime"]),
        engine=engine,
        runtime=hpx4,
        interval_ns=us(100),
        in_band=False,
    )
    query.start()
    hpx4.run_to_completion(fib_body, 9)
    engine.run()  # drain any remaining query ticks
    assert not query._running
    assert engine.pending_events == 0


def test_periodic_query_validation(registry, hpx4, engine):
    ac = ActiveCounters(registry, ["/runtime/uptime"])
    with pytest.raises(ValueError, match="interval"):
        PeriodicQuery(ac, engine=engine, runtime=hpx4, interval_ns=0)
    with pytest.raises(ValueError, match="runtime"):
        PeriodicQuery(ac, engine=engine, runtime=None, interval_ns=10, in_band=True)


def test_periodic_query_stop_is_idempotent(registry, hpx4, engine):
    """Regression: double stop (explicit stop racing the self-stop at
    quiescence) must not unregister counter instrumentation twice."""
    query = PeriodicQuery(
        ActiveCounters(registry, ["/threads/time/average"]),
        engine=engine,
        runtime=hpx4,
        interval_ns=us(10),
        in_band=False,
    )
    query.stop()  # stop before start: no-op
    assert hpx4.instrument_ns == 0
    query.start()
    assert hpx4.instrument_ns > 0
    query.stop()
    query.stop()
    assert hpx4.instrument_ns == 0


def test_periodic_query_stop_cancels_armed_tick(registry, hpx4, engine):
    """Regression: stop() must cancel the armed tick so the event queue
    drains instead of firing a stray sample."""
    query = PeriodicQuery(
        ActiveCounters(registry, ["/runtime/uptime"]),
        engine=engine,
        runtime=hpx4,
        interval_ns=us(10),
        in_band=False,
    )
    query.start()
    assert engine.pending_events == 1  # the armed tick
    query.stop()
    assert engine.pending_events == 0
    engine.run()
    assert query.samples == []


def test_periodic_query_stale_tick_dropped_after_stop(registry, hpx4, engine):
    """Regression for the stop race: a tick armed before stop() that
    still fires (e.g. it was already dispatched) must not record a
    sample or re-arm the chain."""
    query = PeriodicQuery(
        ActiveCounters(registry, ["/runtime/uptime"]),
        engine=engine,
        runtime=hpx4,
        interval_ns=us(10),
        in_band=False,
    )
    query.start()
    stale_epoch = query._epoch
    query.stop()
    query._tick(stale_epoch)  # the raced tick arriving late
    assert query.samples == []
    assert engine.pending_events == 0  # no re-armed chain


def test_periodic_query_stop_start_cycle_drops_old_epoch(registry, hpx4, engine):
    """A stop/start cycle bumps the sampling epoch: a tick from the old
    epoch is discarded even though the query is running again."""
    query = PeriodicQuery(
        ActiveCounters(registry, ["/runtime/uptime"]),
        engine=engine,
        runtime=hpx4,
        interval_ns=us(10),
        in_band=False,
    )
    query.start()
    old_epoch = query._epoch
    query.stop()
    query.start()
    assert query._epoch == old_epoch + 1
    query._tick(old_epoch)  # stale tick from the first chain
    assert query.samples == []  # dropped, not recorded
    assert query._running  # the new chain is unaffected
    query.stop()


def test_periodic_query_stop_while_in_band_query_in_flight(registry, hpx4, engine):
    """Regression for the ISSUE stop race: stop() lands between an
    in-band query task's submission and its completion.  The stale task
    must drop its sample and not re-arm, and the engine must drain."""
    query = PeriodicQuery(
        ActiveCounters(registry, ["/threads/count/cumulative"]),
        engine=engine,
        runtime=hpx4,
        interval_ns=us(10),
        in_band=True,
    )
    # Keep the app alive past the first tick so the tick submits a task.
    hpx4.submit(fib_body, 6)
    query.start()
    engine.run(until=us(10))  # the tick fires and submits the query task
    assert query.samples == []  # task not yet complete
    query.stop()  # races the in-flight query task
    engine.run()  # drain: the task completes against a stale epoch
    assert query.samples == []
    assert not query._running
    assert engine.pending_events == 0
    assert hpx4.instrument_ns == 0


def test_periodic_query_sink(registry, hpx4, engine):
    seen = []
    query = PeriodicQuery(
        ActiveCounters(registry, ["/runtime/uptime"]),
        engine=engine,
        runtime=hpx4,
        interval_ns=us(30),
        in_band=False,
        sink=seen.append,
    )
    query.start()
    hpx4.run_to_completion(fib_body, 12)
    assert seen == query.samples


def test_periodic_query_rejects_non_callable_sink(registry, hpx4, engine):
    """Satellite fix: a bad sink fails at construction, not mid-run."""
    ac = ActiveCounters(registry, ["/runtime/uptime"])
    with pytest.raises(TypeError, match="callable"):
        PeriodicQuery(ac, engine=engine, runtime=hpx4, interval_ns=us(10), sink=42)


def test_periodic_query_rejects_wrong_arity_sink(registry, hpx4, engine):
    ac = ActiveCounters(registry, ["/runtime/uptime"])

    def two_arg_sink(values, extra):
        pass

    with pytest.raises(TypeError, match="one positional argument"):
        PeriodicQuery(ac, engine=engine, runtime=hpx4, interval_ns=us(10), sink=two_arg_sink)

    def no_arg_sink():
        pass

    with pytest.raises(TypeError, match="one positional argument"):
        PeriodicQuery(ac, engine=engine, runtime=hpx4, interval_ns=us(10), sink=no_arg_sink)


def test_periodic_query_rejects_wrong_first_argument(registry, hpx4, engine):
    with pytest.raises(TypeError, match="ActiveCounters.*TelemetryPipeline"):
        PeriodicQuery(["/runtime/uptime"], engine=engine, runtime=hpx4, interval_ns=us(10))


def test_query_cost_comes_from_platform_spec(registry, engine):
    """The per-counter in-band query cost is platform-derived."""
    from repro.platform.presets import get_platform
    from repro.platform.spec import DEFAULT_COUNTER_QUERY_COST_NS
    from repro.runtime.scheduler import HpxRuntime
    from repro.simcore.events import Engine
    from repro.simcore.machine import Machine

    spec = get_platform("desktop-1x8")
    assert spec.counter_query_cost_ns != DEFAULT_COUNTER_QUERY_COST_NS
    fast_engine = Engine()
    fast_rt = HpxRuntime(fast_engine, Machine(spec), num_workers=2)
    ac = ActiveCounters(registry, ["/runtime/uptime"])
    query = PeriodicQuery(ac, engine=fast_engine, runtime=fast_rt, interval_ns=us(10))
    assert query.cost_per_counter_ns == spec.counter_query_cost_ns
    # An explicit override still wins.
    query = PeriodicQuery(
        ac, engine=fast_engine, runtime=fast_rt, interval_ns=us(10), cost_per_counter_ns=123
    )
    assert query.cost_per_counter_ns == 123


def test_query_cost_defaults_on_reference_node(registry, hpx4, engine):
    """ivybridge-2x10 (the paper's node) keeps the historical constant."""
    from repro.platform.spec import DEFAULT_COUNTER_QUERY_COST_NS

    ac = ActiveCounters(registry, ["/runtime/uptime"])
    query = PeriodicQuery(ac, engine=engine, runtime=hpx4, interval_ns=us(10))
    assert query.cost_per_counter_ns == DEFAULT_COUNTER_QUERY_COST_NS == 800


def test_periodic_query_drives_pipeline(registry, hpx4, engine):
    """A pipeline as the query target: samples land in frame + sinks."""
    from repro.telemetry.frame import TelemetryFrame
    from repro.telemetry.pipeline import TelemetryPipeline

    sink = TelemetryFrame()
    pipe = TelemetryPipeline(registry, ["/threads/count/cumulative"], sinks=(sink,))
    query = PeriodicQuery(pipe, engine=engine, runtime=hpx4, interval_ns=us(20), in_band=False)
    query.start()
    hpx4.run_to_completion(fib_body, 12)
    assert len(query.samples) > 1
    assert len(pipe.frame) == len(query.samples)  # one counter per sample
    assert len(sink) == len(pipe.frame)
    # The recorded values are the same objects the query collected.
    assert [s.value for s in pipe.frame] == [v[0].value for v in query.samples]
