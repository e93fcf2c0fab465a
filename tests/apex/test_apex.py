"""APEX-style policy engine and throttling."""

import pytest

from repro.apex.policy import PolicyDecision, PolicyEngine, PolicyRule
from repro.apex.throttle import IDLE_RATE_COUNTER, ConcurrencyThrottlePolicy
from repro.simcore.clock import us

from tests.conftest import fib_body


def make_engine(registry, hpx4, engine, rules=(), period=us(50)):
    return PolicyEngine(
        engine=engine,
        runtime=hpx4,
        registry=registry,
        counter_specs=["/threads/idle-rate", "/threads/count/cumulative"],
        period_ns=period,
        rules=rules,
    )


def test_engine_samples_periodically(registry, hpx4, engine):
    pe = make_engine(registry, hpx4, engine)
    pe.start()
    hpx4.run_to_completion(fib_body, 12)
    assert len(pe.samples) >= 2
    for sample in pe.samples:
        assert IDLE_RATE_COUNTER in sample


def test_engine_stops_at_quiescence(registry, hpx4, engine):
    pe = make_engine(registry, hpx4, engine)
    pe.start()
    hpx4.run_to_completion(fib_body, 10)
    engine.run()
    assert not pe._running
    assert engine.pending_events == 0


def test_rules_fire_and_are_recorded(registry, hpx4, engine):
    def always(sample, now):
        return PolicyDecision(action="noop", value=now)

    pe = make_engine(registry, hpx4, engine, rules=[PolicyRule("always", always)])
    pe.start()
    hpx4.run_to_completion(fib_body, 12)
    assert len(pe.history) == len(pe.samples)
    assert all(d.rule == "always" for d in pe.history)


def test_rules_returning_none_record_nothing(registry, hpx4, engine):
    pe = make_engine(registry, hpx4, engine, rules=[PolicyRule("quiet", lambda s, t: None)])
    pe.start()
    hpx4.run_to_completion(fib_body, 12)
    assert pe.history == []


def test_invalid_period_rejected(registry, hpx4, engine):
    with pytest.raises(ValueError):
        make_engine(registry, hpx4, engine, period=0)


def test_throttle_parks_idle_workers(engine, machine):
    """A serial chain on many workers: the throttle sheds them."""
    from repro.runtime.scheduler import HpxRuntime

    rt = HpxRuntime(engine, machine, num_workers=8)

    def serial_chain(ctx, k):
        if k == 0:
            return 0
        yield ctx.compute(20_000)
        fut = yield ctx.async_(serial_chain, k - 1)
        value = yield ctx.wait(fut)
        return value + 1

    # The fixture registry is bound to hpx4; build one against rt.
    from repro.counters.base import CounterEnvironment
    from repro.counters.providers import build_registry

    env = CounterEnvironment(engine=engine, runtime=rt, machine=machine)
    pe = PolicyEngine(
        engine=engine,
        runtime=rt,
        registry=build_registry(env),
        counter_specs=[IDLE_RATE_COUNTER],
        period_ns=us(100),
        rules=[ConcurrencyThrottlePolicy(runtime=rt, upper_idle=3000).rule()],
    )
    pe.start()
    value = rt.run_to_completion(serial_chain, 100)
    assert value == 100
    parked = [d for d in pe.history if d.decision.action == "park-worker"]
    assert parked  # idle workers were shed
    assert rt.active_workers < 8


def test_throttle_requires_idle_rate_counter(registry, hpx4, engine):
    policy = ConcurrencyThrottlePolicy(runtime=hpx4)
    with pytest.raises(KeyError, match="idle-rate"):
        policy.rule().fn({}, 0)


def test_throttle_unparks_under_load(registry, hpx4, engine):
    hpx4.set_active_workers(1)
    policy = ConcurrencyThrottlePolicy(runtime=hpx4, lower_idle=10_001)  # always grow
    decision = policy.rule().fn({IDLE_RATE_COUNTER: 0.0}, 0)
    assert decision is not None and decision.action == "unpark-worker"
    assert hpx4.active_workers == 2
