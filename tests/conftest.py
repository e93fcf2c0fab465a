"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.counters.base import CounterEnvironment
from repro.counters.providers import build_registry
from repro.experiments.config import ExperimentConfig
from repro.papi.hw import PapiSubstrate
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def machine() -> Machine:
    return Machine()


@pytest.fixture
def hpx4(engine: Engine, machine: Machine) -> HpxRuntime:
    """A 4-worker HPX runtime on the default machine."""
    return HpxRuntime(engine, machine, num_workers=4)


@pytest.fixture
def counter_env(engine: Engine, machine: Machine, hpx4: HpxRuntime) -> CounterEnvironment:
    return CounterEnvironment(
        engine=engine, runtime=hpx4, machine=machine, papi=PapiSubstrate(machine)
    )


@pytest.fixture
def registry(counter_env: CounterEnvironment):
    return build_registry(counter_env)


@pytest.fixture
def tiny_config() -> ExperimentConfig:
    """One sample, few cores: fast experiment configuration for tests."""
    return ExperimentConfig(samples=1, core_counts=(1, 2, 4))


def fib_body(ctx, n: int):
    """Tiny shared benchmark body used across runtime tests."""
    if n < 2:
        yield ctx.compute(500)
        return n
    fa = yield ctx.async_(fib_body, n - 1)
    fb = yield ctx.async_(fib_body, n - 2)
    a = yield ctx.wait(fa)
    b = yield ctx.wait(fb)
    yield ctx.compute(700, membytes=128)
    return a + b
