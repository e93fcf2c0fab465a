"""The node builder: the one place a simulated node is constructed.

A node is a scheduler backend on a fresh :class:`Machine`; its counter
environment is derived from the backend.  Not re-exported from
:mod:`repro.exec`: the runtimes import that package.
"""

from __future__ import annotations

from typing import Any

from repro.counters.base import CounterEnvironment
from repro.kernel.scheduler import StdRuntime
from repro.papi.hw import PapiSubstrate
from repro.platform.spec import PlatformSpec
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

#: Runtime name -> scheduler backend class.
BACKENDS: dict[str, type[Any]] = {"hpx": HpxRuntime, "std": StdRuntime}


def build_backend(
    runtime: str | type[Any],
    engine: Any = None,
    *,
    cores: int,
    platform: PlatformSpec | str | None = None,
    **options: Any,
) -> Any:
    """A *runtime* backend with *cores* workers on a fresh ``Machine(platform)``.

    *runtime* is a name in :data:`BACKENDS` or a backend class (a
    subclass such as an instrumented runtime); *engine* defaults to a
    new :class:`Engine`; *options* go to the backend's constructor.
    """
    backend = BACKENDS[runtime] if isinstance(runtime, str) else runtime
    engine = Engine() if engine is None else engine
    return backend(engine, Machine(platform), num_workers=cores, **options)


def counter_environment(backend: Any, *, profiler: Any = None) -> CounterEnvironment:
    """Everything counters observe on *backend*'s node."""
    return CounterEnvironment(
        engine=backend.engine,
        runtime=backend,
        machine=backend.machine,
        papi=PapiSubstrate(backend.machine),
        profiler=profiler,
    )
