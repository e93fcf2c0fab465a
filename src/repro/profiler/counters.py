"""The ``/profiler/...`` derived counters (provider ``builtin.profiler``).

Surfaces the causal profiler's state in the paper's own counter
grammar, so telemetry sinks, periodic queries, campaign artifacts and
``repro counters query`` consume profiling data exactly like any other
counter:

- ``/profiler{locality#0/total}/work-ns`` — cumulative busy time of
  all profiled task bodies (monotonic; ``@BODY`` restricts to one
  body, e.g. ``/profiler{locality#0/total}/work-ns@_fib_task``);
- ``/profiler{locality#0/total}/critical-path-ns`` — current span T∞
  of the task DAG built so far (``@BODY`` gives that body's on-path
  attribution);
- ``/profiler{locality#0/total}/work-span-ratio`` — T1/T∞, Brent's
  average parallelism;
- ``/profiler{locality#0/total}/logical-parallelism`` — instantaneous
  number of simultaneously busy task bodies.

Per-body addressing uses ``@parameters`` rather than instances because
instances are discovered before the run starts, when no body has
executed yet.  A parameterized counter reads 0 until its body appears.
The counters only exist when a :class:`~repro.profiler.builder.
ProfileBuilder` is attached to the run (``Session.run(profile=...)``);
the builder itself carries the per-event instrumentation charge, so
these derived counters add none.

``critical-path-ns`` and ``work-span-ratio`` re-analyse the DAG on
read (cached per trace event count) — cheap at query rates, not meant
for per-event sampling.
"""

from __future__ import annotations

from repro.counters.base import (
    CounterEnvironment,
    CounterInfo,
    MonotonicCounter,
    PerformanceCounter,
    RawCounter,
)
from repro.counters.names import CounterName
from repro.counters.registry import CounterTypeEntry
from repro.counters.types import CounterType

__all__ = ["counter_types"]


def _total_only(env: CounterEnvironment) -> list[tuple[str, int | None]]:
    return [("total", None)]


def _check_total(name: CounterName) -> None:
    if name.instance_name != "total":
        raise ValueError(
            f"unknown instance {name.instance_name!r} in {name}; "
            f"/profiler counters only exist on the total instance "
            f"(address bodies with @BODY parameters)"
        )


def counter_types(env: CounterEnvironment) -> list[CounterTypeEntry]:
    """The ``/profiler/...`` counter types."""

    def work_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        _check_total(name)
        profiler = env.require("profiler")
        body = name.parameters or ""
        if body:
            return MonotonicCounter(name, info, env, lambda: profiler.body_busy_ns(body))
        return MonotonicCounter(name, info, env, lambda: profiler.work_ns)

    def critical_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        _check_total(name)
        profiler = env.require("profiler")
        body = name.parameters or ""
        if body:

            def on_path() -> int:
                return dict(profiler.analysis().critical_body_ns).get(body, 0)

            return RawCounter(name, info, env, on_path)
        return RawCounter(name, info, env, lambda: profiler.analysis().span_ns)

    def ratio_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        _check_total(name)
        profiler = env.require("profiler")
        return RawCounter(name, info, env, lambda: profiler.analysis().average_parallelism)

    def parallelism_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        _check_total(name)
        profiler = env.require("profiler")
        return RawCounter(name, info, env, lambda: profiler.active_count)

    return [
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/profiler/work-ns",
                counter_type=CounterType.MONOTONICALLY_INCREASING,
                help_text="Cumulative profiled busy time T1 (@BODY for one task body)",
                unit="ns",
            ),
            factory=work_factory,
            instances=_total_only,
        ),
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/profiler/critical-path-ns",
                counter_type=CounterType.RAW,
                help_text="Span T∞ of the task DAG built so far "
                "(@BODY for that body's on-path busy time)",
                unit="ns",
            ),
            factory=critical_factory,
            instances=_total_only,
        ),
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/profiler/work-span-ratio",
                counter_type=CounterType.RAW,
                help_text="Average parallelism T1/T∞ (Brent's speedup ceiling)",
            ),
            factory=ratio_factory,
            instances=_total_only,
        ),
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/profiler/logical-parallelism",
                counter_type=CounterType.RAW,
                help_text="Instantaneous number of simultaneously busy task bodies",
            ),
            factory=parallelism_factory,
            instances=_total_only,
        ),
    ]
