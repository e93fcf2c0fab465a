"""The traced pass's instrumentation plan and the per-layer metrics derived from it.

Everything here wraps public entry points of ``repro`` from the outside,
for the duration of one :func:`instrumented` block, and restores them
after.  Layers are named after the package that owns the code:

- ``simcore``: the event engine (scheduling calls and cancels are counted);
- ``exec``: ``EffectInterpreter.step``;
- ``runtime`` / ``kernel``: the ``SchedulerBackend`` methods of ``HpxRuntime``
  and ``StdRuntime``, plus every engine callback those modules own;
- ``platform``: ``ResourceModel.segment_begin`` / ``segment_end``;
- ``probes``: every delivery to the trace hooks subscribed on a ``ProbeBus``;
- ``telemetry``: ``TelemetryPipeline.sample`` / ``record``;
- ``profiler``: ``ProfileBuilder.finalize``;
- ``counters``: ``build_registry`` as ``Session.run`` calls it;
- ``campaign``: ``run_result_to_dict`` as ``execute_cell`` calls it (the
  serve replay times its own calls into the campaign layer directly).

Engine callbacks are wrapped at scheduling time so that each dispatched
event becomes a span named after the module that defines the callback; the
part of ``Session.run`` no span covers is the engine's own run loop.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from perfbench.spans import Patcher, Tracer

#: SchedulerBackend methods the interpreter and the run path call.
BACKEND_METHODS = (
    "submit",
    "begin_step",
    "complete",
    "fail",
    "do_compute",
    "do_spawn",
    "do_await",
    "do_await_all",
    "do_lock",
    "do_unlock",
    "do_yield",
    "population_begin",
    "population_end",
)

#: Module prefix -> layer, longest prefix first.
MODULE_LAYERS = (
    ("repro.exec.probes", "probes"),
    ("repro.simcore.machine", "platform"),
    ("repro.simcore", "simcore"),
    ("repro.exec", "exec"),
    ("repro.runtime", "runtime"),
    ("repro.kernel", "kernel"),
    ("repro.platform", "platform"),
    ("repro.counters", "counters"),
    ("repro.telemetry", "telemetry"),
    ("repro.profiler", "profiler"),
    ("repro.campaign", "campaign"),
    ("repro.api", "session"),
)


def layer_of(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "model"


@dataclass
class LayerCounts:
    """Counts taken at the same boundaries as the spans."""

    scheduled: int = 0
    cancels: int = 0
    sample_rows: int = 0
    worker_probes: list[Any] = field(default_factory=list)


def _invoke(callback: Any, *args: Any) -> Any:
    return callback(*args)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[LayerCounts]:
    """Wrap every layer boundary for the length of the block; restores all on exit."""
    import repro.api
    import repro.campaign.engine
    from repro.exec.interp import EffectInterpreter
    from repro.exec.probes import ProbeBus
    from repro.kernel.scheduler import StdRuntime
    from repro.platform.resource import ResourceModel
    from repro.profiler.builder import ProfileBuilder
    from repro.runtime.scheduler import HpxRuntime
    from repro.simcore.events import Engine, Timer
    from repro.telemetry.pipeline import TelemetryPipeline

    counts = LayerCounts()
    trampolines: dict[Any, Any] = {}  # callback code object -> its traced trampoline

    def span(owner: Any, attr: str, name: str) -> None:
        patcher.wrap(owner, attr, lambda fn: tracer.wrap(name, fn))

    def dispatching(fn: Any) -> Any:
        # Engine.call_later(delay, callback, *args) and friends.
        def scheduled(engine: Any, when: int, callback: Any, *args: Any) -> Any:
            counts.scheduled += 1
            func = getattr(callback, "__func__", callback)
            if hasattr(func, "perfbench_span"):  # already timed where it is defined
                return fn(engine, when, callback, *args)
            key = getattr(func, "__code__", func)
            trampoline = trampolines.get(key)
            if trampoline is None:
                module = getattr(func, "__module__", None) or ""
                name = f"{layer_of(module)}.{getattr(func, '__name__', 'callback')}"
                trampoline = trampolines[key] = tracer.wrap(name, _invoke)
            return fn(engine, when, trampoline, callback, *args)

        return scheduled

    def counting_cancel(fn: Any) -> Any:
        def cancel(timer: Any) -> None:
            counts.cancels += 1
            fn(timer)

        return cancel

    def counting_rows(fn: Any) -> Any:
        def record(pipeline: Any, values: Any) -> Any:
            batch = fn(pipeline, values)
            counts.sample_rows += len(batch)
            return batch

        return record

    def capturing(fn: Any) -> Any:
        def submit(runtime: Any, *args: Any) -> Any:
            counts.worker_probes.extend(runtime.probes.workers)
            return fn(runtime, *args)

        return submit

    def traced_hooks(fn: Any) -> Any:
        # Every (un)subscribe recomposes ProbeBus.trace; time what it composed.
        def rewire(bus: Any, hook: Any) -> None:
            fn(bus, hook)
            if bus.trace is not None:
                bus.trace = tracer.wrap("probes.emit", bus.trace)

        return rewire

    with Patcher() as patcher:
        span(repro.api.Session, "run", "session.run")
        span(repro.api, "build_registry", "counters.build_registry")
        span(repro.campaign.engine, "run_result_to_dict", "campaign.result_to_dict")
        span(EffectInterpreter, "step", "exec.step")
        for runtime, layer in ((HpxRuntime, "runtime"), (StdRuntime, "kernel")):
            for method in BACKEND_METHODS:
                span(runtime, method, f"{layer}.{method}")
            patcher.wrap(runtime, "submit", capturing)
        span(ResourceModel, "segment_begin", "platform.segment_begin")
        span(ResourceModel, "segment_end", "platform.segment_end")
        span(TelemetryPipeline, "sample", "telemetry.sample")
        span(TelemetryPipeline, "record", "telemetry.record")
        patcher.wrap(TelemetryPipeline, "record", counting_rows)
        span(ProfileBuilder, "finalize", "profiler.finalize")
        patcher.wrap(ProbeBus, "subscribe_trace", traced_hooks)
        patcher.wrap(ProbeBus, "unsubscribe_trace", traced_hooks)
        for method in ("call_later", "call_at", "schedule", "schedule_at"):
            patcher.wrap(Engine, method, dispatching)
        patcher.wrap(Timer, "cancel", counting_cancel)
        yield counts


@contextmanager
def recorded_engines() -> Iterator[list[Any]]:
    """Sessions built in the block record their event streams; yields the engines in build order."""
    import repro.api
    from repro.simcore.record import RecordingEngine

    engines: list[Any] = []

    def recording() -> Any:
        engines.append(RecordingEngine())
        return engines[-1]

    with Patcher() as patcher:
        patcher.wrap(repro.api, "Engine", lambda _: recording)
        yield engines


@dataclass
class RunTotals:
    """What the traced runs produced, summed over the pass."""

    runs: int = 0
    tasks: int = 0
    hpx_tasks: int = 0
    std_tasks: int = 0
    replay_ns: int = 0
    replay_events: int = 0
    untraced_ns: int = 0
    traced_ns: int = 0

    def add_run(self, result: dict[str, Any], runtime: str) -> None:
        """Count one traced run, given in its persisted form.

        Only exact-mode runs count towards the per-task denominators:
        a cohort run stands for millions of tasks with a handful of events.
        """
        self.runs += 1
        if result["mode"] != "exact":
            return
        self.tasks += result["tasks_executed"]
        if runtime == "hpx":
            self.hpx_tasks += result["tasks_executed"]
        else:
            self.std_tasks += result["tasks_executed"]


    def replay(self, engine: Any, result: dict[str, Any]) -> str | None:
        """L0: replay a recorded stream through a bare engine; a mismatch message, or None.

        An aborted run leaves events queued that the replay still fires,
        so only completed runs must end where the run ended.
        """
        from repro.simcore.events import Engine
        from repro.simcore.record import replay_stream

        start = time.perf_counter_ns()
        _, now, events = replay_stream(engine.groups, engine.delays, Engine)
        self.replay_ns += time.perf_counter_ns() - start
        self.replay_events += events
        ran = (result["exec_time_ns"], result["engine_events"])
        if not result["aborted"] and (now, events) != ran:
            return f"L0 replay ended at (now, events) = {(now, events)}, the run at {ran}"
        return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    summary: dict[str, dict[str, int]], counts: LayerCounts, totals: RunTotals
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, named ``<layer>.<metric>``."""

    def rows(prefix: str) -> list[dict[str, int]]:
        return [row for name, row in summary.items() if name.startswith(prefix)]

    def self_ns(prefix: str) -> int:
        return sum(row["self_ns"] for row in rows(prefix))

    def total_ns(name: str) -> int:
        return summary.get(name, {}).get("total_ns", 0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("count", 0)

    steps = calls("exec.step")
    segments = calls("platform.segment_begin")
    emits = calls("probes.emit")
    samples = calls("telemetry.sample")
    attempted = ok = 0
    for probe in counts.worker_probes:
        attempted += probe.steals_attempted
        ok += probe.steals_ok
    return {
        "simcore.replay_ns_per_event": (_ratio(totals.replay_ns, totals.replay_events), "ns/event"),
        "simcore.core_share": (_ratio(totals.replay_ns, totals.untraced_ns), "ratio"),
        "simcore.events_per_task": (_ratio(counts.scheduled, totals.tasks), "events/task"),
        "simcore.cancels_per_event": (_ratio(counts.cancels, counts.scheduled), "cancels/event"),
        "exec.step_self_ns": (_ratio(self_ns("exec.step"), steps), "ns"),
        "exec.steps_per_task": (_ratio(steps, totals.tasks), "steps/task"),
        "runtime.self_ns_per_task": (_ratio(self_ns("runtime."), totals.hpx_tasks), "ns/task"),
        "runtime.steal_success_ratio": (_ratio(ok, attempted), "ratio"),
        "runtime.steals_attempted": (float(attempted), "count"),
        "kernel.self_ns_per_task": (_ratio(self_ns("kernel."), totals.std_tasks), "ns/task"),
        "platform.self_ns_per_segment": (_ratio(self_ns("platform."), segments), "ns/segment"),
        "platform.segments_per_task": (_ratio(segments, totals.tasks), "segments/task"),
        "probes.emit_ns": (_ratio(total_ns("probes.emit"), emits), "ns"),
        "probes.emits_per_task": (_ratio(emits, totals.tasks), "emits/task"),
        "telemetry.sample_self_ns": (_ratio(self_ns("telemetry."), samples), "ns"),
        "telemetry.samples_per_run": (_ratio(counts.sample_rows, totals.runs), "samples/run"),
        "profiler.finalize_ms": (
            _ratio(total_ns("profiler.finalize"), calls("profiler.finalize")) / 1e6,
            "ms",
        ),
        "counters.registry_build_ms": (
            _ratio(total_ns("counters.build_registry"), calls("counters.build_registry")) / 1e6,
            "ms",
        ),
        "trace.overhead_ratio": (_ratio(totals.traced_ns, totals.untraced_ns), "ratio"),
    }


#: Layer metrics only the serve workload exercises; the in-process workloads report 0.
SERVE_LAYER_UNITS = {
    "campaign.execute_cell_ms": "ms",
    "campaign.cache_load_ms": "ms",
    "campaign.cache_store_ms": "ms",
    "campaign.result_to_dict_ms": "ms",
    "serve.admit_ms_p50": "ms",
    "serve.run_ms_p50": "ms",
    "serve.wait_ms_p50": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_lookups": "count",
    "serve.rejected_429": "count",
    "serve.requests": "count",
}


def idle_metrics() -> dict[str, tuple[float, str]]:
    return {name: (0.0, unit) for name, unit in SERVE_LAYER_UNITS.items()}
