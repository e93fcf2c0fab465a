"""Periodic counter querying — the in-band sampling driver.

Reproduces ``--hpx:print-counter <name> --hpx:print-counter-interval
<ms>``: the named counters are sampled on a fixed simulated interval.
Since the telemetry refactor this class is a thin *cadence driver*: it
owns only the timer chain and the in-band query task; evaluation,
record conversion, buffering and export belong to the
:class:`~repro.telemetry.pipeline.TelemetryPipeline` it drives.

Queries can run *in-band*: each sample executes as an HPX task that
consumes scheduler time proportional to the number of counters queried,
perturbing the application exactly like a real self-monitoring run.
The per-counter cost is a property of the node
(:attr:`repro.platform.spec.PlatformSpec.counter_query_cost_ns`), so
counter-overhead experiments scale with the platform being simulated.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

from repro.counters.manager import ActiveCounters
from repro.counters.types import CounterValue
from repro.platform.spec import DEFAULT_COUNTER_QUERY_COST_NS

Sink = Callable[[list[CounterValue]], None]


def _validate_sink(sink: Any) -> Sink | None:
    """Check *sink* is callable with one positional argument.

    Raises a clear ``TypeError`` at construction instead of a confusing
    failure at the first sample, long into a simulated run.
    """
    if sink is None:
        return None
    if not callable(sink):
        raise TypeError(
            f"sink must be callable with one argument (the list of CounterValue "
            f"rows), got {type(sink).__name__}: {sink!r}"
        )
    try:
        signature = inspect.signature(sink)
    except (TypeError, ValueError):  # C callables without introspection
        return sink
    try:
        signature.bind([])
    except TypeError:
        raise TypeError(
            f"sink {sink!r} must accept one positional argument "
            "(the list of CounterValue rows); its signature is "
            f"{signature}"
        ) from None
    return sink


class PeriodicQuery:
    """Sample a counter set every *interval_ns*.

    The first argument is either an :class:`ActiveCounters` set (the
    historical form) or a
    :class:`~repro.telemetry.pipeline.TelemetryPipeline`, in which case
    every sample is recorded through the pipeline (frame + sinks) as
    well as kept on :attr:`samples`.

    With ``in_band=True`` (default) each sample is executed as a task on
    the runtime; with ``in_band=False`` sampling is free (an external
    observer).  The query stops itself when the application quiesces
    (no live tasks) so the event queue can drain.
    """

    def __init__(
        self,
        active: Any,
        *,
        engine: Any,
        runtime: Any = None,
        interval_ns: int,
        sink: Sink | None = None,
        in_band: bool = True,
        reset_each_sample: bool = False,
        cost_per_counter_ns: int | None = None,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        # A TelemetryPipeline exposes the resolved counter set plus
        # sample recording; a bare ActiveCounters is driven directly.
        if isinstance(active, ActiveCounters):
            self.pipeline = None
            self.active = active
        elif hasattr(active, "sample") and isinstance(
            getattr(active, "active", None), ActiveCounters
        ):
            self.pipeline = active
            self.active = active.active
        else:
            raise TypeError(
                "PeriodicQuery needs an ActiveCounters set or a TelemetryPipeline, "
                f"got {type(active).__name__}"
            )
        self.engine = engine
        self.runtime = runtime
        self.interval_ns = interval_ns
        self.samples: list[list[CounterValue]] = []
        self.sink = _validate_sink(sink)
        self.in_band = in_band
        self.reset_each_sample = reset_each_sample
        if cost_per_counter_ns is None:
            # The per-counter query cost is platform-derived: faster
            # single-thread nodes walk the counter API proportionally
            # faster (DEFAULT on the paper's Table III node).
            platform = getattr(getattr(runtime, "machine", None), "platform", None)
            cost_per_counter_ns = getattr(
                platform, "counter_query_cost_ns", DEFAULT_COUNTER_QUERY_COST_NS
            )
        if cost_per_counter_ns < 1:
            raise ValueError("cost_per_counter_ns must be >= 1")
        self.cost_per_counter_ns = cost_per_counter_ns
        self._running = False
        # Sampling epoch: bumped on every start().  Ticks and in-band
        # query tasks carry the epoch they were armed under, so a tick
        # that raced with stop() (or a stop/start cycle) is discarded
        # instead of re-arming a second sampling chain.
        self._epoch = 0
        self._timer: Any = None  # Timer handle of the armed tick
        if in_band and runtime is None:
            raise ValueError("in-band queries need a runtime")

    # -- control ------------------------------------------------------------

    def start(self) -> None:
        """Begin sampling (first sample after one interval)."""
        if self._running:
            return
        self._running = True
        self._epoch += 1
        self.active.start()
        self._timer = self.engine.schedule(self.interval_ns, self._tick, self._epoch)

    def stop(self) -> None:
        """Stop sampling.  Idempotent: a second stop (or a stale in-band
        query finishing after an explicit stop) is a no-op, so counter
        instrumentation is only unregistered once."""
        if not self._running:
            return
        self._running = False
        timer, self._timer = self._timer, None
        if timer is not None and timer.active:
            timer.cancel()
        self.active.stop()

    # -- internals -----------------------------------------------------------

    def _app_live(self) -> bool:
        return self.runtime is None or self.runtime.stats.live_tasks > 0

    def _arm(self) -> None:
        self._timer = self.engine.schedule(self.interval_ns, self._tick, self._epoch)

    def _tick(self, epoch: int) -> None:
        self._timer = None
        if not self._running or epoch != self._epoch:
            return  # stale tick: stop() raced with this event
        if not self._app_live():
            self.stop()
            return
        if self.in_band:
            self.runtime.submit(self._query_task, epoch)
        else:
            self._record()
            self._arm()

    def _query_task(self, ctx: Any, epoch: int) -> Any:
        """The in-band query: an HPX task costing time per counter."""
        cost = self.cost_per_counter_ns * len(self.active)
        yield ctx.compute(cost)
        if not self._running or epoch != self._epoch:
            return None  # stopped while the query task was in flight
        self._record()
        if self._app_live():
            self._arm()
        else:
            self.stop()
        return None

    def _record(self) -> None:
        if self.pipeline is not None:
            values = self.pipeline.sample(reset=self.reset_each_sample)
        else:
            values = self.active.evaluate_active_counters(reset=self.reset_each_sample)
        self.samples.append(values)
        if self.sink is not None:
            self.sink(values)
