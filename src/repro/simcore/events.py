"""Discrete-event engine.

Events fire in strict ``(time, sequence)`` order, where the sequence
number is the order of scheduling, so ties in time resolve
deterministically.  The campaign result cache and the ``repro compare``
gate rely on that: identical inputs give identical virtual timestamps
and counter values.

The queue is one binary heap (:mod:`heapq`) of entry lists
``[time, seq, fn, args, live]``; lists compare element-wise in C and
``seq`` is unique, so ordering never reaches ``fn``.  Cancelling marks
an entry dead in place and the run loop skips it when it is popped.
:meth:`Engine.schedule` / :meth:`Engine.schedule_at` return a
:class:`Timer`; :meth:`Engine.call_later` / :meth:`Engine.call_at` are
the fire-and-forget forms that allocate no handle.
"""

from __future__ import annotations

from gc import disable as _gc_disable, enable as _gc_enable, isenabled as _gc_isenabled
from heapq import heappop as _heappop, heappush as _heappush
from itertools import count
from typing import Any, Callable

Callback = Callable[..., Any]


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class Timer:
    """Handle to one scheduled callback: ``active`` / ``cancel()``."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def active(self) -> bool:
        """True until the callback fires or the timer is cancelled."""
        return self._entry[4]

    def cancel(self) -> None:
        """Mark the event dead so it is skipped; a no-op once inactive."""
        self._entry[4] = False


class Engine:
    """The simulation driver.

    ``now`` is the current simulated time in nanoseconds.  ``run()``
    drains the event queue until it is empty, a registered stop
    condition fires, or the configured event budget is exhausted
    (protection against runaway simulations).
    """

    def __init__(self, *, max_events: int = 200_000_000) -> None:
        self.now: int = 0
        self.events_processed: int = 0
        self.max_events = max_events
        self._heap: list[list] = []
        self._seq = count()
        self._stopped = False
        self._stop_reason: str | None = None

    def schedule(self, delay: int, callback: Callback, *args: Any) -> Timer:
        """Schedule ``callback(*args)`` *delay* ns from now; returns a :class:`Timer`."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        entry = [self.now + delay, next(self._seq), callback, args, True]
        _heappush(self._heap, entry)
        return Timer(entry)

    def schedule_at(self, time: int, callback: Callback, *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated *time* (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        entry = [time, next(self._seq), callback, args, True]
        _heappush(self._heap, entry)
        return Timer(entry)

    def call_later(self, delay: int, callback: Callback, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is allocated."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        _heappush(self._heap, [self.now + delay, next(self._seq), callback, args, True])

    def call_at(self, time: int, callback: Callback, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        _heappush(self._heap, [time, next(self._seq), callback, args, True])

    def stop(self, reason: str | None = None) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True
        self._stop_reason = reason

    @property
    def stop_reason(self) -> str | None:
        return self._stop_reason

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled, not yet fired) events."""
        return sum(1 for entry in self._heap if entry[4])

    def run(self, until: int | None = None) -> None:
        """Process events until the queue drains (or *until* is reached).

        The clock is left at the last processed event; it does not
        fast-forward to *until* when the queue drains early.
        """
        self._stopped = False
        self._stop_reason = None
        heap = self._heap
        max_events = self.max_events
        # The dispatch counter runs in a local and is flushed on exit
        # (nothing reads ``events_processed`` mid-run).
        processed = self.events_processed
        # Pause cyclic GC while the loop runs: a simulation allocates large
        # task/generator/future graphs and collection passes over them are
        # pure overhead (refcounting still frees everything acyclic).
        gc_was_enabled = _gc_isenabled()
        if gc_was_enabled:
            _gc_disable()
        try:
            while heap and not self._stopped:
                entry = _heappop(heap)
                if not entry[4]:
                    continue
                time = entry[0]
                if until is not None and time > until:
                    _heappush(heap, entry)  # same (time, seq): order is unchanged
                    break
                entry[4] = False
                self.now = time
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events) at t={time}ns"
                    )
                entry[2](*entry[3])
        finally:
            self.events_processed = processed
            if gc_was_enabled:
                _gc_enable()
