"""The streaming profile builder: trace hook in, task DAG out.

:class:`ProfileBuilder` subscribes to the runtime's ProbeBus trace hook
(composing with any other subscriber, e.g. a plain
:class:`~repro.profiler.events.TraceRecorder`) and maintains — while
the run executes — everything the analysis layer needs:

- the task DAG structure (spawn edges from ``create`` events, join
  edges from ``depend`` events), mirroring the node/edge universe of
  the networkx oracle in the test suite exactly;
- per-task and per-body busy aggregates through the shared
  busy-interval accumulator (one aggregation path with the flat
  profile);
- the ±1 interval deltas behind the time-resolved parallelism profile;
- optionally the raw event list (``keep_events=True``) for
  Chrome-trace export.

Like tracing, profiling perturbs: attaching charges
:data:`~repro.profiler.events.TRACE_EVENT_NS` per event to the
runtime, so a profiled run is *not* bit-identical to an unprofiled one
— what-if replays therefore profile too, keeping baseline and replay
under identical instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.profiler.analysis import (
    DagAnalysis,
    ParallelismPoint,
    analyze_dag,
    parallelism_points,
)
from repro.profiler.events import TRACE_EVENT_NS, TaskEvent
from repro.profiler.report import (
    ParallelismSummary,
    RunProfile,
    _FlatAccumulator,
)
from repro.profiler.whatif import WhatIfResult, WhatIfSpec


@dataclass(frozen=True)
class ProfileConfig:
    """How :meth:`repro.api.Session.run` should profile a run.

    ``profile=True`` is shorthand for the defaults; ``what_if`` lists
    causal experiments to replay after the profiled run; and
    ``keep_events`` retains the raw event stream on the resulting
    :class:`~repro.profiler.report.RunProfile` (needed for Chrome-trace
    export, costs memory proportional to the event count).
    """

    what_if: tuple[WhatIfSpec, ...] = ()
    keep_events: bool = False

    @classmethod
    def coerce(cls, value: "ProfileConfig | bool | None") -> "ProfileConfig | None":
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        return value


class ProfileBuilder:
    """Incremental task-DAG and profile state for one run."""

    def __init__(self, runtime: Any, *, keep_events: bool = False) -> None:
        self.runtime = runtime
        self._acc = _FlatAccumulator()
        self._dag_tids: set[int] = set()
        self._spawns: set[tuple[int, int]] = set()
        self._joins: set[tuple[int, int]] = set()
        self._descriptions: dict[int, str] = {}
        self._events: list[TaskEvent] | None = [] if keep_events else None
        self._event_count = 0
        self._attached = False
        self._analysis_cache: tuple[int, DagAnalysis] | None = None

    # -- life cycle ------------------------------------------------------

    def attach(self) -> None:
        """Subscribe to the trace hook and start charging the event cost."""
        if self._attached:
            return
        self._attached = True
        self.runtime.probes.subscribe_trace(self._on_event)
        self.runtime.add_instrumentation(TRACE_EVENT_NS)

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        self.runtime.probes.unsubscribe_trace(self._on_event)
        self.runtime.add_instrumentation(-TRACE_EVENT_NS)

    def __enter__(self) -> "ProfileBuilder":
        self.attach()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # -- the trace hook --------------------------------------------------

    def _on_event(self, time_ns: int, kind: str, task: Any, aux: int | None) -> None:
        tid = task.tid
        self._event_count += 1
        if kind == "create":
            self._descriptions[tid] = task.description
            self._dag_tids.add(tid)
            parent = task.parent_tid
            if parent is not None:
                self._dag_tids.add(parent)
                self._spawns.add((parent, tid))
        elif kind == "depend":
            # aux is the producer tid for join edges.
            self._descriptions.setdefault(tid, task.description)
            if aux is not None:
                self._dag_tids.add(tid)
                self._dag_tids.add(aux)
                self._joins.add((aux, tid))
        else:
            self._descriptions.setdefault(tid, task.description)
        self._acc.feed(time_ns, kind, tid, task.description)
        if self._events is not None:
            if kind == "depend":
                worker: int | None = None
                related: int | None = aux
            elif kind == "create":
                worker, related = aux, task.parent_tid
            else:
                worker, related = aux, None
            self._events.append(
                TaskEvent(
                    time_ns=time_ns,
                    kind=kind,
                    tid=tid,
                    description=task.description,
                    worker=worker,
                    related=related,
                )
            )

    # -- live views (the /profiler counters read these) ------------------

    @property
    def event_count(self) -> int:
        return self._event_count

    @property
    def work_ns(self) -> int:
        """Total busy time closed so far, across all profiled tasks."""
        return self._acc.total_busy_ns

    @property
    def active_count(self) -> int:
        """Task bodies busy right now — instantaneous logical parallelism."""
        return self._acc.active_count

    def body_busy_ns(self, body: str) -> int:
        profile = self._acc.profiles.get(body)
        return profile.busy_ns if profile is not None else 0

    def body_names(self) -> tuple[str, ...]:
        return tuple(self._acc.profiles)

    # -- analysis --------------------------------------------------------

    def analysis(self) -> DagAnalysis:
        """Work/span/critical-path of the DAG built so far (cached)."""
        cached = self._analysis_cache
        if cached is not None and cached[0] == self._event_count:
            return cached[1]
        result = self._analyze(scale=None)
        self._analysis_cache = (self._event_count, result)
        return result

    def scaled_analysis(self, body: str, factor: float) -> DagAnalysis:
        """The DAG re-analysed with *body* weights scaled (what-if)."""
        return self._analyze(scale=(body, factor))

    def _analyze(self, *, scale: tuple[str, float] | None) -> DagAnalysis:
        return analyze_dag(
            tids=self._dag_tids,
            busy=self._acc.task_busy,
            description=self._descriptions,
            spawns=self._spawns,
            joins=self._joins,
            scale=scale,
        )

    def parallelism(self) -> tuple[ParallelismPoint, ...]:
        return parallelism_points(self._acc.deltas)

    # -- the report ------------------------------------------------------

    def finalize(
        self,
        *,
        workload: str,
        runtime: str,
        cores: int,
        makespan_ns: int,
        what_if: tuple[WhatIfResult, ...] = (),
    ) -> RunProfile:
        """Freeze the builder state into the post-run report."""
        analysis = self.analysis()
        points = self.parallelism()
        mean = self._acc.total_busy_ns / makespan_ns if makespan_ns else 0.0
        peak = max((p.active for p in points), default=0)
        flat = tuple(
            sorted(self._acc.profiles.values(), key=lambda p: (-p.busy_ns, p.name))
        )
        return RunProfile(
            workload=workload,
            runtime=runtime,
            cores=cores,
            makespan_ns=makespan_ns,
            work_ns=analysis.work_ns,
            span_ns=analysis.span_ns,
            tasks=analysis.tasks,
            edges=analysis.edges,
            flat=flat,
            critical_path=analysis.critical_path,
            critical_body_ns=analysis.critical_body_ns,
            parallelism=ParallelismSummary(mean=mean, peak=peak, points=points),
            what_if=what_if,
            trace_events=self._event_count,
            events=tuple(self._events) if self._events is not None else None,
        )
