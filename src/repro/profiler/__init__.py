"""Causal profiling on the ProbeBus (the TASKPROF direction).

The paper's counters answer *how efficiently did the run execute*; this
package answers *where the parallelism went*.  It is a streaming
profiling subsystem in the style of Yoga & Nagarakatte's TASKPROF
("A Fast Causal Profiler for Task Parallel Programs"):

- :class:`ProfileBuilder` subscribes to the ProbeBus trace hook and
  incrementally maintains the task DAG, per-body busy aggregates and a
  time-resolved parallelism profile while the run executes;
- :mod:`repro.profiler.analysis` extracts work/span, the critical path
  (with per-body attribution) and logical parallelism from the builder
  state, with no dependency beyond the standard library;
- :mod:`repro.profiler.whatif` implements causal what-if experiments —
  "speed up task body X by N%" — predicted from the DAG via Brent's
  bound and validated by rewriting work costs and replaying the run
  through the exact DES engine;
- :mod:`repro.profiler.counters` surfaces the results in the paper's
  counter grammar (``/profiler{locality#0/total}/critical-path-ns``
  etc.) so telemetry sinks, campaigns and ``repro counters query`` get
  them for free;
- :class:`RunProfile` is the post-run report attached to
  :attr:`repro.experiments.runner.RunResult.profile` and rendered by
  ``repro profile``;
- :class:`TraceRecorder` and :func:`build_profile` are the post-mortem
  half: record every task event, aggregate a gprof-style flat profile
  after the run (:mod:`repro.trace` exports the stream as a Chrome
  trace).
"""

from repro.profiler.analysis import CriticalStep, DagAnalysis, ParallelismPoint
from repro.profiler.builder import ProfileBuilder, ProfileConfig
from repro.profiler.events import EVENT_KINDS, TRACE_EVENT_NS, TaskEvent, TraceRecorder
from repro.profiler.report import FunctionProfile, RunProfile, build_profile, render_profile
from repro.profiler.whatif import WhatIfResult, WhatIfSpec, parse_what_if

__all__ = [
    "CriticalStep",
    "DagAnalysis",
    "EVENT_KINDS",
    "FunctionProfile",
    "ParallelismPoint",
    "ProfileBuilder",
    "ProfileConfig",
    "RunProfile",
    "TRACE_EVENT_NS",
    "TaskEvent",
    "TraceRecorder",
    "WhatIfResult",
    "WhatIfSpec",
    "build_profile",
    "parse_what_if",
    "render_profile",
]
