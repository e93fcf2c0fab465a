"""Task-DAG extraction and work/span analysis.

From a recorded trace, reconstruct the computation DAG — spawn edges
(parent → child, from ``create`` events) and join edges (producer →
waiter, from ``depend`` events) — and compute the classic work/span
numbers of task-parallel performance analysis:

- **work** `T1`: total task execution time;
- **span** `T∞`: the critical path — the longest dependency chain;
- **average parallelism** `T1/T∞`: the speedup ceiling no scheduler can
  beat (Brent's bound).

Task-level granularity is used (each node weighted by the task's total
busy time), which slightly over-approximates the span of tasks that
interleave spawning with computing — exact for fork/join trees whose
tasks compute before spawning or after joining.

This module is the *networkx oracle* for the profiler: the streaming
:mod:`repro.profiler.analysis` implementation (stdlib-only, usable at
runtime) must produce identical work/span numbers, and the profiler
and trace tests cross-check the two.  It lives with the tests because
networkx is a test-only dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.profiler.events import TaskEvent, TraceRecorder, event_sort_key


@dataclass(frozen=True)
class WorkSpan:
    """Work/span summary of one run's task DAG."""

    work_ns: int
    span_ns: int
    tasks: int
    edges: int

    @property
    def average_parallelism(self) -> float:
        return self.work_ns / self.span_ns if self.span_ns else 0.0


def _task_busy_ns(events: list[TaskEvent]) -> dict[int, int]:
    """Per-task busy time from activate->(suspend|terminate) intervals."""
    busy: dict[int, int] = {}
    active_since: dict[int, int] = {}
    for event in sorted(events, key=event_sort_key):
        if event.kind == "activate":
            active_since[event.tid] = event.time_ns
        elif event.kind in ("suspend", "terminate"):
            start = active_since.pop(event.tid, None)
            if start is not None:
                busy[event.tid] = busy.get(event.tid, 0) + event.time_ns - start
    return busy


def build_task_dag(trace: TraceRecorder | list[TaskEvent]) -> "nx.DiGraph":
    """The computation DAG in standard fork/join form.

    Each task contributes two nodes — ``(tid, "s")`` (its spawn phase,
    carrying the task's busy time) and ``(tid, "e")`` (its join phase,
    weight 0) — with an internal s→e edge.  Spawn edges run
    parent-start → child-start; join edges run producer-end →
    waiter-end.  This is the classic phase splitting that keeps
    fork/join dependencies acyclic at task granularity.
    """
    events = trace.events if isinstance(trace, TraceRecorder) else trace
    busy = _task_busy_ns(events)
    graph = nx.DiGraph()

    def ensure(tid: int) -> None:
        if (tid, "s") not in graph:
            graph.add_node((tid, "s"), busy_ns=busy.get(tid, 0), tid=tid)
            graph.add_node((tid, "e"), busy_ns=0, tid=tid)
            graph.add_edge((tid, "s"), (tid, "e"), kind="internal")

    for event in events:
        if event.kind == "create":
            ensure(event.tid)
            if event.related is not None:
                ensure(event.related)
                graph.add_edge((event.related, "s"), (event.tid, "s"), kind="spawn")
        elif event.kind == "depend" and event.related is not None:
            ensure(event.tid)
            ensure(event.related)
            graph.add_edge((event.related, "e"), (event.tid, "e"), kind="join")
    if not nx.is_directed_acyclic_graph(graph):
        raise ValueError("trace produced a cyclic dependency graph")
    return graph


def work_span(trace: TraceRecorder | list[TaskEvent]) -> WorkSpan:
    """Work, span and average parallelism of the recorded computation."""
    graph = build_task_dag(trace)
    work = sum(data["busy_ns"] for _n, data in graph.nodes(data=True))
    span = 0
    if graph.number_of_nodes():
        lengths: dict[tuple[int, str], int] = {}
        for node in nx.topological_sort(graph):
            own = graph.nodes[node]["busy_ns"]
            best_pred = max((lengths[p] for p in graph.predecessors(node)), default=0)
            lengths[node] = best_pred + own
        span = max(lengths.values())
    tasks = len({data["tid"] for _n, data in graph.nodes(data=True)})
    external_edges = sum(1 for *_e, data in graph.edges(data=True) if data["kind"] != "internal")
    return WorkSpan(work_ns=work, span_ns=span, tasks=tasks, edges=external_edges)
