"""Work/span, critical-path and parallelism analysis of the task DAG.

Pure-stdlib implementation of the classic fork/join analysis (the
test suite cross-checks it against a networkx oracle): each task contributes an ``s`` (spawn-phase)
node carrying its busy time and a zero-weight ``e`` (join-phase) node,
spawn edges run parent-s → child-s, join edges producer-e → waiter-e.
On that DAG:

- **work** ``T1`` is the total task busy time;
- **span** ``T∞`` is the longest weighted path — the critical path;
- **average parallelism** ``T1/T∞`` is Brent's speedup ceiling.

Task-level granularity slightly over-approximates the span of tasks
that interleave spawning with computing (exact for fork/join trees that
compute before spawning or after joining) — see ``docs/profiler.md``.

All tie-breaks are deterministic: the critical path prefers the
predecessor with the smallest node id among equals, and the path end is
the smallest node id among maxima, so equal traces always analyse to
the identical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence


@dataclass(frozen=True)
class CriticalStep:
    """One task on the critical path, with its contributed busy time."""

    tid: int
    description: str
    busy_ns: int


@dataclass(frozen=True)
class ParallelismPoint:
    """One change point of the time-resolved parallelism profile."""

    time_ns: int
    active: int


@dataclass(frozen=True)
class DagAnalysis:
    """Work/span summary plus the extracted critical path."""

    work_ns: int
    span_ns: int
    tasks: int
    edges: int
    critical_path: tuple[CriticalStep, ...]
    #: Per-body attribution of the critical path, busiest first.
    critical_body_ns: tuple[tuple[str, int], ...]

    @property
    def average_parallelism(self) -> float:
        return self.work_ns / self.span_ns if self.span_ns else 0.0

    @property
    def critical_busy_ns(self) -> int:
        return sum(step.busy_ns for step in self.critical_path)


def analyze_dag(
    *,
    tids: Collection[int],
    busy: Mapping[int, int],
    description: Mapping[int, str],
    spawns: Collection[tuple[int, int]],
    joins: Collection[tuple[int, int]],
    scale: tuple[str, float] | None = None,
) -> DagAnalysis:
    """Analyse the phase-split task DAG.

    ``scale=(body, factor)`` re-weights every task of that body by
    *factor* before the longest-path computation — the virtual-speedup
    half of a what-if experiment.  ``factor=1.0`` reproduces the
    baseline analysis exactly (integer weights are untouched).
    """
    body = factor = None
    if scale is not None:
        body, factor = scale

    def weight(tid: int) -> int:
        w = busy.get(tid, 0)
        if factor is not None and description.get(tid) == body:
            w = int(round(w * factor))
        return w

    if not tids:
        return DagAnalysis(
            work_ns=0, span_ns=0, tasks=0, edges=0, critical_path=(), critical_body_ns=()
        )

    # Node encoding: s(tid) = 2*tid, e(tid) = 2*tid+1.
    preds: dict[int, list[int]] = {}
    succs: dict[int, list[int]] = {}
    nodes: list[int] = []
    for tid in tids:
        s, e = 2 * tid, 2 * tid + 1
        nodes.append(s)
        nodes.append(e)
        preds.setdefault(s, [])
        preds.setdefault(e, []).append(s)  # internal s -> e edge
        succs.setdefault(s, []).append(e)
        succs.setdefault(e, [])
    for parent, child in spawns:
        preds[2 * child].append(2 * parent)
        succs[2 * parent].append(2 * child)
    for producer, waiter in joins:
        preds[2 * waiter + 1].append(2 * producer + 1)
        succs[2 * producer + 1].append(2 * waiter + 1)

    order = _topological_order(nodes, preds, succs)

    dist: dict[int, int] = {}
    best_pred: dict[int, int | None] = {}
    for node in order:
        own = weight(node // 2) if node % 2 == 0 else 0
        best: int | None = None
        best_dist = 0
        for p in preds[node]:
            d = dist[p]
            if best is None or d > best_dist or (d == best_dist and p < best):
                best, best_dist = p, d
        dist[node] = best_dist + own
        best_pred[node] = best

    end: int | None = None
    span = 0
    for node in order:
        d = dist[node]
        if end is None or d > span or (d == span and node < end):
            end, span = node, d

    chain: list[int] = []
    node = end
    while node is not None:
        if node % 2 == 0:
            chain.append(node // 2)
        node = best_pred[node]
    chain.reverse()

    steps = tuple(
        CriticalStep(tid=tid, description=description.get(tid, "?"), busy_ns=weight(tid))
        for tid in chain
    )
    by_body: dict[str, int] = {}
    for step in steps:
        by_body[step.description] = by_body.get(step.description, 0) + step.busy_ns

    return DagAnalysis(
        work_ns=sum(weight(tid) for tid in tids),
        span_ns=span,
        tasks=len(tids),
        edges=len(spawns) + len(joins),
        critical_path=steps,
        critical_body_ns=tuple(sorted(by_body.items(), key=lambda kv: (-kv[1], kv[0]))),
    )


def _topological_order(
    nodes: Sequence[int],
    preds: Mapping[int, list[int]],
    succs: Mapping[int, list[int]],
) -> list[int]:
    """Kahn's algorithm; raises on cycles (a corrupt trace)."""
    indegree = {node: len(preds[node]) for node in nodes}
    ready = sorted(node for node in nodes if indegree[node] == 0)
    order: list[int] = []
    head = 0
    while head < len(ready):
        node = ready[head]
        head += 1
        order.append(node)
        for succ in succs[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(nodes):
        raise ValueError("trace produced a cyclic dependency graph")
    return order


def parallelism_points(deltas: Iterable[tuple[int, int]]) -> tuple[ParallelismPoint, ...]:
    """Collapse raw ±1 interval deltas into profile change points.

    *deltas* come from the interval accumulator in event order (one
    ``+1`` per busy-interval open, one ``-1`` per close); simultaneous
    deltas merge into a single point carrying the settled count.
    """
    points: list[ParallelismPoint] = []
    active = 0
    last_time: int | None = None
    for time_ns, delta in deltas:
        active += delta
        if last_time == time_ns:
            points[-1] = ParallelismPoint(time_ns=time_ns, active=active)
        else:
            points.append(ParallelismPoint(time_ns=time_ns, active=active))
            last_time = time_ns
    return tuple(points)
