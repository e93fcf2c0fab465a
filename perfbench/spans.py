"""In-memory span recording and class-attribute wrapping for the traced pass.

Spans live in flat arrays (name id, start, end, parent, request id) so a
pass of a million calls stays a few tens of megabytes; they are written
out once, when the pass ends.  A span's self time is its duration minus
the part of that interval its children cover, so overlapping children
(concurrent serve requests) are not counted twice.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

_MISSING = object()


class Tracer:
    """Holds every span of one traced pass in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.req = array("i")
        self._stack = [-1]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: int, end: int, *, parent: int = -1, req: int = -1) -> int:
        """Record a finished span explicitly (safe from any thread); returns its index."""
        with self._lock:
            idx = len(self.start)
            self.nid.append(self.intern(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent)
            self.req.append(req)
        return idx

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* timed as a span nested under whatever span is open when it is called.

        Only for calls made on one thread: the open-span stack is shared.
        """
        nid = self.intern(name)
        clock = self.clock
        stack = self._stack
        nids, starts, ends, parents, reqs = self.nid, self.start, self.end, self.parent, self.req

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            nids.append(nid)
            parents.append(stack[-1])
            reqs.append(-1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.perfbench_span = name  # type: ignore[attr-defined]  # marks it as already timed
        return traced

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: call count, total and self nanoseconds."""
        nid = np.frombuffer(self.nid, dtype=np.int32)
        size = len(self.names)
        total = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        count = np.bincount(nid, minlength=size)
        total_ns = np.bincount(nid, weights=total, minlength=size)
        own = self_times(self.start, self.end, self.parent)
        self_ns = np.bincount(nid, weights=own, minlength=size)
        return {
            name: {"count": int(count[i]), "total_ns": int(total_ns[i]), "self_ns": int(self_ns[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        """Write every span (arrays) and the name table next to it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.nid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            req=np.frombuffer(self.req, dtype=np.int32),
        )
        path.with_suffix(".names.json").write_text(json.dumps(self.names))


def self_times(starts: Any, ends: Any, parents: Any) -> Any:
    """Each span's duration minus the union of its children's intervals within it.

    Children are swept in start order per parent; a child adds only the
    part of it that lies past the furthest end of the children before it.
    """
    st = np.asarray(starts, dtype=np.int64)
    en = np.asarray(ends, dtype=np.int64)
    pa = np.asarray(parents, dtype=np.int64)
    order = np.lexsort((st, pa))
    child = order[pa[order] >= 0]
    covered = np.zeros(len(st))
    if len(child):
        parent = pa[child]
        base = st.min()
        lo = np.maximum(st[child], st[parent]) - base
        hi = np.maximum(np.minimum(en[child], en[parent]) - base, lo)
        first = np.r_[True, parent[1:] != parent[:-1]]
        group = np.cumsum(first) - 1
        # Running maximum of ``hi`` within each parent's group: offset the
        # groups so the maximum never carries over from the group before.
        width = int(hi.max()) + 1
        reach = np.maximum.accumulate(group * width + hi) - group * width
        before = np.where(first, lo, np.r_[0, reach[:-1]])
        gained = np.maximum(hi - np.maximum(lo, before), 0)
        covered = np.bincount(parent, weights=gained, minlength=len(st))
    return (en - st) - covered


class Patcher:
    """Replaces attributes for the length of a ``with`` block and restores them after.

    Class attributes are read from the class ``__dict__`` and restored as
    they were; an attribute the class only inherits is deleted again on
    restore.  An attribute that does not exist is left alone, so a renamed
    entry point costs its spans, not the benchmark.
    """

    def __init__(self) -> None:
        self.saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> bool:
        """Set ``owner.attr`` to ``make(original)``; False if *owner* has no such attribute."""
        raw = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else _MISSING
        current = raw if raw is not _MISSING else getattr(owner, attr, _MISSING)
        if current is _MISSING:
            return False
        self.saved.append((owner, attr, raw if isinstance(owner, type) else current))
        setattr(owner, attr, make(current))
        return True

    def restore(self) -> None:
        while self.saved:
            owner, attr, raw = self.saved.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
