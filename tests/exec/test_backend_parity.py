"""Cross-runtime parity: both backends expose the same counter surface.

The tentpole guarantee of the execution layer: `/threads/...` counters
are views over the shared probe bus, so the documented name set exists
— and evaluates — identically on the HPX and the std::async backend.
"""

import re
from pathlib import Path

import pytest

from repro.counters.base import CounterEnvironment
from repro.counters.providers import build_registry
from repro.exec.backend import SchedulerBackend
from repro.kernel.scheduler import StdRuntime
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

from tests.conftest import fib_body

DOCS = Path(__file__).resolve().parents[2] / "docs" / "counters.md"
WORKERS = 3


def _make(runtime_name: str) -> SchedulerBackend:
    engine = Engine()
    machine = Machine()
    cls = HpxRuntime if runtime_name == "hpx" else StdRuntime
    return cls(engine, machine, num_workers=WORKERS)


def _registry(rt):
    env = CounterEnvironment(engine=rt.engine, runtime=rt, machine=rt.machine)
    return build_registry(env)


def test_both_runtimes_are_scheduler_backends():
    for name in ("hpx", "std"):
        rt = _make(name)
        assert isinstance(rt, SchedulerBackend)
        assert rt.name == name
        assert rt.probes.workers == [w.stats for w in rt.workers]


def test_threads_discovery_identical_across_backends():
    """Wildcard discovery expands to the same concrete names on both."""
    specs = [
        "/threads{locality#0/worker-thread#*}/count/cumulative",
        "/threads{locality#0/worker-thread#*}/time/average",
        "/threads{locality#0/worker-thread#*}/idle-rate",
    ]
    expansions = {}
    for name in ("hpx", "std"):
        reg = _registry(_make(name))
        expansions[name] = [n for spec in specs for n in reg.discover_counters(spec)]
    assert expansions["hpx"] == expansions["std"]
    assert len(expansions["hpx"]) == 3 * WORKERS


def _documented_threads_counters() -> set[str]:
    """The `/threads` table rows of docs/counters.md, by counter name."""
    text = DOCS.read_text()
    section = text.split("## Thread-manager counters")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert rows, "docs/counters.md lost its /threads table"
    return {f"/threads/{row}" for row in rows}


def test_documented_threads_set_matches_registry():
    """docs/counters.md lists exactly the registered /threads types."""
    reg = _registry(_make("hpx"))
    registered = {e.info.type_name for e in reg.counter_types("/threads/*")}
    assert _documented_threads_counters() == registered


@pytest.mark.parametrize("runtime_name", ["hpx", "std"])
def test_documented_threads_counters_evaluate(runtime_name):
    """Every documented /threads counter yields a number on both backends,
    as total and (where the type has them) per-worker instances."""
    rt = _make(runtime_name)
    reg = _registry(rt)
    counters = {}
    per_worker_types = set()
    for entry in reg.counter_types("/threads/*"):
        type_name = entry.info.type_name
        counter = type_name.removeprefix("/threads/")
        instances = entry.instances(reg.env)
        if ("worker-thread", 0) in instances:
            per_worker_types.add(type_name)
        for inst_name, inst_index in instances:
            suffix = "" if inst_index is None else f"#{inst_index}"
            name = f"/threads{{locality#0/{inst_name}{suffix}}}/{counter}"
            counters[name] = reg.create_counter(name)
    # Only the global scheduler-state counters are total-only.
    total_only = _documented_threads_counters() - per_worker_types
    assert total_only == {
        "/threads/count/instantaneous/active",
        "/threads/count/instantaneous/suspended",
        "/threads/wait-time/pending",
    }
    rt.run_to_completion(fib_body, 11)
    values = {name: c.get_counter_value().value for name, c in counters.items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    total = "/threads{locality#0/total}/count/cumulative"
    per_worker = [
        v for k, v in values.items() if "worker-thread" in k and k.endswith("count/cumulative")
    ]
    assert values[total] == rt.stats.tasks_executed > 0
    assert sum(per_worker) == values[total]
