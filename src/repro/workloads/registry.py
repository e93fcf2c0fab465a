"""The workload registry: every runnable workload, by name.

Both workload families register here — the fourteen Inncabs
applications (with their small/default/large presets) and the Task
Bench dependency-graph generator — so discovery, validation, preset
resolution and error messages are uniform across ``Session``,
campaigns, the serve layer and the CLI.

``repro.inncabs.suite.available_benchmarks`` deliberately stays
Inncabs-only (the paper's Table V surface); this registry is the
superset layered on top.

Built-in entries are built on the first lookup of their name, which is
when the workload's module is imported: listing names imports nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.inncabs.base import Benchmark
from repro.inncabs.presets import PRESETS
from repro.inncabs.suite import available_benchmarks, get_benchmark

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.counters.providers import CounterProvider

__all__ = [
    "WorkloadEntry",
    "available_workloads",
    "get_workload",
    "register_workload",
    "workload_preset_params",
]


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload: a benchmark plus its preset table."""

    name: str
    family: str  # "inncabs" | "taskbench" | third-party
    benchmark: Benchmark
    #: Preset name -> parameter overrides ("default" is implicit and empty).
    presets: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    description: str = ""
    #: Counter providers installed into the registry of any session
    #: running this workload (the app-counter hook; see
    #: :mod:`repro.counters.providers`).
    counter_providers: tuple["CounterProvider", ...] = ()


_WORKLOADS: dict[str, WorkloadEntry] = {}


def register_workload(entry: WorkloadEntry) -> None:
    """Add *entry* to the registry; duplicate names are an error."""
    if entry.name in _WORKLOADS or entry.name in _BUILDERS:
        raise ValueError(f"workload {entry.name!r} already registered")
    _WORKLOADS[entry.name] = entry


def _inncabs_entry(name: str) -> WorkloadEntry:
    bench = get_benchmark(name)
    return WorkloadEntry(
        name=name,
        family="inncabs",
        benchmark=bench,
        presets=PRESETS.get(name, {}),
        description=bench.info.description,
    )


def _taskbench_entry() -> WorkloadEntry:
    from repro.taskbench.workload import TASKBENCH_PRESETS, TaskBenchBenchmark

    taskbench = TaskBenchBenchmark()
    return WorkloadEntry(
        name=taskbench.info.name,
        family="taskbench",
        benchmark=taskbench,
        presets=TASKBENCH_PRESETS,
        description=taskbench.info.description,
    )


def _fmm_entry() -> WorkloadEntry:
    from repro.fmm.workload import FMM_COUNTER_PROVIDER, FMM_PRESETS, FmmBenchmark

    fmm = FmmBenchmark()
    return WorkloadEntry(
        name=fmm.info.name,
        family="miniapp",
        benchmark=fmm,
        presets=FMM_PRESETS,
        description=fmm.info.description,
        counter_providers=(FMM_COUNTER_PROVIDER,),
    )


#: The built-in workloads; each entry is built on the first lookup of its name.
_BUILDERS: dict[str, Callable[[], WorkloadEntry]] = {
    **{name: partial(_inncabs_entry, name) for name in available_benchmarks()},
    "taskbench": _taskbench_entry,
    "fmm": _fmm_entry,
}


def available_workloads() -> list[str]:
    """Names of every registered workload (alphabetical); builds none."""
    return sorted([*_WORKLOADS, *_BUILDERS])


def get_workload(name: str) -> WorkloadEntry:
    """Look a workload up by name; ``KeyError`` lists valid names on miss."""
    entry = _WORKLOADS.get(name)
    if entry is None:
        if name not in _BUILDERS:
            raise KeyError(
                f"unknown workload {name!r}; available: {', '.join(available_workloads())}"
            )
        entry = _WORKLOADS[name] = _BUILDERS[name]()
        del _BUILDERS[name]
    return entry


def workload_preset_params(name: str, preset: str) -> dict[str, Any]:
    """Parameter overrides for *name* under *preset*.

    ``default`` is always the empty override; raises ``KeyError`` for
    unknown workloads or presets (listing the valid choices).
    """
    entry = get_workload(name)
    if preset == "default":
        return {}
    try:
        return dict(entry.presets[preset])
    except KeyError:
        known = ", ".join(["default", *sorted(entry.presets)])
        raise KeyError(f"unknown preset {preset!r} for {name}; choose from: {known}") from None
