"""The HPX-style performance-counter framework (Section IV of the paper).

Performance counters are named components exposing a uniform interface:

- **names** have the predefined structure
  ``/objectname{parentinstance#pidx/instance#idx}/countername@parameters``
  and can be discovered with wildcards;
- **types** cover raw values, monotonically increasing counts,
  averaging ratios (value/count), elapsed time, statistical aggregation
  over an underlying counter, and arithmetic combinations of counters;
- the **registry** maps name patterns to factories and supports
  ``discover_counters`` / ``create_counter`` by name;
- the **manager** holds the set of *active* counters and implements
  ``evaluate_active_counters`` / ``reset_active_counters`` exactly as
  the paper uses them around each benchmark sample;
- the **query** layer reproduces the command-line convenience interface
  (``--hpx:print-counter`` / ``--hpx:print-counter-interval``):
  periodic in-band sampling with CSV output.

Counter *collection* carries a small per-task instrumentation cost when
counters are active (timestamping in the scheduler hot path; PAPI reads
at context switches), reproducing the ≤10 % / ≤16 % overheads reported
in Section V-C.
"""

from repro.counters.base import CounterEnvironment, CounterInfo, PerformanceCounter
from repro.counters.manager import ActiveCounters
from repro.counters.names import CounterName, format_counter_name, parse_counter_name
from repro.counters.providers import (
    ENTRY_POINT_GROUP,
    AppCounter,
    AppCounterSet,
    CounterProvider,
    ProviderError,
    build_registry,
    builtin_providers,
    entry_point_providers,
    provider_identity,
)
from repro.counters.query import PeriodicQuery
from repro.counters.registry import CounterRegistry, CounterTypeEntry
from repro.counters.types import CounterStatus, CounterType, CounterValue

__all__ = [
    "ENTRY_POINT_GROUP",
    "ActiveCounters",
    "AppCounter",
    "AppCounterSet",
    "CounterEnvironment",
    "CounterInfo",
    "CounterName",
    "CounterProvider",
    "CounterRegistry",
    "CounterStatus",
    "CounterType",
    "CounterTypeEntry",
    "CounterValue",
    "PerformanceCounter",
    "PeriodicQuery",
    "ProviderError",
    "build_registry",
    "builtin_providers",
    "entry_point_providers",
    "format_counter_name",
    "parse_counter_name",
    "provider_identity",
]
