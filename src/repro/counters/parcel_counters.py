"""Parcel and AGAS counters (``/parcels/...``, ``/agas/...``).

Two of the paper's four counter groups ("AGAS counters, Parcel
counters, Thread Manager counters, and general counters").  Registered
per locality by :class:`repro.distributed.system.DistributedSystem`.
"""

from __future__ import annotations

from typing import Any

from repro.counters.base import (
    AverageRatioCounter,
    CounterEnvironment,
    CounterInfo,
    MonotonicCounter,
    PerformanceCounter,
)
from repro.counters.names import CounterName
from repro.counters.registry import CounterTypeEntry
from repro.counters.types import CounterType


def _total_only(env: CounterEnvironment) -> list[tuple[str, int | None]]:
    return [("total", None)]


class DistributedCounterProvider:
    """The /parcels + /agas groups as a per-locality counter provider.

    Unlike the stateless built-ins, this provider closes over one
    locality and its owning system, so each locality's registry
    installs its own instance (``registry.install(...)`` in
    :class:`repro.distributed.system.DistributedSystem`).
    """

    name = "builtin.distributed"

    def __init__(self, locality: Any, system: Any) -> None:
        self._locality = locality
        self._system = system

    def counter_types(self, env: CounterEnvironment) -> list[CounterTypeEntry]:
        """The /parcels and /agas counter types of this locality."""
        stats = self._locality.parcelport.stats
        agas_stats = self._system.agas.stats
        entries: list[CounterTypeEntry] = []

        def mono(type_name: str, help_text: str, source, unit: str = "") -> None:
            def factory(
                name: CounterName, info: CounterInfo, env: CounterEnvironment
            ) -> PerformanceCounter:
                return MonotonicCounter(name, info, env, source)

            entries.append(
                CounterTypeEntry(
                    info=CounterInfo(
                        type_name=type_name,
                        counter_type=CounterType.MONOTONICALLY_INCREASING,
                        help_text=help_text,
                        unit=unit,
                    ),
                    factory=factory,
                    instances=_total_only,
                )
            )

        mono("/parcels/count/sent", "Parcels sent by this locality", lambda: stats.sent)
        mono(
            "/parcels/count/received",
            "Parcels received by this locality",
            lambda: stats.received,
        )
        mono(
            "/parcels/data/sent",
            "Bytes sent by this locality's parcelport",
            lambda: stats.bytes_sent,
            unit="bytes",
        )
        mono(
            "/parcels/data/received",
            "Bytes received by this locality's parcelport",
            lambda: stats.bytes_received,
            unit="bytes",
        )

        def latency_factory(
            name: CounterName, info: CounterInfo, env: CounterEnvironment
        ) -> PerformanceCounter:
            return AverageRatioCounter(
                name, info, env, lambda: stats.latency_sum_ns, lambda: stats.received
            )

        entries.append(
            CounterTypeEntry(
                info=CounterInfo(
                    type_name="/parcels/time/average-latency",
                    counter_type=CounterType.AVERAGE_TIMER,
                    help_text="Average transit time of received parcels",
                    unit="ns",
                ),
                factory=latency_factory,
                instances=_total_only,
            )
        )

        mono("/agas/count/bind", "Symbolic names bound in AGAS", lambda: agas_stats.binds)
        mono(
            "/agas/count/resolve",
            "Symbolic-name resolutions served by AGAS",
            lambda: agas_stats.resolves,
        )
        mono(
            "/agas/count/cache/hits",
            "AGAS cache hits across localities",
            lambda: agas_stats.cache_hits,
        )
        mono(
            "/agas/count/cache/misses",
            "AGAS cache misses across localities",
            lambda: agas_stats.cache_misses,
        )
        return entries
