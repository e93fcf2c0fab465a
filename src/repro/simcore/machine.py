"""Node model: the simulated machine behind one platform spec.

The contention/latency math lives in
:class:`repro.platform.resource.ResourceModel`; :class:`Machine` owns
the per-core state (hardware counters, busy time) and delegates every
segment to the resource model.  A machine is built from any
:class:`~repro.platform.spec.PlatformSpec` — the default is the paper's
platform (Table III): dual-socket Intel Ivy Bridge E5-2670v2, 10
cores/socket at 2.5 GHz, 25 MB shared L3 per socket, hyper-threading
disabled.
"""

from __future__ import annotations

from repro.model.work import Work
from repro.platform.presets import resolve_platform
from repro.platform.resource import (
    Core,
    HardwareCounters,
    ResourceModel,
    SegmentTicket,
)
from repro.platform.spec import PlatformSpec

__all__ = ["Core", "HardwareCounters", "Machine", "SegmentTicket"]


class Machine:
    """The simulated node: resolves Work into time and event counts."""

    def __init__(self, spec: PlatformSpec | str | None = None) -> None:
        self.platform = resolve_platform(spec)
        self.resources = ResourceModel(self.platform)
        self.cores = [
            Core(index=i, socket=self.platform.socket_of(i))
            for i in range(self.platform.total_cores)
        ]

    # -- queries ---------------------------------------------------------

    def core(self, index: int) -> Core:
        return self.cores[index]

    def l3_pressure_factor(self, socket: int, extra_ws: int) -> float:
        """Traffic inflation once concurrent working sets overflow the L3."""
        return self.resources.l3_pressure_factor(socket, extra_ws)

    def total_offcore_bytes(self) -> int:
        return self.resources.total_offcore_bytes()

    # -- segment lifecycle -------------------------------------------------

    def segment_begin(
        self,
        core_index: int,
        work: Work,
        *,
        cross_socket_fraction: float = 0.0,
        speed_factor: float = 1.0,
    ) -> SegmentTicket:
        """Start executing *work* on core *core_index*.

        Returns a ticket carrying the segment duration under current
        contention.  *speed_factor* scales CPU time (>1 means slower;
        used by the kernel model for time-slicing dilation).
        """
        return self.resources.segment_begin(
            self.cores[core_index],
            work,
            cross_socket_fraction=cross_socket_fraction,
            speed_factor=speed_factor,
        )

    def segment_end(self, ticket: SegmentTicket, work: Work) -> None:
        """Finish the segment identified by *ticket*."""
        self.resources.segment_end(ticket, work)
