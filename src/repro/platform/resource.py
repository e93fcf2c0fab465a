"""The unified resource model: every contention/latency formula.

:class:`ResourceModel` owns the node's math — L3 pressure, counter
booking and memory-controller bandwidth arbitration — parameterized
by a :class:`~repro.platform.spec.PlatformSpec`, so a single class
answers "how long does this segment take and what does it do to the
hardware counters" for any socket shape.

The math is intentionally identical to the pre-platform implementation
when evaluated on the default ``ivybridge-2x10`` spec — the committed
golden stream fixtures pin that down bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.work import Work
from repro.platform.spec import PlatformSpec


@dataclass(slots=True)
class MemoryTrafficStats:
    """Cumulative memory traffic bookkeeping for one socket."""

    bytes_total: int = 0
    bytes_cross_socket: int = 0
    segments: int = 0


class MemoryController:
    """Bandwidth arbitration for one socket.

    Parameters
    ----------
    socket_id:
        Index of the owning socket.
    peak_bw:
        Socket peak memory bandwidth in bytes per second.
    per_core_bw:
        Maximum bandwidth a single core can draw, bytes per second.
    cross_socket_factor:
        Multiplier (>= 1) applied to the service time of traffic that
        crosses the interconnect to a remote socket's memory.
    """

    __slots__ = (
        "socket_id",
        "peak_bw",
        "per_core_bw",
        "cross_socket_factor",
        "active_streams",
        "stats",
    )

    def __init__(
        self,
        socket_id: int,
        *,
        peak_bw: float,
        per_core_bw: float,
        cross_socket_factor: float = 1.6,
    ) -> None:
        if peak_bw <= 0 or per_core_bw <= 0:
            raise ValueError("bandwidths must be positive")
        self.socket_id = socket_id
        self.peak_bw = float(peak_bw)
        self.per_core_bw = float(per_core_bw)
        self.cross_socket_factor = float(cross_socket_factor)
        self.active_streams = 0
        self.stats = MemoryTrafficStats()

    def effective_bandwidth(self, streams: int | None = None) -> float:
        """Bandwidth one stream obtains with *streams* concurrent streams."""
        n = self.active_streams if streams is None else streams
        n = max(1, n)
        return min(self.per_core_bw, self.peak_bw / n)

    def service_time_ns(self, nbytes: int, *, cross_socket_fraction: float = 0.0) -> int:
        """Nanoseconds needed to move *nbytes* under current contention."""
        if nbytes <= 0:
            return 0
        if cross_socket_fraction == 0.0:
            # Hot path: socket-local traffic (the common case).  Matches
            # the general expression exactly: local == float(nbytes),
            # remote == 0.0, and bw is the same min().
            bw = self.peak_bw / (self.active_streams + 1)
            if bw > self.per_core_bw:
                bw = self.per_core_bw
            return round(nbytes / bw * 1e9)
        if not 0.0 <= cross_socket_fraction <= 1.0:
            raise ValueError("cross_socket_fraction must be in [0, 1]")
        bw = self.effective_bandwidth(self.active_streams + 1)
        local = nbytes * (1.0 - cross_socket_fraction)
        remote = nbytes * cross_socket_fraction * self.cross_socket_factor
        return round((local + remote) / bw * 1e9)

    def stream_started(self, nbytes: int, *, cross_socket_fraction: float = 0.0) -> None:
        """Register a memory-consuming segment beginning on this socket."""
        self.active_streams += 1
        stats = self.stats
        stats.bytes_total += nbytes
        if cross_socket_fraction:
            stats.bytes_cross_socket += round(nbytes * cross_socket_fraction)
        stats.segments += 1

    def stream_finished(self) -> None:
        """Register a memory-consuming segment ending."""
        if self.active_streams <= 0:
            raise RuntimeError("stream_finished without matching stream_started")
        self.active_streams -= 1


@dataclass
class HardwareCounters:
    """Monotonic per-core hardware event counts (the PAPI substrate)."""

    cycles: int = 0
    instructions: int = 0
    offcore_all_data_rd: int = 0
    offcore_demand_code_rd: int = 0
    offcore_demand_rfo: int = 0

    def offcore_total(self) -> int:
        return (self.offcore_all_data_rd + self.offcore_demand_code_rd + self.offcore_demand_rfo)


@dataclass
class Core:
    """One physical core."""

    index: int
    socket: int
    hw: HardwareCounters = field(default_factory=HardwareCounters)
    busy_ns: int = 0  # cumulative time spent executing segments


@dataclass(frozen=True, slots=True)
class PopulationCharge:
    """Mean per-member charge for a steady task population on one socket.

    Produced by :meth:`ResourceModel.population_segment`; consumed by
    the cohort engine to size cohort wall time and by
    :meth:`ResourceModel.population_book` to book hardware counters.
    """

    socket: int
    duration_ns: int
    membytes_effective: int
    pressure: float


class SegmentTicket:
    """Handle returned by ``segment_begin``; pass back to ``segment_end``
    when the segment's end event fires.

    Plain ``__slots__`` object (one per compute segment — hot path);
    treat instances as immutable."""

    __slots__ = ("core_index", "socket", "duration_ns", "membytes_effective", "uses_memory")

    def __init__(
        self,
        core_index: int,
        socket: int,
        duration_ns: int,
        membytes_effective: int,
        uses_memory: bool,
    ) -> None:
        self.core_index = core_index
        self.socket = socket
        self.duration_ns = duration_ns
        self.membytes_effective = membytes_effective
        self.uses_memory = uses_memory


class ResourceModel:
    """All contention/latency math for one node, any socket shape.

    Owns the per-socket memory controllers, the shared-L3 pressure
    state, and the hardware-counter booking rules.  One instance backs
    one :class:`repro.simcore.machine.Machine`.
    """

    def __init__(self, platform: PlatformSpec) -> None:
        self.platform = platform
        self.controllers = [
            MemoryController(
                s,
                peak_bw=sock.peak_bw,
                per_core_bw=sock.per_core_bw,
                cross_socket_factor=platform.remote_factor(s),
            )
            for s, sock in enumerate(platform.sockets)
        ]
        # Sum of the working sets of segments currently active per socket,
        # for the shared-L3 pressure model.
        self.active_ws = [0] * platform.num_sockets
        # Specs are frozen: cache the per-socket constants the hot path
        # reads on every segment.
        self._l3_bytes = [float(sock.l3_bytes) for sock in platform.sockets]
        self._freq_ghz = [sock.freq_ghz for sock in platform.sockets]
        self._l3_alpha = platform.l3_pressure_alpha
        self._l3_max = platform.l3_max_factor
        self._ipc = platform.ipc

    # -- queries ---------------------------------------------------------

    def l3_pressure_factor(self, socket: int, extra_ws: int) -> float:
        """Traffic inflation once concurrent working sets overflow the L3."""
        ws = self.active_ws[socket] + extra_ws
        overflow = ws / self._l3_bytes[socket] - 1.0
        if overflow <= 0:
            return 1.0
        return min(self._l3_max, 1.0 + self._l3_alpha * overflow)

    def total_offcore_bytes(self) -> int:
        return sum(c.stats.bytes_total for c in self.controllers)

    # -- segment lifecycle -----------------------------------------------

    def segment_begin(
        self,
        core: Core,
        work: Work,
        *,
        cross_socket_fraction: float = 0.0,
        speed_factor: float = 1.0,
    ) -> SegmentTicket:
        """Start executing *work* on *core*.

        Returns a ticket carrying the segment duration under current
        contention.  *speed_factor* scales CPU time (>1 means slower;
        used by the kernel model for time-slicing dilation).
        """
        socket = core.socket
        controller = self.controllers[socket]
        working_set = work.membytes if work.working_set is None else work.working_set

        # Inline l3_pressure_factor (hot path: one call per segment).
        ws = self.active_ws[socket] + working_set
        overflow = ws / self._l3_bytes[socket] - 1.0
        if overflow <= 0:
            pressure = 1.0
        else:
            pressure = min(self._l3_max, 1.0 + self._l3_alpha * overflow)
        membytes = round(work.membytes * pressure)
        mem_ns = controller.service_time_ns(membytes, cross_socket_fraction=cross_socket_fraction)
        cpu_ns = round(work.cpu_ns * speed_factor)
        duration = cpu_ns + mem_ns

        uses_memory = membytes > 0
        if uses_memory:
            controller.stream_started(membytes, cross_socket_fraction=cross_socket_fraction)
        self.active_ws[socket] += working_set

        # Hardware counter increments are booked at segment start; the
        # simulated PAPI layer only ever observes them after the segment
        # completes, so eager booking is unobservable and cheaper.
        freq = self._freq_ghz[socket]
        hw = core.hw
        if membytes:
            lines_work = work.scaled_traffic(pressure)
            data_rd, code_rd, rfo = lines_work.offcore_requests()
            hw.offcore_all_data_rd += data_rd
            hw.offcore_demand_code_rd += code_rd
            hw.offcore_demand_rfo += rfo
        hw.cycles += round(duration * freq)
        hw.instructions += round(work.cpu_ns * freq * self._ipc)
        core.busy_ns += duration

        return SegmentTicket(
            core_index=core.index,
            socket=socket,
            duration_ns=duration,
            membytes_effective=membytes,
            uses_memory=uses_memory,
        )

    def segment_end(self, ticket: SegmentTicket, work: Work) -> None:
        """Finish the segment identified by *ticket*."""
        if ticket.uses_memory:
            self.controllers[ticket.socket].stream_finished()
        self.active_ws[ticket.socket] -= work.effective_working_set
        if self.active_ws[ticket.socket] < 0:
            raise RuntimeError("working-set accounting went negative")

    # -- population (mesoscale) charging ---------------------------------

    def population_segment(self, socket: int, work: Work, *, concurrency: int) -> PopulationCharge:
        """Mean-value charge for one member of a steady population.

        Models the steady state the exact engine converges to when
        *concurrency* identical segments run continuously on *socket*:
        every member sees the other ``concurrency - 1`` working sets in
        the L3 and shares the socket bandwidth ``concurrency`` ways.
        This is the fluid limit of :meth:`segment_begin`'s instantaneous
        formulas — identical math, evaluated at the population's mean
        operating point instead of per event.
        """
        n = max(1, concurrency)
        working_set = work.effective_working_set
        ws = working_set * n
        overflow = ws / self._l3_bytes[socket] - 1.0
        if overflow <= 0:
            pressure = 1.0
        else:
            pressure = min(self._l3_max, 1.0 + self._l3_alpha * overflow)
        membytes = round(work.membytes * pressure)
        controller = self.controllers[socket]
        bw = min(controller.per_core_bw, controller.peak_bw / n)
        mem_ns = round(membytes / bw * 1e9) if membytes > 0 else 0
        return PopulationCharge(
            socket=socket,
            duration_ns=work.cpu_ns + mem_ns,
            membytes_effective=membytes,
            pressure=pressure,
        )

    def population_book(self, core: Core, work: Work, charge: PopulationCharge, tasks: int) -> None:
        """Book *tasks* population members' worth of counters on *core*.

        The per-member increments are the same integers
        :meth:`segment_begin` would book at the charge's operating
        point, multiplied by the member count — so cohort hardware
        counters are exact aggregates of the modeled per-member charge.
        """
        if tasks <= 0:
            return
        socket = core.socket
        membytes = charge.membytes_effective
        if membytes:
            stats = self.controllers[socket].stats
            stats.bytes_total += membytes * tasks
            stats.segments += tasks
        freq = self._freq_ghz[socket]
        hw = core.hw
        if membytes:
            lines_work = work.scaled_traffic(charge.pressure)
            data_rd, code_rd, rfo = lines_work.offcore_requests()
            hw.offcore_all_data_rd += data_rd * tasks
            hw.offcore_demand_code_rd += code_rd * tasks
            hw.offcore_demand_rfo += rfo * tasks
        hw.cycles += round(charge.duration_ns * freq) * tasks
        hw.instructions += round(work.cpu_ns * freq * self._ipc) * tasks
        core.busy_ns += charge.duration_ns * tasks
