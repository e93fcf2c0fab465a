"""hwloc-style topology and thread-affinity support.

The paper pins worker threads so sockets fill first (``taskset`` for the
Standard versions, ``--hpx:bind`` for HPX, verified with ``htop``).
:class:`Topology` reproduces that: it maps a requested worker count to a
concrete list of core indices under a binding mode.  Topologies are
built from any :class:`~repro.platform.spec.PlatformSpec` — including
uneven socket shapes (1-socket desktops, asymmetric hybrids).
"""

from __future__ import annotations

import enum

from repro.platform.presets import resolve_platform
from repro.platform.spec import PlatformSpec


class BindMode(enum.Enum):
    """Thread-to-core binding policies (subset of ``--hpx:bind``)."""

    COMPACT = "compact"  # fill socket 0 first, then socket 1 (paper default)
    SCATTER = "scatter"  # round-robin across sockets
    BALANCED = "balanced"  # split evenly across sockets, compact within

    @classmethod
    def parse(cls, text: str) -> "BindMode":
        try:
            return cls(text.lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown bind mode {text!r}; expected one of {valid}") from None


class Topology:
    """Logical view of the platform for affinity decisions."""

    def __init__(self, spec: PlatformSpec | str | None = None) -> None:
        self.platform = resolve_platform(spec)

    def describe_core(self, core_index: int) -> str:
        """hwloc-like location string, e.g. ``socket#1/core#3``."""
        socket, local = self.platform.core_local(core_index)
        return f"socket#{socket}/core#{local}"

    def _check_workers(self, num_workers: int, total: int) -> None:
        if not 1 <= num_workers <= total:
            raise ValueError(
                f"platform {self.platform.name!r} has {total} bindable cores; "
                f"num_workers must be in [1, {total}], got {num_workers}"
            )

    def binding(self, num_workers: int, mode: BindMode = BindMode.COMPACT) -> list[int]:
        """Core indices for *num_workers* workers under *mode*.

        Raises ``ValueError`` naming the platform if more workers than
        cores are requested (hyper-threading is disabled in the paper's
        experiments).
        """
        platform = self.platform
        self._check_workers(num_workers, platform.total_cores)
        if mode is BindMode.COMPACT:
            # Global core indices are already socket-major.
            return list(range(num_workers))
        if mode is BindMode.SCATTER:
            # Round-robin by local core index; exhausted (smaller)
            # sockets simply drop out of later rounds.
            order: list[int] = []
            rounds = max(sock.cores for sock in platform.sockets)
            for local in range(rounds):
                for socket, sock in enumerate(platform.sockets):
                    if local < sock.cores:
                        order.append(platform.core_range(socket)[local])
            return order[:num_workers]
        if mode is BindMode.BALANCED:
            # Even split, compact within each socket; on uneven shapes a
            # socket never takes more than it has and the overflow is
            # redistributed to sockets with spare capacity, in order.
            capacities = [sock.cores for sock in platform.sockets]
            base, extra = divmod(num_workers, len(capacities))
            targets = [base + (1 if socket < extra else 0) for socket in range(len(capacities))]
            counts = [min(target, cap) for target, cap in zip(targets, capacities)]
            overflow = num_workers - sum(counts)
            while overflow > 0:
                # One worker at a time onto the least-loaded socket with
                # spare capacity, so the split stays as even as it can be.
                socket = min(
                    (s for s, cap in enumerate(capacities) if counts[s] < cap),
                    key=lambda s: (counts[s], s),
                )
                counts[socket] += 1
                overflow -= 1
            order = []
            for socket, count in enumerate(counts):
                order.extend(platform.core_range(socket)[:count])
            return order
        raise AssertionError(f"unhandled bind mode {mode}")

    def binding_smt(
        self, num_workers: int, smt: int = 1, mode: BindMode = BindMode.COMPACT
    ) -> list[int]:
        """Core indices allowing up to *smt* workers per physical core.

        With hyper-threading enabled (smt=2) the paper binds two
        threads per core; workers beyond the physical core count wrap
        around onto already-occupied cores in binding order.
        """
        if smt < 1:
            raise ValueError("smt must be >= 1")
        total_cores = self.platform.total_cores
        self._check_workers(num_workers, total_cores * smt)
        if num_workers <= total_cores:
            return self.binding(num_workers, mode)
        full = self.binding(total_cores, mode)
        out = list(full)
        while len(out) < num_workers:
            out.append(full[len(out) % len(full)])
        return out

    def sockets_used(self, core_indices: list[int]) -> set[int]:
        """Set of socket ids covered by *core_indices*."""
        return {self.platform.socket_of(c) for c in core_indices}
