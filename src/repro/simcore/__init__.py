"""Discrete-event simulation substrate.

This package models the paper's test platform (Table III): a dual-socket
Intel Ivy Bridge node with ten cores per socket, private L1/L2 caches, a
shared L3 per socket, and per-socket memory controllers with bounded
bandwidth.  All simulated time is kept as integer nanoseconds so that
runs are bit-for-bit deterministic.
"""

from repro.simcore.clock import MS, NS_PER_S, US, from_us, ms, ns_to_s, ns_to_us, s, us
from repro.simcore.events import Engine, SimulationError, Timer
from repro.simcore.machine import Core, Machine
from repro.simcore.rng import derive_rng, derive_seed
from repro.simcore.topology import BindMode, Topology

__all__ = [
    "MS",
    "NS_PER_S",
    "US",
    "BindMode",
    "Core",
    "Engine",
    "Machine",
    "SimulationError",
    "Timer",
    "Topology",
    "derive_rng",
    "derive_seed",
    "from_us",
    "ms",
    "ns_to_s",
    "ns_to_us",
    "s",
    "us",
]
