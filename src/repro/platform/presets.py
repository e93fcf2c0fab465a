"""Built-in platform presets and name/path resolution.

``ivybridge-2x10`` is the paper's Table III node and the default
everywhere; the other presets exist so the platform axis is actually
sweepable out of the box:

- ``desktop-1x8`` — a single-socket 8-core desktop part: higher clock,
  smaller L3, one memory controller (no cross-socket traffic at all);
- ``epyc-2x64`` — a 2×64-core server node: many more cores per
  controller, so the bandwidth wall arrives at a much lower core
  *fraction*; explicit NUMA distance matrix;
- ``grace-1x72`` — a large single-socket part with a big shared cache
  and very high memory bandwidth;
- ``hybrid-4p8e`` — an asymmetric two-socket shape (4 fast cores + 8
  slow cores) exercising uneven topologies end to end.

``resolve_platform`` is the front door: it accepts a preset name, a
path to a TOML/JSON platform file, or an already-built ``PlatformSpec``.
"""

from __future__ import annotations

import os
from typing import Any

from repro.platform.spec import PlatformError, PlatformSpec, SocketSpec, scaled_query_cost_ns

#: Name of the paper's Table III node — the default platform.
DEFAULT_PLATFORM = "ivybridge-2x10"

GiB = 1024**3
MiB = 1024**2


def _ivybridge_2x10() -> PlatformSpec:
    """The paper's dual-socket Ivy Bridge E5-2670v2 node (Table III)."""
    socket = SocketSpec(cores=10, freq_ghz=2.5, l3_bytes=25 * MiB, peak_bw=42e9, per_core_bw=7.5e9)
    return PlatformSpec(
        name="ivybridge-2x10",
        sockets=(socket, socket),
        cross_socket_factor=1.6,
        ram_bytes=62 * GiB,
        ipc=1.6,
        l3_pressure_alpha=0.35,
        l3_max_factor=2.5,
    )


def _desktop_1x8() -> PlatformSpec:
    """A single-socket 8-core desktop part: fast cores, one controller."""
    return PlatformSpec(
        name="desktop-1x8",
        sockets=(
            SocketSpec(cores=8, freq_ghz=3.6, l3_bytes=16 * MiB, peak_bw=38e9, per_core_bw=12e9),
        ),
        cross_socket_factor=1.0,
        ram_bytes=32 * GiB,
        ipc=2.2,
        l3_pressure_alpha=0.45,
        l3_max_factor=2.5,
        counter_query_cost_ns=scaled_query_cost_ns(3.6, 2.2),
    )


def _epyc_2x64() -> PlatformSpec:
    """A dual-socket 64-core-per-socket Epyc-like server node."""
    socket = SocketSpec(
        cores=64, freq_ghz=2.25, l3_bytes=256 * MiB, peak_bw=190e9, per_core_bw=22e9
    )
    return PlatformSpec(
        name="epyc-2x64",
        sockets=(socket, socket),
        cross_socket_factor=2.0,
        numa_distance=((1.0, 2.0), (2.0, 1.0)),
        ram_bytes=512 * GiB,
        ipc=2.0,
        l3_pressure_alpha=0.30,
        l3_max_factor=3.0,
        counter_query_cost_ns=scaled_query_cost_ns(2.25, 2.0),
    )


def _grace_1x72() -> PlatformSpec:
    """A large single-socket node: many cores behind one huge cache."""
    return PlatformSpec(
        name="grace-1x72",
        sockets=(
            SocketSpec(cores=72, freq_ghz=3.1, l3_bytes=114 * MiB, peak_bw=450e9, per_core_bw=35e9),
        ),
        cross_socket_factor=1.0,
        ram_bytes=480 * GiB,
        ipc=2.4,
        l3_pressure_alpha=0.25,
        l3_max_factor=2.0,
        counter_query_cost_ns=scaled_query_cost_ns(3.1, 2.4),
    )


def _hybrid_4p8e() -> PlatformSpec:
    """An asymmetric shape: 4 fast performance cores + 8 efficiency cores."""
    return PlatformSpec(
        name="hybrid-4p8e",
        sockets=(
            SocketSpec(cores=4, freq_ghz=3.8, l3_bytes=12 * MiB, peak_bw=40e9, per_core_bw=14e9),
            SocketSpec(cores=8, freq_ghz=2.4, l3_bytes=8 * MiB, peak_bw=30e9, per_core_bw=8e9),
        ),
        cross_socket_factor=1.3,
        ram_bytes=16 * GiB,
        ipc=1.8,
        l3_pressure_alpha=0.5,
        l3_max_factor=2.5,
        # Query tasks run on whichever core picks them up; scale by the
        # efficiency cores (the conservative bound on a hybrid part).
        counter_query_cost_ns=scaled_query_cost_ns(2.4, 1.8),
    )


_PRESETS = {
    "ivybridge-2x10": _ivybridge_2x10,
    "desktop-1x8": _desktop_1x8,
    "epyc-2x64": _epyc_2x64,
    "grace-1x72": _grace_1x72,
    "hybrid-4p8e": _hybrid_4p8e,
}


def platform_names() -> tuple[str, ...]:
    """All preset names, default first, the rest sorted."""
    rest = sorted(name for name in _PRESETS if name != DEFAULT_PLATFORM)
    return (DEFAULT_PLATFORM, *rest)


def get_platform(name: str) -> PlatformSpec:
    """The preset named *name* (PlatformError on miss)."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise PlatformError(
            f"unknown platform {name!r}; presets: {', '.join(platform_names())}"
        ) from None
    return factory()


def default_platform() -> PlatformSpec:
    """The paper's node — the platform every default path runs on."""
    return get_platform(DEFAULT_PLATFORM)


def resolve_platform(platform: Any | None) -> PlatformSpec:
    """Normalize any accepted platform designator to a ``PlatformSpec``.

    Accepts ``None`` (the default platform), a ``PlatformSpec``, a
    preset name, or a path to a ``.toml``/``.json`` platform file.
    """
    if platform is None:
        return default_platform()
    if isinstance(platform, PlatformSpec):
        return platform
    if isinstance(platform, str):
        if platform in _PRESETS:
            return get_platform(platform)
        if platform.endswith((".toml", ".json")) or os.path.exists(platform):
            from repro.platform.io import load_platform_file

            return load_platform_file(platform)
        raise PlatformError(
            f"unknown platform {platform!r}; presets: {', '.join(platform_names())} "
            "(or pass a path to a .toml/.json platform file)"
        )
    raise PlatformError(f"cannot resolve platform from {platform!r}")
