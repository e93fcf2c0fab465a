"""Memory-controller contention model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.platform.resource import MemoryController


def make(peak=40e9, per_core=8e9, cross=1.6):
    return MemoryController(0, peak_bw=peak, per_core_bw=per_core, cross_socket_factor=cross)


def test_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        MemoryController(0, peak_bw=0, per_core_bw=1)
    with pytest.raises(ValueError):
        MemoryController(0, peak_bw=1, per_core_bw=-1)


def test_single_stream_gets_per_core_bw():
    mc = make()
    assert mc.effective_bandwidth(1) == 8e9


def test_many_streams_share_peak():
    mc = make()
    assert mc.effective_bandwidth(10) == 4e9  # 40/10
    assert mc.effective_bandwidth(4) == 8e9  # per-core still the limit (40/4=10>8)


def test_service_time_basic():
    mc = make()
    # 8 GB/s -> 1 byte per 0.125 ns; 8000 bytes -> 1000 ns.
    assert mc.service_time_ns(8000) == 1000


def test_service_time_zero_bytes():
    assert make().service_time_ns(0) == 0


def test_service_time_under_contention():
    mc = make()
    for _ in range(9):
        mc.stream_started(1000)
    # 10th stream: bandwidth = 40e9/10 = 4 GB/s -> 2000 ns for 8000 B.
    assert mc.service_time_ns(8000) == 2000


def test_cross_socket_penalty():
    mc = make()
    local = mc.service_time_ns(8000, cross_socket_fraction=0.0)
    remote = mc.service_time_ns(8000, cross_socket_fraction=1.0)
    assert remote == round(local * 1.6)


def test_cross_socket_fraction_validated():
    with pytest.raises(ValueError):
        make().service_time_ns(100, cross_socket_fraction=1.5)


def test_stream_accounting():
    mc = make()
    mc.stream_started(1000, cross_socket_fraction=0.5)
    assert mc.active_streams == 1
    assert mc.stats.bytes_total == 1000
    assert mc.stats.bytes_cross_socket == 500
    assert mc.stats.segments == 1
    mc.stream_finished()
    assert mc.active_streams == 0


def test_unbalanced_finish_rejected():
    with pytest.raises(RuntimeError):
        make().stream_finished()


@given(st.integers(min_value=1, max_value=10**9))
def test_property_service_time_monotonic_in_bytes(nbytes):
    mc = make()
    assert mc.service_time_ns(nbytes) <= mc.service_time_ns(nbytes * 2)


@given(st.integers(min_value=1, max_value=64))
def test_property_contention_never_speeds_up(streams):
    mc = make()
    assert mc.effective_bandwidth(streams) >= mc.effective_bandwidth(streams + 1)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0, max_value=1),
)
def test_property_cross_socket_never_faster(nbytes, fraction):
    mc = make()
    assert mc.service_time_ns(nbytes, cross_socket_fraction=fraction) >= mc.service_time_ns(nbytes)
