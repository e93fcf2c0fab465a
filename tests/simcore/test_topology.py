"""Topology and thread binding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simcore.topology import BindMode, Topology


@pytest.fixture
def topo():
    return Topology()


def test_bind_mode_parse():
    assert BindMode.parse("compact") is BindMode.COMPACT
    assert BindMode.parse("SCATTER") is BindMode.SCATTER
    assert BindMode.parse("Balanced") is BindMode.BALANCED


def test_bind_mode_parse_error():
    with pytest.raises(ValueError, match="compact"):
        BindMode.parse("zigzag")


def test_compact_fills_socket0_first(topo):
    """The paper pins threads so sockets fill first."""
    assert topo.binding(4) == [0, 1, 2, 3]
    binding = topo.binding(12)
    assert binding[:10] == list(range(10))
    assert binding[10:] == [10, 11]


def test_scatter_round_robins(topo):
    assert topo.binding(4, BindMode.SCATTER) == [0, 10, 1, 11]


def test_balanced_splits_evenly(topo):
    assert topo.binding(4, BindMode.BALANCED) == [0, 1, 10, 11]
    assert topo.binding(5, BindMode.BALANCED) == [0, 1, 2, 10, 11]


def test_binding_bounds(topo):
    with pytest.raises(ValueError):
        topo.binding(0)
    with pytest.raises(ValueError):
        topo.binding(21)
    assert len(topo.binding(20)) == 20


def test_describe_core(topo):
    assert topo.describe_core(0) == "socket#0/core#0"
    assert topo.describe_core(13) == "socket#1/core#3"


def test_sockets_used(topo):
    assert topo.sockets_used([0, 1, 2]) == {0}
    assert topo.sockets_used([5, 15]) == {0, 1}


@given(
    st.integers(min_value=1, max_value=20),
    st.sampled_from(list(BindMode)),
)
def test_property_binding_valid_and_distinct(n, mode):
    topo = Topology()
    binding = topo.binding(n, mode)
    assert len(binding) == n
    assert len(set(binding)) == n
    assert all(0 <= c < 20 for c in binding)


@given(st.integers(min_value=1, max_value=10))
def test_property_compact_single_socket_below_boundary(n):
    topo = Topology()
    assert topo.sockets_used(topo.binding(n, BindMode.COMPACT)) == {0}


def test_binding_smt_within_physical_cores(topo):
    assert topo.binding_smt(8, smt=2) == topo.binding(8)


def test_binding_smt_wraps_onto_occupied_cores(topo):
    binding = topo.binding_smt(25, smt=2)
    assert len(binding) == 25
    assert binding[:20] == list(range(20))
    assert binding[20:] == [0, 1, 2, 3, 4]


def test_binding_smt_bounds(topo):
    with pytest.raises(ValueError):
        topo.binding_smt(41, smt=2)
    with pytest.raises(ValueError):
        topo.binding_smt(4, smt=0)
    assert len(topo.binding_smt(40, smt=2)) == 40
