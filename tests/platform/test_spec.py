"""PlatformSpec validation, geometry, and lossless serialization."""

import pytest

from repro.platform.spec import KNOWN_PAPI_EVENTS, PlatformError, PlatformSpec, SocketSpec


def make_platform(**overrides):
    kwargs = {
        "name": "test-2x4",
        "sockets": (SocketSpec(cores=4), SocketSpec(cores=4)),
    }
    kwargs.update(overrides)
    return PlatformSpec(**kwargs)


# -- validation -------------------------------------------------------------


def test_rejects_empty_name_and_no_sockets():
    with pytest.raises(PlatformError, match="non-empty name"):
        make_platform(name="")
    with pytest.raises(PlatformError, match="at least one socket"):
        make_platform(sockets=())


def test_socket_validation():
    with pytest.raises(PlatformError, match="at least one core"):
        SocketSpec(cores=0)
    with pytest.raises(PlatformError, match="freq_ghz"):
        SocketSpec(cores=1, freq_ghz=0)
    with pytest.raises(PlatformError, match="l3_bytes"):
        SocketSpec(cores=1, l3_bytes=0)
    with pytest.raises(PlatformError, match="bandwidths"):
        SocketSpec(cores=1, peak_bw=-1.0)


def test_platform_scalar_validation():
    with pytest.raises(PlatformError, match="cross_socket_factor"):
        make_platform(cross_socket_factor=0.5)
    with pytest.raises(PlatformError, match="ram_bytes"):
        make_platform(ram_bytes=0)
    with pytest.raises(PlatformError, match="ipc"):
        make_platform(ipc=0)
    with pytest.raises(PlatformError, match="l3_pressure_alpha"):
        make_platform(l3_pressure_alpha=-0.1)


def test_numa_matrix_validation():
    with pytest.raises(PlatformError, match="2x2 matrix"):
        make_platform(numa_distance=((1.0,),))
    with pytest.raises(PlatformError, match="diagonal must be 1.0"):
        make_platform(numa_distance=((1.5, 2.0), (2.0, 1.0)))
    with pytest.raises(PlatformError, match=r"numa_distance\[0\]\[1\] must be >= 1"):
        make_platform(numa_distance=((1.0, 0.5), (2.0, 1.0)))
    ok = make_platform(numa_distance=[[1.0, 2.0], [2.0, 1.0]])
    assert ok.numa_distance == ((1.0, 2.0), (2.0, 1.0))  # normalized to tuples


def test_unknown_papi_events_rejected():
    with pytest.raises(PlatformError, match="unknown papi event"):
        make_platform(papi_events=("NOT_AN_EVENT",))
    subset = make_platform(papi_events=KNOWN_PAPI_EVENTS[:2])
    assert subset.papi_events == KNOWN_PAPI_EVENTS[:2]


# -- geometry ---------------------------------------------------------------


def test_geometry_even_shape():
    p = make_platform()
    assert p.total_cores == 8
    assert p.num_sockets == 2
    assert p.homogeneous
    assert [p.socket_of(i) for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert p.core_local(5) == (1, 1)
    assert list(p.core_range(1)) == [4, 5, 6, 7]


def test_geometry_uneven_shape():
    p = PlatformSpec(name="uneven", sockets=(SocketSpec(cores=3), SocketSpec(cores=5)))
    assert not p.homogeneous
    assert p.total_cores == 8
    assert [p.socket_of(i) for i in range(8)] == [0, 0, 0, 1, 1, 1, 1, 1]
    assert p.core_local(3) == (1, 0)
    assert p.socket_spec_of(7).cores == 5
    with pytest.raises(IndexError):
        p.socket_of(8)


def test_interconnect_factors():
    uniform = make_platform(cross_socket_factor=1.6)
    assert uniform.numa_factor(0, 0) == 1.0
    assert uniform.numa_factor(0, 1) == 1.6
    assert uniform.remote_factor(0) == 1.6

    single = PlatformSpec(name="one", sockets=(SocketSpec(cores=4),), cross_socket_factor=1.6)
    assert single.remote_factor(0) == 1.6  # no neighbours: the scalar default

    numa = make_platform(numa_distance=((1.0, 2.5), (1.5, 1.0)))
    assert numa.numa_factor(0, 1) == 2.5
    assert numa.numa_factor(1, 0) == 1.5  # asymmetric matrices are allowed
    assert numa.remote_factor(0) == 2.5


# -- serialization ----------------------------------------------------------


def test_json_dict_roundtrip_is_lossless():
    p = make_platform(
        cross_socket_factor=1.9,
        numa_distance=((1.0, 2.0), (2.0, 1.0)),
        ipc=2.1,
        papi_events=KNOWN_PAPI_EVENTS[:3],
    )
    assert PlatformSpec.from_json_dict(p.to_json_dict()) == p


def test_from_json_dict_schema_validation():
    with pytest.raises(PlatformError, match="missing required key"):
        PlatformSpec.from_json_dict({"name": "x"})
    with pytest.raises(PlatformError, match="unknown key"):
        PlatformSpec.from_json_dict({"name": "x", "sockets": [{"cores": 2}], "frequency": 3.0})
    with pytest.raises(PlatformError, match="unknown key"):
        PlatformSpec.from_json_dict({"name": "x", "sockets": [{"cores": 2, "l3": 1}]})
    with pytest.raises(PlatformError, match="must be a list"):
        PlatformSpec.from_json_dict({"name": "x", "sockets": "2x10"})


def test_describe_mentions_every_socket():
    text = make_platform(numa_distance=((1.0, 2.0), (2.0, 1.0))).describe()
    assert "socket#0" in text and "socket#1" in text
    assert "numa distances" in text
