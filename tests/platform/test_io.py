"""Platform files: TOML/JSON round-trips and load-time validation."""

import pytest

from repro.platform.io import load_platform_file, platform_to_toml, save_platform_file
from repro.platform.presets import get_platform, platform_names
from repro.platform.spec import PlatformError, PlatformSpec, SocketSpec


@pytest.mark.parametrize("name", platform_names())
@pytest.mark.parametrize("suffix", [".toml", ".json"])
def test_every_preset_roundtrips_through_files(tmp_path, name, suffix):
    spec = get_platform(name)
    path = save_platform_file(spec, tmp_path / f"{name}{suffix}")
    assert load_platform_file(path) == spec


@pytest.mark.parametrize("suffix", [".toml", ".json"])
def test_machinespec_roundtrips_through_files(tmp_path, suffix):
    """A custom even-shape node (no preset) -> file -> node, losslessly."""
    socket = SocketSpec(
        cores=6, freq_ghz=3.2, l3_bytes=20 * 1024 * 1024, peak_bw=55e9, per_core_bw=9.5e9
    )
    spec = PlatformSpec(
        name="custom-2x6",
        sockets=(socket, socket),
        cross_socket_factor=1.7,
        ram_bytes=128 * 1024**3,
        ipc=1.9,
        l3_pressure_alpha=0.4,
        l3_max_factor=2.2,
    )
    path = save_platform_file(spec, tmp_path / f"node{suffix}")
    assert load_platform_file(path) == spec


def test_toml_text_is_humane():
    text = platform_to_toml(get_platform("hybrid-4p8e"))
    assert text.count("[[sockets]]") == 2
    assert 'name = "hybrid-4p8e"' in text


def test_load_rejects_bad_suffix_and_bad_content(tmp_path):
    bad = tmp_path / "node.yaml"
    bad.write_text("name: x\n")
    with pytest.raises(PlatformError, match="must end in .toml or .json"):
        load_platform_file(bad)
    with pytest.raises(PlatformError, match="cannot read"):
        load_platform_file(tmp_path / "missing.toml")
    broken = tmp_path / "node.json"
    broken.write_text("{not json")
    with pytest.raises(PlatformError, match="invalid JSON"):
        load_platform_file(broken)
    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2]")
    with pytest.raises(PlatformError, match="table/object at top level"):
        load_platform_file(toplevel)


def test_loaded_files_get_schema_validation(tmp_path):
    path = tmp_path / "node.toml"
    path.write_text('name = "x"\nfrequency = 3.0\n\n[[sockets]]\ncores = 2\n')
    with pytest.raises(PlatformError, match="unknown key"):
        load_platform_file(path)
