"""CampaignSpec: cell enumeration, cache keys, serialization."""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign.spec import CampaignSpec, cell_cache_key
from repro.experiments.config import ExperimentConfig
from repro.kernel.config import StdParams
from repro.runtime.config import HpxParams


def make_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        benchmarks=("fib", "sort"),
        runtimes=("hpx", "std"),
        core_counts=(1, 2),
        samples=2,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def test_cells_enumerated_in_canonical_order():
    spec = make_spec()
    cells = list(spec.cells())
    assert len(cells) == 2 * 2 * 2 * 2
    assert [c.benchmark for c in cells[:8]] == ["fib"] * 8
    first = cells[0]
    assert (first.runtime, first.cores, first.sample) == ("hpx", 1, 0)
    # seeds vary per sample exactly like the serial harness always did
    assert cells[0].seed == spec.seed
    assert cells[1].seed == spec.seed + 1


def test_cell_params_overlay_preset_and_seed():
    spec = make_spec(preset="small", params={"cutoff": 99})
    cell = next(iter(spec.cells()))
    params = spec.cell_params(cell)
    assert params["n"] == 12  # fib small preset
    assert params["cutoff"] == 99  # explicit override wins
    assert params["seed"] == cell.seed


def test_unknown_runtime_rejected():
    with pytest.raises(ValueError, match="unknown runtime"):
        make_spec(runtimes=("hpx", "tbb"))


def test_cache_key_stable_across_matrix_shape():
    """Growing the campaign must not invalidate existing cells."""
    small = make_spec(benchmarks=("fib",), core_counts=(1,))
    big = make_spec(benchmarks=("fib", "sort"), core_counts=(1, 2, 4))
    cell = next(iter(small.cells()))
    assert cell_cache_key(small, cell) == cell_cache_key(big, cell)


def test_cache_key_sensitive_to_inputs():
    spec = make_spec()
    cell = next(iter(spec.cells()))
    baseline = cell_cache_key(spec, cell)
    assert cell_cache_key(make_spec(seed=1), dataclasses.replace(cell, seed=1)) != baseline
    assert cell_cache_key(make_spec(params={"n": 9}), cell) != baseline
    faster = dataclasses.replace(spec.hpx, context_switch_ns=1)
    assert cell_cache_key(make_spec(hpx=faster), cell) != baseline


def test_cache_key_ignores_other_runtimes_params():
    """An hpx cell survives a std::async recalibration, and vice versa."""
    spec = make_spec()
    hpx_cell = next(c for c in spec.cells() if c.runtime == "hpx")
    std_cell = next(c for c in spec.cells() if c.runtime == "std")
    retuned = make_spec(
        std=StdParams(thread_create_ns=1),
        hpx=HpxParams(task_create_ns=1),
    )
    assert cell_cache_key(spec, hpx_cell) != cell_cache_key(retuned, hpx_cell)
    assert cell_cache_key(spec, std_cell) != cell_cache_key(retuned, std_cell)
    only_std_retuned = make_spec(std=StdParams(thread_create_ns=1))
    assert cell_cache_key(spec, hpx_cell) == cell_cache_key(only_std_retuned, hpx_cell)
    only_hpx_retuned = make_spec(hpx=HpxParams(task_create_ns=1))
    assert cell_cache_key(spec, std_cell) == cell_cache_key(only_hpx_retuned, std_cell)


def test_from_config_matches_harness_defaults():
    config = ExperimentConfig(samples=4, core_counts=(1, 8))
    spec = CampaignSpec.from_config(config, benchmarks=("uts",), runtimes=("hpx",))
    assert spec.core_counts == (1, 8)
    assert spec.samples == 4
    assert spec.seed == config.seed
    assert spec.platform == config.platform
    assert spec.std == config.std  # the scaled-budget StdParams


def test_json_roundtrip_preserves_identity():
    spec = make_spec(preset="small", params={"n": 10}, counter_specs=("/runtime/uptime",))
    clone = CampaignSpec.from_json_dict(spec.to_json_dict())
    assert clone == spec
    assert clone.spec_id() == spec.spec_id()


def test_cache_key_sensitive_to_platform():
    """Two cells differing only in platform must never share a result."""
    from repro.platform import get_platform

    spec = make_spec()
    cell = next(iter(spec.cells()))
    keys = {cell_cache_key(spec, cell)}
    for name in ("desktop-1x8", "epyc-2x64", "hybrid-4p8e"):
        keys.add(cell_cache_key(make_spec(platform=get_platform(name)), cell))
    assert len(keys) == 4
