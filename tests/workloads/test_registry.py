"""The workload registry: discovery, presets, uniform errors."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.inncabs.suite import available_benchmarks
from repro.taskbench import TASKBENCH_PRESETS, TaskBenchBenchmark
from repro.workloads import (
    WorkloadEntry,
    available_workloads,
    get_workload,
    register_workload,
    workload_preset_params,
)


def test_registry_is_inncabs_plus_taskbench_plus_fmm():
    names = available_workloads()
    assert names == sorted(names)
    assert set(names) == set(available_benchmarks()) | {"taskbench", "fmm"}
    assert len(names) == 16


def test_inncabs_suite_stays_inncabs_only():
    """Table V's surface is the 14 Inncabs apps; the registry is the superset."""
    assert "taskbench" not in available_benchmarks()


def test_get_workload_taskbench():
    entry = get_workload("taskbench")
    assert isinstance(entry.benchmark, TaskBenchBenchmark)
    assert entry.family == "taskbench"
    assert entry.presets == TASKBENCH_PRESETS
    assert entry.description


def test_get_workload_inncabs_carries_presets():
    entry = get_workload("fib")
    assert entry.family == "inncabs"
    assert "small" in entry.presets


def test_unknown_workload_error_lists_names():
    with pytest.raises(KeyError, match="taskbench"):
        get_workload("linpack")


def test_preset_params():
    assert workload_preset_params("taskbench", "default") == {}
    assert workload_preset_params("taskbench", "small") == {"width": 8, "steps": 4}
    assert workload_preset_params("taskbench", "large") == {"width": 128, "steps": 64}


def test_unknown_preset_error_lists_choices():
    with pytest.raises(KeyError, match="small"):
        workload_preset_params("taskbench", "huge")


def test_duplicate_registration_rejected():
    entry = get_workload("fib")
    with pytest.raises(ValueError, match="already registered"):
        register_workload(WorkloadEntry(name="fib", family="test", benchmark=entry.benchmark))


def test_every_entry_is_named_by_its_key():
    for name in available_workloads():
        entry = get_workload(name)
        assert entry.name == entry.benchmark.info.name == name


LAZY_PROBE = """
import sys
import repro
from repro.workloads import WorkloadEntry, available_workloads, get_workload, register_workload

def loaded():
    return "scipy" in sys.modules, "repro.inncabs.sparselu" in sys.modules

fib = get_workload("fib")
assert loaded() == (False, False), loaded()
assert len(available_workloads()) == 16
assert loaded() == (False, False), loaded()
try:
    register_workload(WorkloadEntry(name="sparselu", family="test", benchmark=fib.benchmark))
except ValueError as exc:
    assert "already registered" in str(exc)
else:
    raise AssertionError("duplicate of an unbuilt name was accepted")
assert loaded() == (False, False), loaded()
assert get_workload("sparselu").family == "inncabs"
assert loaded() == (True, True), loaded()
"""


def test_workload_modules_load_on_first_lookup():
    """Importing the library and running fib must not pay for scipy."""
    src = Path(__file__).resolve().parents[2] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
