"""Tests of the benchmark's own code: statistics, spans, the gate, the traced pass and the probe.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import gc
import json
import os
import random

import pytest

from perfbench import exact, hostspeed, run, serving
from perfbench.exact import ExactWorkload, Input
from perfbench.fingerprint import Gate, fingerprint
from perfbench.layers import instrumented, recorded_engines
from perfbench.quantiles import percentile, samples_beyond, tail_percentile
from perfbench.spans import Patcher, Tracer, self_times


# -- order statistics ------------------------------------------------------


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(list(range(11)), 90) == pytest.approx(9.0)


# -- spans -----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    #          parent [0, 100]; children overlap each other and run past the parent.
    starts = [0, 10, 30, 80, 35]
    ends = [100, 40, 60, 120, 50]
    parents = [-1, 0, 0, 0, 2]  # the last span is a grandchild
    own = self_times(starts, ends, parents)
    # covered: [10, 60] and [80, 100] -> 70 of the parent's 100 ns
    assert own[0] == 30
    assert own[1] == 30 and own[3] == 40
    assert own[2] == 30 - 15  # the grandchild covers 15 ns of it
    assert own[4] == 15


def test_wrapped_calls_nest_and_summarise():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    summary = tracer.summary()
    assert summary["inner"] == {"count": 2, "total_ns": 20, "self_ns": 20}
    assert summary["outer"] == {"count": 1, "total_ns": 50, "self_ns": 30}
    assert list(tracer.parent) == [-1, 0, 0]


def test_patcher_restores_on_error_and_deletes_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    original_g = Child.__dict__["g"]
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            assert patcher.wrap(Child, "f", lambda fn: lambda self: "wrapped " + fn(self))
            assert patcher.wrap(Child, "g", lambda fn: lambda self: "wrapped " + fn(self))
            assert not patcher.wrap(Child, "missing", lambda fn: fn)
            assert Child().f() == "wrapped base" and Child().g() == "wrapped child"
            raise RuntimeError
    assert "f" not in Child.__dict__ and Child().f() == "base"
    assert Child.__dict__["g"] is original_g


def _wrap_targets():
    import repro.api
    import repro.campaign.engine
    from repro.exec.interp import EffectInterpreter
    from repro.exec.probes import ProbeBus
    from repro.kernel.scheduler import StdRuntime
    from repro.platform.resource import ResourceModel
    from repro.profiler.builder import ProfileBuilder
    from repro.runtime.scheduler import HpxRuntime
    from repro.simcore.events import Engine, Timer
    from repro.telemetry.pipeline import TelemetryPipeline

    return (
        repro.api,
        repro.campaign.engine,
        repro.api.Session,
        EffectInterpreter,
        ProbeBus,
        StdRuntime,
        HpxRuntime,
        ResourceModel,
        ProfileBuilder,
        Engine,
        Timer,
        TelemetryPipeline,
    )


def _observed_run(runtime):
    from repro.api import Session, WorkloadSpec
    from repro.campaign.artifact import run_result_to_dict

    session = Session(runtime=runtime, cores=4)
    result = session.run(
        WorkloadSpec.parse("fib:n=12"),
        counters=("/threads{locality#0/worker-thread#*}/count/cumulative",),
        query_interval_ns=20_000,
        profile=True,
    )
    return run_result_to_dict(result)


@pytest.mark.parametrize("runtime", ["hpx", "std"])
def test_traced_pass_is_transparent_and_restores_every_attribute(runtime):
    targets = _wrap_targets()
    before = [dict(vars(t)) for t in targets]
    plain = _observed_run(runtime)

    tracer = Tracer()
    with instrumented(tracer) as counts:
        changed = [
            name
            for target, snap in zip(targets, before)
            for name, value in vars(target).items()
            if snap.get(name) is not value
        ]
        traced = _observed_run(runtime)
    with recorded_engines() as engines:
        recorded = _observed_run(runtime)

    assert changed, "the traced pass wrapped nothing"
    for target, snap in zip(targets, before):
        now = dict(vars(target))
        assert now.keys() == snap.keys(), target
        assert all(now[name] is value for name, value in snap.items()), target
    assert fingerprint(traced) == fingerprint(plain) == fingerprint(recorded)
    assert len(engines) == 1 and engines[0].dispatched == plain["engine_events"]
    summary = tracer.summary()
    layer = "runtime" if runtime == "hpx" else "kernel"
    assert summary["exec.step"]["count"] > 0 and summary["probes.emit"]["count"] > 0
    assert any(name.startswith(layer + ".") for name in summary)
    assert counts.scheduled > 0 and counts.sample_rows > 0


# -- the gate and the exit code ---------------------------------------------


def test_gate_flags_changes_across_repeats_and_against_expected():
    fp = {"exec_time_ns": 1, "counters": "a"}
    gate = Gate({"x": fp})
    assert gate.observe("x", fp, "first")
    assert not gate.observe("x", {**fp, "exec_time_ns": 2}, "second")
    assert len(gate.mismatches) == 2  # differs from the first run and from the expected value
    assert not Gate({}).observe("y", fp, "unknown label")


TINY = ExactWorkload(
    "tiny", "hpx", lambda rng: [Input("fib", {"n": 10, "seed": rng.getrandbits(31)})]
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(exact.WORKLOADS, "tiny", TINY)
    monkeypatch.setitem(run.RUNNERS, "tiny", exact)
    monkeypatch.setattr(exact, "SETUP_REPEATS", 1)
    monkeypatch.setattr(exact, "MIN_ROUNDS", 2)
    monkeypatch.setattr(exact, "HITS_PER_RUN", 1)
    return TINY


def _result_line(capsys):
    text = capsys.readouterr().out
    return json.loads(text.strip().splitlines()[-1]), text


def test_matching_fingerprints_exit_zero(tiny, monkeypatch, capsys):
    good = exact.record_expected("tiny", 1)
    monkeypatch.setattr(run, "load_expected", lambda workload, seed: good)
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0"]) == 0
    line, _ = _result_line(capsys)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2


def test_forced_fingerprint_mismatch_exits_non_zero(tiny, monkeypatch, capsys):
    good = exact.record_expected("tiny", 1)
    forced = {label: {**fp, "exec_time_ns": fp["exec_time_ns"] + 1} for label, fp in good.items()}
    monkeypatch.setattr(run, "load_expected", lambda workload, seed: forced)
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0"]) == 1
    line, text = _result_line(capsys)
    assert not line["correct"] and line["failed"] == 0 and "MISMATCH fib" in text


def test_raising_cell_is_counted_as_failed(tiny, monkeypatch, capsys):
    calls = iter(range(100))
    original = ExactWorkload.run

    def flaky(self, session, inp):
        if next(calls) == 1:
            raise RuntimeError("injected")
        return original(self, session, inp)

    monkeypatch.setattr(run, "load_expected", lambda workload, seed: None)
    monkeypatch.setattr(ExactWorkload, "run", flaky)
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0"]) == 1
    line, text = _result_line(capsys)
    assert (line["failed"], line["attempted"]) == (1, 2) and not line["correct"]
    assert "FAILED fib" in text and "injected" in text


# -- the serve request list ----------------------------------------------------


def test_request_list_is_seeded_and_mixes_every_kind():
    a, b = serving.make_requests(5, 400), serving.make_requests(5, 400)
    assert a == b and a != serving.make_requests(6, 400)
    kinds = {req.kind for req in a}
    assert kinds == {"cold", "cohort", "hot", "legacy"}
    seeds = [req.body["seed"] for req in a if req.kind in ("cold", "cohort")]
    assert len(seeds) == len(set(seeds))
    first_canonical = {}
    for i, req in enumerate(a):
        if req.kind == "hot":
            first_canonical.setdefault(req.cell, i)
        if req.kind == "legacy":
            assert first_canonical[req.cell] < i
            assert "benchmark" in req.body and "params" in req.body


def test_uts_input_size_stays_in_range():
    from repro.inncabs.uts import uts_reference_count

    for seed in range(3):
        uts = exact.hpx_fine_inputs(random.Random(seed))[1]
        size = uts_reference_count(uts.params["seed"], **exact.UTS_SHAPE)
        assert exact.UTS_NODES[0] <= size <= exact.UTS_NODES[1]


# -- the host-speed probe ------------------------------------------------------


def test_probe_checks_its_result_and_leaves_the_collector_as_it_was(monkeypatch):
    assert hostspeed.simulate() == hostspeed.PROBE_DONE
    assert hostspeed.probe() > 0 and gc.isenabled()
    gc.disable()
    try:
        hostspeed.probe()
        assert not gc.isenabled()
    finally:
        gc.enable()
    monkeypatch.setattr(hostspeed, "PROBE_DONE", hostspeed.PROBE_DONE + 1)
    with pytest.raises(RuntimeError, match="probe finished"):
        hostspeed.probe()


def test_scaling_keeps_a_program_change_and_takes_out_the_host():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scaled(2.0, nominal) == pytest.approx(2.0)
    # the host at half speed: the run and the probe both take twice as long
    assert hostspeed.scaled(4.0, 2 * nominal) == pytest.approx(2.0)
    # the program twice as fast on the same host
    assert hostspeed.scaled(1.0, nominal) == pytest.approx(1.0)


def test_serve_pinning_is_undone():
    before = os.sched_getaffinity(0)
    with serving.one_core():
        assert os.sched_getaffinity(0) == {min(before)}
    assert os.sched_getaffinity(0) == before
