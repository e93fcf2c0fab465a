"""The streaming profiler against the networkx oracle and the Session path."""

import json

import pytest

from repro.api import Session
from repro.exec.modes import CohortIneligibleError
from repro.profiler import ProfileBuilder, ProfileConfig, TraceRecorder, build_profile
from repro.profiler.whatif import WhatIfSpec
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.workloads import WorkloadSpec

from tests.conftest import fib_body
from tests.trace.dag_oracle import build_task_dag, work_span


def profiled(body, *args, cores=4, keep_events=False):
    """Run *body* with the ProfileBuilder and the legacy recorder attached
    side by side — every run is also a multi-subscriber composition test."""
    engine = Engine()
    rt = HpxRuntime(engine, Machine(), num_workers=cores)
    builder = ProfileBuilder(rt, keep_events=keep_events)
    recorder = TraceRecorder(rt)
    with builder, recorder:
        value = rt.run_to_completion(body, *args)
    return builder, recorder, rt, engine, value


def wide_fan(ctx):
    futs = []
    for _ in range(16):
        futs.append((yield ctx.async_(fan_leaf)))
    yield ctx.wait_all(futs)
    return None


def fan_leaf(ctx):
    yield ctx.compute(10_000)
    return None


# -- oracle equality ---------------------------------------------------------


@pytest.mark.parametrize("body,args", [(fib_body, (10,)), (wide_fan, ())])
def test_builder_matches_networkx_oracle(body, args):
    builder, recorder, _rt, _e, _v = profiled(body, *args)
    analysis = builder.analysis()
    oracle = work_span(recorder)
    assert analysis.work_ns == oracle.work_ns
    assert analysis.span_ns == oracle.span_ns
    assert analysis.tasks == oracle.tasks
    assert analysis.edges == oracle.edges
    graph = build_task_dag(recorder)
    assert 2 * analysis.tasks == graph.number_of_nodes()


def test_critical_path_sums_to_span():
    builder, _rec, _rt, _e, _v = profiled(fib_body, 10)
    analysis = builder.analysis()
    assert sum(step.busy_ns for step in analysis.critical_path) == analysis.span_ns
    assert sum(ns for _body, ns in analysis.critical_body_ns) == analysis.span_ns


def test_flat_fold_equals_post_mortem_build_profile():
    builder, recorder, _rt, _e, _v = profiled(fib_body, 10)
    live = {p.name: (p.tasks, p.activations, p.busy_ns) for p in builder._acc.profiles.values()}
    post = {
        name: (p.tasks, p.activations, p.busy_ns)
        for name, p in build_profile(recorder).items()
    }
    assert live == post


def test_scaled_analysis_at_factor_one_is_identical():
    builder, _rec, _rt, _e, _v = profiled(fib_body, 10)
    base = builder.analysis()
    scaled = builder.scaled_analysis("fib_body", 1.0)
    assert scaled == base


def test_parallelism_points_are_well_formed():
    builder, _rec, _rt, engine, _v = profiled(fib_body, 10)
    points = builder.parallelism()
    assert points, "a real run has busy intervals"
    times = [p.time_ns for p in points]
    assert times == sorted(times)
    assert all(p.active >= 0 for p in points)
    assert points[-1].active == 0  # everything closed at the end
    assert max(p.active for p in points) <= 4  # never more than the workers


# -- the Session path --------------------------------------------------------


def _run(spec, *, cores=4, **kwargs):
    session = Session(runtime="hpx", cores=cores)
    return session.run(WorkloadSpec.parse(spec), collect_counters=False, **kwargs)


def test_session_profile_reports_the_run():
    result = _run("fib:n=12", profile=True)
    profile = result.profile
    assert profile is not None
    assert profile.makespan_ns == result.exec_time_ns
    assert profile.tasks == result.tasks_created
    assert 0 < profile.span_ns <= profile.work_ns
    assert profile.average_parallelism > 1
    assert profile.parallelism.peak <= 4
    assert "_fib_task" in profile.body_names()
    text = profile.render(top=5)
    assert "critical path" in text and "_fib_task" in text


def test_session_profile_is_deterministic():
    a = _run("fib:n=12", profile=True).profile
    b = _run("fib:n=12", profile=True).profile
    assert a.to_json_dict(include_series=True) == b.to_json_dict(include_series=True)
    json.dumps(a.to_json_dict())  # JSON-serializable


def test_unprofiled_run_is_not_perturbed():
    bare = _run("fib:n=10")
    again = _run("fib:n=10")
    assert bare.profile is None
    assert bare.exec_time_ns == again.exec_time_ns
    profiled_run = _run("fib:n=10", profile=True)
    # Profiling charges per-event instrumentation, like the recorder.
    assert profiled_run.exec_time_ns > bare.exec_time_ns


def test_profile_keep_events_feeds_chrome_export():
    from repro.trace.export import to_chrome_trace

    result = _run("fib:n=10", profile=ProfileConfig(keep_events=True))
    events = result.profile.events
    assert events and len(events) == result.profile.trace_events
    payload = json.loads(to_chrome_trace(list(events)))
    assert any(e["ph"] == "X" for e in payload["traceEvents"])


def test_cohort_mode_rejects_profiling():
    with pytest.raises(CohortIneligibleError):
        _run("fib:n=12", mode="cohort", profile=True)


def test_cohort_mode_rejects_work_rewriter():
    from repro.profiler.whatif import BodyRewriter

    with pytest.raises(CohortIneligibleError):
        _run("fib:n=12", mode="cohort", work_rewriter=BodyRewriter("_fib_task", 0.5))


# -- what-if experiments -----------------------------------------------------


def test_what_if_zero_percent_is_bit_identical():
    result = _run(
        "fib:n=12",
        profile=ProfileConfig(what_if=(WhatIfSpec(body="_fib_task", speedup_pct=0),)),
    )
    w = result.profile.what_if[0]
    assert w.rewritten_computes > 0
    assert w.predicted_makespan_ns == w.baseline_makespan_ns == w.replayed_makespan_ns
    assert w.scaled_work_ns == result.profile.work_ns
    assert w.scaled_span_ns == result.profile.span_ns


def test_what_if_prediction_matches_replay_on_coarse_grains():
    # Coarse-grain Task Bench: overheads are tiny next to the 40 µs
    # grains, so the Brent prediction lands within a few percent of the
    # replayed truth (fine-grain workloads are looser; see the docs).
    result = _run(
        "taskbench:shape=trivial,width=12,steps=8,grain_ns=40000",
        profile=ProfileConfig(what_if=(WhatIfSpec(body="_node_task", speedup_pct=50),)),
    )
    w = result.profile.what_if[0]
    assert w.replayed_makespan_ns < w.baseline_makespan_ns
    assert abs(w.prediction_error) < 0.10
    assert w.realized_speedup > 1.5


def test_what_if_substring_resolves_body():
    result = _run(
        "fib:n=10",
        profile=ProfileConfig(what_if=(WhatIfSpec(body="fib", speedup_pct=50),)),
    )
    assert result.profile.what_if[0].body == "_fib_task"


def test_what_if_render_mentions_the_experiment():
    result = _run(
        "fib:n=10",
        profile=ProfileConfig(what_if=(WhatIfSpec(body="fib", speedup_pct=50),)),
    )
    text = result.profile.render()
    assert "what-if" in text and "-50%" in text
