"""One-call session facade — the front door of the reproduction.

Wires an engine, a simulated machine, a runtime, and the counter stack
together behind two calls::

    from repro.api import Session, WorkloadSpec

    session = Session(runtime="hpx", cores=8)
    result = session.run(
        WorkloadSpec.parse("fib"), counters=["/threads{locality#0/total}/idle-rate"]
    )
    print(result.exec_time_ms, result.counters)

A :class:`Session` fixes the *environment* (machine spec, runtime kind,
default core count, runtime parameters, event-engine factory); each
:meth:`Session.run` executes one benchmark on a fresh engine and
machine, so runs never share simulated state and remain bit-for-bit
deterministic.

Both runtimes implement :class:`repro.exec.backend.SchedulerBackend`,
so the run path is the same for either: build the backend, attach the
counter stack to its probe bus, run the engine, read the results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Mapping, Sequence

from repro.counters.base import CounterEnvironment
from repro.counters.providers import build_registry
from repro.exec.cohort import CohortEngine
from repro.exec.errors import DeadlockError
from repro.exec.modes import CohortIneligibleError, ExecutionMode, resolve_mode
from repro.experiments.config import DEFAULT_COUNTERS, RUNTIMES, ExperimentConfig
from repro.experiments.runner import RunResult
from repro.inncabs.base import effective_locality_factor
from repro.kernel.config import StdParams
from repro.kernel.scheduler import StdRuntime
from repro.papi.hw import PapiSubstrate
from repro.platform.presets import resolve_platform
from repro.platform.spec import PlatformSpec
from repro.profiler.builder import ProfileBuilder, ProfileConfig
from repro.profiler.whatif import (
    BodyRewriter,
    WhatIfResult,
    predict_makespan_ns,
    resolve_body,
)
from repro.runtime.config import HpxParams
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.telemetry.pipeline import DEFAULT_BUFFER_LIMIT, TelemetryConfig, TelemetryPipeline
from repro.workloads import WorkloadSpec, as_workload_spec, get_workload

__all__ = ["ProfileConfig", "Session", "RunResult", "TelemetryConfig", "WorkloadSpec"]


class Session:
    """A configured simulation environment; ``run()`` executes benchmarks.

    Parameters
    ----------
    runtime:
        ``"hpx"`` for the HPX-style user-level task runtime, ``"std"``
        for the ``std::async`` kernel-thread model.
    cores:
        Default worker/core count for :meth:`run` (overridable per run).
    platform:
        The simulated node: a preset name (``"epyc-2x64"``), a path to
        a platform file (``.toml``/``.json``) or a
        :class:`~repro.platform.spec.PlatformSpec`.  Defaults to the
        paper's Table III node (``"ivybridge-2x10"``).
    hpx_params / std_params:
        Runtime cost models; default to the calibrated paper values.
    config:
        A full :class:`ExperimentConfig` to start from instead of the
        defaults; ``platform``/``hpx_params``/``std_params`` still
        override its fields when given.
    engine_factory:
        Zero-argument callable building the discrete-event engine for
        each run.  Defaults to :class:`repro.simcore.events.Engine`;
        the equivalence tests pass the legacy reference engine here to
        check that both engines give bit-identical results.
    telemetry:
        Default :class:`~repro.telemetry.pipeline.TelemetryConfig` for
        every :meth:`run`: counter set, periodic sampling interval,
        sinks and buffering.  Overridable per run.
    """

    def __init__(
        self,
        *,
        runtime: str = "hpx",
        cores: int = 1,
        platform: PlatformSpec | str | None = None,
        hpx_params: HpxParams | None = None,
        std_params: StdParams | None = None,
        config: ExperimentConfig | None = None,
        engine_factory: Callable[[], Any] | None = None,
        telemetry: TelemetryConfig | None = None,
    ) -> None:
        if runtime not in RUNTIMES:
            expected = ", ".join(RUNTIMES)
            raise ValueError(f"unknown runtime {runtime!r}; expected one of {expected}")
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self.runtime = runtime
        self.cores = cores
        base = config or ExperimentConfig()
        overrides: dict[str, Any] = {}
        if platform is not None:
            overrides["platform"] = resolve_platform(platform)
        if hpx_params is not None:
            overrides["hpx"] = hpx_params
        if std_params is not None:
            overrides["std"] = std_params
        self.config = replace(base, **overrides) if overrides else base
        self.engine_factory: Callable[[], Any] = engine_factory or Engine
        self.telemetry = telemetry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(runtime={self.runtime!r}, cores={self.cores})"

    # ------------------------------------------------------------------

    def run(
        self,
        benchmark: WorkloadSpec,
        *,
        params: Mapping[str, Any] | None = None,
        cores: int | None = None,
        mode: str | ExecutionMode | None = None,
        counters: Sequence[str] | None = None,
        collect_counters: bool = True,
        keep_result: bool = False,
        query_interval_ns: int | None = None,
        query_sink: Any = None,
        telemetry: TelemetryConfig | None = None,
        profile: ProfileConfig | bool | None = None,
        work_rewriter: Callable[[Any, Any], Any] | None = None,
    ) -> RunResult:
        """Run one workload to completion; returns a :class:`RunResult`.

        ``benchmark`` is a :class:`~repro.workloads.WorkloadSpec` (its
        canonical string spelling — ``"taskbench:shape=fft,width=8"``
        — parses to one via ``WorkloadSpec.parse``).  The workload is
        resolved through the :mod:`repro.workloads` registry;
        ``params=`` overlays the spec's own parameters.

        ``mode`` selects the execution mode (``"exact"`` — the default
        discrete-event path — or ``"cohort"`` — the mesoscale engine;
        see :mod:`repro.exec.modes`).  It can equally travel as a
        ``mode`` workload parameter; the keyword wins when both are
        given.  Cohort mode requires the workload to declare a cohort
        plan, else :class:`~repro.exec.modes.CohortIneligibleError` is
        raised before any simulation state is built.

        ``counters`` is a sequence of counter-name specs to collect
        (defaults to the paper's software + PAPI set).  Counters read
        the backend's probe bus, so they work on both runtimes.
        ``collect_counters=False`` disables instrumentation entirely
        (the Section V-C overhead experiment measures exactly this
        difference); ``query_interval_ns`` additionally samples the
        active counters on a fixed in-band interval during the run.

        Every counter reading flows through one
        :class:`~repro.telemetry.pipeline.TelemetryPipeline`
        (``telemetry=`` overrides the session's default config): the
        result carries the full sample frame as ``result.telemetry``
        and its final totals as the legacy ``result.counters`` dict,
        and configured sinks (CSV, JSONL, Chrome-trace, ...) stream
        every sample as it is recorded.

        ``profile`` attaches the causal profiler
        (:class:`~repro.profiler.builder.ProfileConfig`, or ``True``
        for its defaults): the result carries a
        :class:`~repro.profiler.report.RunProfile` as
        ``result.profile`` (critical path, per-body flat profile,
        logical parallelism), the ``/profiler{...}`` counters become
        available, and any ``what_if`` experiments are validated by
        replaying the run with rewritten work costs.  Requesting a
        ``/profiler`` counter implies ``profile=True``.  Profiling and
        ``work_rewriter`` are exact-mode only — cohort runs collapse
        task populations and have no per-task DAG — and raise
        :class:`~repro.exec.modes.CohortIneligibleError` under
        ``mode="cohort"``.  Note a profiled run is *not* bit-identical
        to an unprofiled one (each trace event charges instrumentation,
        like the recorder), which is why what-if replays profile too.
        """
        config = self.config
        tele = telemetry if telemetry is not None else self.telemetry
        ncores = self.cores if cores is None else cores
        workload = as_workload_spec(benchmark)
        bench = get_workload(workload.name).benchmark
        root_fn, root_args, merged = workload.build(params)
        exec_mode = resolve_mode(mode if mode is not None else merged.get("mode"))

        profile_cfg = ProfileConfig.coerce(profile)
        if profile_cfg is None and collect_counters:
            # Asking for a /profiler counter implies profiling.
            specs_requested = counters
            if specs_requested is None and tele is not None:
                specs_requested = tele.counters
            if specs_requested and any(s.startswith("/profiler") for s in specs_requested):
                profile_cfg = ProfileConfig()
        if exec_mode is ExecutionMode.COHORT and (
            profile_cfg is not None or work_rewriter is not None
        ):
            raise CohortIneligibleError(
                "causal profiling and what-if replays are exact-mode only: cohort "
                "runs collapse task populations and have no per-task DAG to "
                "profile or rewrite; run with mode='exact'"
            )

        plan = None
        if exec_mode is ExecutionMode.COHORT:
            plan = bench.cohort_plan(merged)
            if plan is None:
                raise CohortIneligibleError(
                    f"workload {workload.name!r} declares no cohort plan for these "
                    "parameters; run it in exact mode"
                )

        engine = self.engine_factory()
        machine = Machine(config.platform)
        out = RunResult(
            benchmark=workload.name,
            runtime=self.runtime,
            cores=ncores,
            mode=exec_mode.value,
        )

        rt: Any
        if self.runtime == "hpx":
            rt = HpxRuntime(
                engine,
                machine,
                num_workers=ncores,
                params=config.hpx,
                locality_traffic_factor=effective_locality_factor(
                    bench.info.hpx_locality_factor, ncores
                ),
            )
        else:
            rt = StdRuntime(engine, machine, num_workers=ncores, params=config.std)

        builder: ProfileBuilder | None = None
        if profile_cfg is not None:
            builder = ProfileBuilder(rt, keep_events=profile_cfg.keep_events)
            builder.attach()
        if work_rewriter is not None:
            rt.set_compute_rewriter(work_rewriter)

        pipeline: TelemetryPipeline | None = None
        query = None
        interval_ns = query_interval_ns
        if interval_ns is None and tele is not None:
            interval_ns = tele.interval_ns
        if collect_counters:
            env = CounterEnvironment(
                engine=engine,
                runtime=rt,
                machine=machine,
                papi=PapiSubstrate(machine),
                profiler=builder,
            )
            registry = build_registry(env, workload=workload.name)
            specs = counters
            if specs is None and tele is not None:
                specs = tele.counters
            pipeline = TelemetryPipeline(
                registry,
                specs or DEFAULT_COUNTERS,
                run_id=(
                    tele.run_id
                    if tele is not None and tele.run_id
                    else f"{workload.name}/{self.runtime}/c{ncores}"
                ),
                sinks=tele.sinks if tele is not None else (),
                buffer_limit=tele.buffer_limit if tele is not None else DEFAULT_BUFFER_LIMIT,
            )
            pipeline.start()
            pipeline.reset()
            if interval_ns is not None:
                from repro.counters.query import PeriodicQuery

                query = PeriodicQuery(
                    pipeline,
                    engine=engine,
                    runtime=rt,
                    interval_ns=interval_ns,
                    sink=query_sink,
                    in_band=tele.in_band if tele is not None else True,
                )
                query.start()
        elif interval_ns is not None:
            raise ValueError("periodic queries need collect_counters=True")

        if plan is not None:
            future = CohortEngine(rt, machine).submit(plan)
        else:
            future = rt.submit(root_fn, *root_args)
        engine.run()
        out.tasks_executed = rt.stats.tasks_executed
        out.tasks_created = rt.stats.tasks_created
        out.peak_live_tasks = rt.stats.peak_live_tasks
        if rt.aborted:
            out.aborted = True
            out.abort_reason = rt.abort_reason
            out.exec_time_ns = engine.now
            out.engine_events = engine.events_processed
            if pipeline is not None:
                out.telemetry = pipeline.frame  # periodic samples up to the abort
                pipeline.stop()
                pipeline.close()
            if builder is not None:
                builder.detach()
                # Partial profile up to the abort; no what-if replays.
                out.profile = builder.finalize(
                    workload=workload.canonical(),
                    runtime=self.runtime,
                    cores=ncores,
                    makespan_ns=engine.now,
                )
            return out
        if not future.is_ready:
            raise DeadlockError(rt.describe_stall())
        result = future.value()
        out.exec_time_ns = engine.now
        if pipeline is not None:
            values = pipeline.sample(reset=True)
            out.counters = {v.name: v.value for v in values}
            out.telemetry = pipeline.frame
            pipeline.stop()
            pipeline.close()
        if query is not None:
            out.query_samples = query.samples

        # Mean-value plans resolve to expectations, not the exact
        # benchmark output; verification only applies to exact results.
        if plan is not None and not plan.exact:
            out.verified = True
        else:
            out.verified = bench.verify(result, merged)
        if keep_result:
            out.result = result
        out.offcore_bytes = machine.total_offcore_bytes()
        out.engine_events = engine.events_processed

        if builder is not None:
            builder.detach()
            experiments: list[WhatIfResult] = []
            if profile_cfg is not None and profile_cfg.what_if:
                experiments = self._run_what_ifs(
                    profile_cfg,
                    builder,
                    baseline=out,
                    benchmark=workload,
                    params=params,
                    cores=ncores,
                    counters=counters,
                    collect_counters=collect_counters,
                    query_interval_ns=query_interval_ns,
                    telemetry=tele,
                )
            out.profile = builder.finalize(
                workload=workload.canonical(),
                runtime=self.runtime,
                cores=ncores,
                makespan_ns=out.exec_time_ns,
                what_if=tuple(experiments),
            )
        return out

    def _run_what_ifs(
        self,
        profile_cfg: ProfileConfig,
        builder: ProfileBuilder,
        *,
        baseline: RunResult,
        benchmark: WorkloadSpec,
        params: Mapping[str, Any] | None,
        cores: int,
        counters: Sequence[str] | None,
        collect_counters: bool,
        query_interval_ns: int | None,
        telemetry: TelemetryConfig | None,
    ) -> list[WhatIfResult]:
        """Validate each what-if experiment with a cost-rewritten replay.

        The replay runs under *identical* instrumentation (profiler
        attached, same counters, same query interval) so the 0 %
        experiment is bit-identical to the baseline; only external
        telemetry sinks are stripped, to avoid emitting the replay's
        samples into the baseline's outputs.
        """
        replay_tele = replace(telemetry, sinks=()) if telemetry is not None else None
        base = builder.analysis()
        bodies = set(builder.body_names())
        results: list[WhatIfResult] = []
        for spec in profile_cfg.what_if:
            body = resolve_body(spec.body, bodies)
            scaled = builder.scaled_analysis(body, spec.factor)
            rewriter = BodyRewriter(body, spec.factor)
            replay = self.run(
                benchmark,
                params=params,
                cores=cores,
                mode=ExecutionMode.EXACT,
                counters=counters,
                collect_counters=collect_counters,
                query_interval_ns=query_interval_ns,
                telemetry=replay_tele,
                profile=ProfileConfig(),  # same perturbation, no nested what-ifs
                work_rewriter=rewriter,
            )
            results.append(
                WhatIfResult(
                    body=body,
                    speedup_pct=spec.speedup_pct,
                    baseline_makespan_ns=baseline.exec_time_ns,
                    predicted_makespan_ns=predict_makespan_ns(
                        baseline_makespan_ns=baseline.exec_time_ns,
                        cores=cores,
                        base_work_ns=base.work_ns,
                        base_span_ns=base.span_ns,
                        scaled_work_ns=scaled.work_ns,
                        scaled_span_ns=scaled.span_ns,
                    ),
                    replayed_makespan_ns=replay.exec_time_ns,
                    rewritten_computes=rewriter.rewritten,
                    scaled_work_ns=scaled.work_ns,
                    scaled_span_ns=scaled.span_ns,
                )
            )
        return results
