"""Command-line interface.

Mirrors the convenience layer the paper describes ("all HPX
applications provide command line options related to performance
counters, such as the ability to list available counter types, or
periodically query specific counters"):

- ``repro counters list|query`` — the telemetry front door: list the
  counter types, or run a benchmark and stream every sample (wildcards
  expanded) as CSV or JSON lines;
- ``repro run BENCH --runtime hpx --cores 8 --print-counter NAME ...``
  — one run with counters printed CSV-style;
- ``repro workloads list|show`` — the unified workload registry
  (Inncabs and Task Bench alike, with defaults and presets);
- ``repro taskbench --shape stencil_1d --width 64 --steps 32`` — the
  METG(eps) sweep over a parameterized dependency graph;
- ``repro table1`` / ``repro table5`` — regenerate the paper's tables;
- ``repro figure fig5`` — regenerate one figure's series.

``repro run``, ``repro campaign`` and ``repro taskbench`` share one
``--workload NAME[:key=val,...]`` / ``--platform`` / ``--seed`` option
group (see :func:`_add_workload_options`).

Campaign layer (the parallel experiment engine):

- ``repro campaign --benchmarks fib sort --cores-list 1,2,4 --jobs 8``
  — run a (benchmark, runtime, cores, seed) matrix over a process
  pool with content-addressed caching, writing a versioned JSON
  artifact under ``results/campaigns/``;
- ``repro compare BASELINE CURRENT --threshold 0.10`` — diff two
  artifacts and exit non-zero on regression (the CI gate).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.counters.base import CounterEnvironment
from repro.counters.manager import format_counter_values
from repro.experiments.config import DEFAULT_COUNTERS, ExperimentConfig
from repro.experiments.figures import (
    BANDWIDTH_FIGURES,
    EXEC_TIME_FIGURES,
    OVERHEAD_FIGURES,
    bandwidth_figure,
    execution_time_figure,
    overhead_figure,
)
from repro.api import Session
from repro.exec.modes import EXECUTION_MODES, CohortIneligibleError
from repro.experiments.tables import table1, table5
from repro.experiments.report import (
    render_bandwidth_figure,
    render_execution_time_figure,
    render_overhead_figure,
    render_table1,
    render_table5,
)
from repro.inncabs.suite import available_benchmarks
from repro.papi.hw import PapiSubstrate
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine


def _parse_params(pairs: Sequence[str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _add_workload_options(
    parser: argparse.ArgumentParser,
    *,
    workload: bool = True,
    seed_default: int | None = 20160523,
) -> None:
    """The shared ``--workload`` / ``--platform`` / ``--seed`` option group.

    ``repro run``, ``repro campaign`` and ``repro taskbench`` all pull
    their workload-selection surface from here so the spellings stay
    identical across subcommands.
    """
    if workload:
        parser.add_argument(
            "--workload",
            default=None,
            metavar="NAME[:key=val,...]",
            help="workload spec in canonical form, e.g. taskbench:shape=fft,width=8 "
            "(see 'repro workloads list')",
        )
    parser.add_argument(
        "--platform",
        default=None,
        metavar="NAME|FILE",
        help="simulated node: preset name or platform file (default: ivybridge-2x10)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=seed_default,
        help="root seed (default: the paper's 20160523)",
    )
    parser.add_argument(
        "--mode",
        choices=EXECUTION_MODES,
        default=None,
        help="execution mode: 'exact' replays every task event, 'cohort' advances "
        "homogeneous task populations analytically (default: exact)",
    )


def _resolve_cli_workload(args: argparse.Namespace) -> "Any":
    """Build the WorkloadSpec a ``repro run``-style invocation names.

    Exactly one of the positional ``benchmark`` and ``--workload`` must
    be given.  Overlay order matches campaigns: preset < ``--param`` <
    parameters embedded in the workload spec < ``--seed`` / ``--mode``.
    """
    from repro.workloads import WorkloadSpec, workload_preset_params

    named = [text for text in (getattr(args, "benchmark", None), args.workload) if text]
    if len(named) != 1:
        raise SystemExit("name exactly one workload (positional BENCHMARK or --workload)")
    try:
        workload = WorkloadSpec.parse(named[0])
        params = workload_preset_params(workload.name, getattr(args, "preset", "default"))
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"error: {exc.args[0] if exc.args else exc}")
    params.update(_parse_params(getattr(args, "param", [])))
    params.update(workload.params)
    if args.seed is not None:
        params["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        params["mode"] = args.mode
    return WorkloadSpec(workload.name, params)


def cmd_counters_list(args: argparse.Namespace) -> int:
    import fnmatch

    from repro.counters.providers import build_registry
    from repro.platform.presets import resolve_platform
    from repro.workloads import WorkloadSpec

    workload_name = None
    if getattr(args, "workload", None):
        try:
            workload = WorkloadSpec.parse(args.workload)
            workload.validate()
        except (ValueError, KeyError) as exc:
            print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
            return 2
        workload_name = workload.name
    try:
        platform = resolve_platform(args.platform)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Cores follow the named platform's full shape unless given
    # explicitly; the bare invocation keeps its historical 4 workers.
    cores = args.cores if args.cores is not None else (platform.total_cores if args.platform else 4)
    engine = Engine()
    machine = Machine(platform)
    runtime = HpxRuntime(engine, machine, num_workers=cores)
    env = CounterEnvironment(
        engine=engine, runtime=runtime, machine=machine, papi=PapiSubstrate(machine)
    )
    registry = build_registry(env, workload=workload_name)
    provider_filters = list(getattr(args, "providers", None) or [])
    matched = 0
    available_providers: set[str] = set()
    for entry in registry.counter_types(args.pattern):
        info = entry.info
        provider = registry.provider_of(info.type_name) or "builtin"
        available_providers.add(provider)
        if provider_filters and not any(
            fnmatch.fnmatch(provider, pat) for pat in provider_filters
        ):
            continue
        matched += 1
        unit = f" [{info.unit}]" if info.unit else ""
        print(f"{info.type_name:55s} {info.counter_type.value:25s} {provider:18s}{unit}")
        if args.verbose:
            print(f"    {info.help_text}")
            for inst_name, inst_index in entry.instances(registry.env):
                suffix = "" if inst_index is None else f"#{inst_index}"
                object_name, counter = info.type_name[1:].split("/", 1)
                print(f"      /{object_name}{{locality#0/{inst_name}{suffix}}}/{counter}")
    if provider_filters and not matched:
        patterns = ", ".join(provider_filters)
        names = ", ".join(sorted(available_providers)) or "none"
        print(
            f"no providers matched {patterns!r}; available providers: {names}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_counters_query(args: argparse.Namespace) -> int:
    from repro.telemetry import CsvSink, JsonLinesSink, TelemetryConfig
    from repro.workloads import WorkloadSpec, workload_preset_params

    try:
        workload = WorkloadSpec.parse(args.benchmark)
        params = workload_preset_params(workload.name, args.preset)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    params.update(_parse_params(args.param))
    params.update(workload.params)
    if getattr(args, "mode", None) is not None:
        params["mode"] = args.mode
    specs = tuple(args.specs) if args.specs else DEFAULT_COUNTERS
    # A path destination is owned by the sink (the pipeline closes it
    # when the run finishes); stdout is borrowed and only flushed.
    dest: Any = args.out if args.out else sys.stdout
    sink = (CsvSink if args.format == "csv" else JsonLinesSink)(dest)
    session = Session(runtime=args.runtime, cores=args.cores, platform=args.platform)
    try:
        result = session.run(
            WorkloadSpec(workload.name, params),
            telemetry=TelemetryConfig(
                counters=specs,
                interval_ns=None if args.interval is None else round(args.interval * 1e6),
                sinks=(sink,),
            ),
        )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.aborted:
        print(f"{args.benchmark} [{args.runtime}]: ABORT: {result.abort_reason}", file=sys.stderr)
        return 1
    frame = result.telemetry
    print(
        f"{args.benchmark} [{args.runtime}, {args.cores} cores]: "
        f"{result.exec_time_ms:.3f} ms, {len(frame)} samples over "
        f"{len(frame.names())} counters"
        + (f" -> {args.out}" if args.out else ""),
        file=sys.stderr,
    )
    return 0 if result.verified else 1


def cmd_platform_list(_args: argparse.Namespace) -> int:
    from repro.platform import DEFAULT_PLATFORM, get_platform, platform_names

    for name in platform_names():
        spec = get_platform(name)
        marker = "*" if name == DEFAULT_PLATFORM else " "
        shape = "+".join(str(sock.cores) for sock in spec.sockets)
        freqs = sorted({sock.freq_ghz for sock in spec.sockets})
        freq = "/".join(f"{f:g}" for f in freqs)
        print(
            f"{marker} {name:16s} {spec.num_sockets} socket(s) x [{shape}] cores "
            f"@ {freq} GHz, {spec.ram_bytes / 1024**3:.0f} GiB"
        )
    print("\n(* = default; any entry works with --platform, as does a .toml/.json file)")
    return 0


def cmd_platform_show(args: argparse.Namespace) -> int:
    from repro.platform import PlatformError, resolve_platform
    from repro.simcore.topology import Topology

    try:
        spec = resolve_platform(args.name)
    except (PlatformError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(spec.describe())
    topology = Topology(spec)
    print("\ntopology:")
    print(f"machine ({spec.ram_bytes / 1024**3:.0f} GiB RAM)")
    for s, sock in enumerate(spec.sockets):
        print(f"  socket#{s} ({sock.cores} cores, L3 {sock.l3_bytes / 1024**2:.0f} MB)")
        for core in spec.core_range(s):
            print(f"    {topology.describe_core(core)}  (global core#{core})")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.counters.manager import format_counter_values

    specs = tuple(args.print_counter) if args.print_counter else DEFAULT_COUNTERS
    workload = _resolve_cli_workload(args)
    destination = None
    sink = None
    if args.print_counter_interval is not None:
        if args.print_counter_destination:
            destination = open(args.print_counter_destination, "w")

        def sink(rows, _dest=destination):
            print(format_counter_values(rows), file=_dest)
    try:
        session = Session(runtime=args.runtime, cores=args.cores, platform=args.platform)
        result = session.run(
            workload,
            counters=specs if args.runtime == "hpx" else None,
            collect_counters=not args.no_counters,
            query_interval_ns=(
                None
                if args.print_counter_interval is None
                else round(args.print_counter_interval * 1e6)
            ),
            query_sink=sink,
        )
    except CohortIneligibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if destination is not None:
            destination.close()
    if result.aborted:
        print(f"{workload.name} [{args.runtime}, {args.cores} cores]: ABORT")
        print(f"  {result.abort_reason}")
        return 1
    print(
        f"{workload.name} [{args.runtime}, {args.cores} cores]: "
        f"{result.exec_time_ms:.3f} ms, {result.tasks_executed} tasks, "
        f"verified={result.verified}"
    )
    if result.counters:
        print("counter,count,time,value")
        for name, value in result.counters.items():
            print(f"{name},1,{result.exec_time_ns},{value:g}")
    return 0 if result.verified else 1


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiler import ProfileConfig, parse_what_if

    workload = _resolve_cli_workload(args)
    try:
        what_if = tuple(parse_what_if(text) for text in args.what_if)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    keep_events = args.chrome_out is not None
    session = Session(runtime=args.runtime, cores=args.cores, platform=args.platform)
    try:
        result = session.run(
            workload,
            collect_counters=args.counters,
            profile=ProfileConfig(what_if=what_if, keep_events=keep_events),
        )
    except (CohortIneligibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profile = result.profile
    if result.aborted:
        print(f"{workload.name} [{args.runtime}, {args.cores} cores]: ABORT")
        print(f"  {result.abort_reason}")
        if profile is not None:
            print()
            print(profile.render(top=args.top))
        return 1
    print(profile.render(top=args.top))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(profile.to_json_dict(include_series=True), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.json}")
    if args.chrome_out:
        from repro.telemetry.sample import Sample
        from repro.trace.export import to_chrome_trace

        # The parallelism waterfall rides along as a counter track.
        series = [
            Sample(
                name="/profiler{locality#0/total}/logical-parallelism",
                instance="locality#0/total",
                timestamp_ns=p.time_ns,
                value=p.active,
                run_id=profile.workload,
            )
            for p in profile.parallelism.points
        ]
        with open(args.chrome_out, "w") as fh:
            fh.write(to_chrome_trace(list(profile.events or ()), telemetry=series))
            fh.write("\n")
        print(f"wrote {args.chrome_out}")
    return 0 if result.verified else 1


def cmd_workloads_list(_args: argparse.Namespace) -> int:
    from repro.workloads import available_workloads, get_workload

    for name in available_workloads():
        entry = get_workload(name)
        presets = ",".join(["default", *sorted(entry.presets)])
        print(f"{name:11s} {entry.family:9s} presets={presets:21s} {entry.description}")
    return 0


def cmd_workloads_show(args: argparse.Namespace) -> int:
    from repro.workloads import get_workload

    try:
        entry = get_workload(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    info = entry.benchmark.info
    print(f"{entry.name} ({entry.family}): {entry.description}")
    print(f"  structure: {info.structure}, synchronization: {info.synchronization}")
    print("  defaults:")
    for key, value in entry.benchmark.default_params.items():
        print(f"    {key} = {value!r}")
    for preset in sorted(entry.presets):
        overrides = ", ".join(f"{k}={v!r}" for k, v in entry.presets[preset].items())
        print(f"  preset {preset}: {overrides}")
    example = ":key=val,..." if entry.benchmark.default_params else ""
    print(f"  spec example: {entry.name}{example}")
    return 0


def cmd_taskbench(args: argparse.Namespace) -> int:
    from repro.inncabs.base import DEFAULT_SEED
    from repro.platform import resolve_platform
    from repro.taskbench import metg_sweep

    if getattr(args, "mode", None) == "cohort":
        print(
            "error: the METG sweep probes scheduling efficiency per grain and "
            "only runs in exact mode",
            file=sys.stderr,
        )
        return 2
    platform = resolve_platform(args.platform)
    cores = args.cores if args.cores else platform.total_cores
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    runtimes = ("hpx", "std") if args.runtime == "both" else (args.runtime,)
    results = []
    for runtime in runtimes:

        def progress(probe, _rt=runtime):
            if args.verbose:
                state = "ABORT" if probe.aborted else f"eff={probe.efficiency:.4f}"
                print(f"  {_rt} grain={probe.grain_ns} ns: {state}", file=sys.stderr)

        result = metg_sweep(
            shape=args.shape,
            width=args.width,
            steps=args.steps,
            runtime=runtime,
            cores=cores,
            eps=args.eps,
            seed=seed,
            platform=platform,
            membytes=args.membytes,
            degree=args.degree,
            progress=progress,
        )
        results.append(result)
        metg = "unreachable" if result.metg_ns is None else f"{result.metg_ns} ns"
        print(
            f"taskbench {args.shape} width={args.width} steps={args.steps} "
            f"[{runtime}, {cores} cores, {platform.name}]: "
            f"METG({args.eps:g}) = {metg} ({len(result.probes)} probes)"
        )
    if args.out:
        payload = {"results": [r.to_json_dict() for r in results]}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.samples_out:
        from repro.telemetry import JsonLinesSink

        sink = JsonLinesSink(args.samples_out)
        for result in results:
            for sample in result.to_samples():
                sink.emit(sample)
        sink.close()
        print(f"wrote {args.samples_out}")
    return 0 if all(r.metg_ns is not None for r in results) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.serve.quotas import QuotaConfig
    from repro.serve.server import ServerConfig, serve_forever

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        quota=QuotaConfig(rate=args.quota_rate, burst=args.quota_burst),
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        no_cache=args.no_cache,
    )

    def announce(server):  # the bound port matters with --port 0
        cache = "off" if config.no_cache else str(server.cache.root)
        print(
            f"serving on {config.host}:{server.port} "
            f"({config.workers} workers, queue {config.max_queue}, cache {cache})",
            flush=True,
        )

    try:
        asyncio.run(serve_forever(config, ready=announce))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _cores_list(text: str) -> tuple[int, ...]:
    """argparse type for ``--cores-list``: "1,2,4" -> (1, 2, 4)."""
    try:
        cores = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not cores or any(c < 1 for c in cores):
        raise argparse.ArgumentTypeError(f"core counts must be positive, got {text!r}")
    return cores


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    kwargs: dict[str, Any] = {}
    if getattr(args, "samples", None):
        kwargs["samples"] = args.samples
    if getattr(args, "cores_list", None):
        kwargs["core_counts"] = args.cores_list
    return ExperimentConfig(**kwargs)


def cmd_campaign(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.campaign.cache import ResultCache
    from repro.campaign.engine import run_campaign
    from repro.campaign.spec import CampaignSpec
    from repro.experiments.config import QUICK_CORE_COUNTS
    from repro.platform import resolve_platform

    core_counts = args.cores_list if args.cores_list else QUICK_CORE_COUNTS
    workloads = tuple(args.benchmarks or []) + tuple(args.workloads or [])
    if not workloads:
        workloads = tuple(available_benchmarks())
    params = _parse_params(args.param)
    if getattr(args, "mode", None) is not None:
        params["mode"] = args.mode
    try:
        spec = CampaignSpec(
            benchmarks=workloads,
            runtimes=tuple(args.runtimes),
            core_counts=core_counts,
            samples=args.samples,
            seed=args.seed,
            preset=args.preset,
            params=params,
            platform=resolve_platform(args.platform),
            collect_counters=not args.no_counters,
            profile=args.profile,
        )
    except (ValueError, KeyError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        cache = ResultCache(Path(args.cache_dir)) if args.cache_dir else ResultCache.default()
    progress = None
    if args.verbose:
        total = sum(1 for _ in spec.cells())
        seen = [0]

        def show_progress(cell, result, from_cache):
            seen[0] += 1
            source = "cache" if from_cache else "run"
            state = "ABORT" if result["aborted"] else f"{result['exec_time_ns'] / 1e6:.3f} ms"
            print(f"[{seen[0]}/{total}] {cell.label()}: {state} ({source})", file=sys.stderr)

        progress = show_progress

    run = run_campaign(spec, jobs=args.jobs, cache=cache, progress=progress)
    out = Path(args.out) if args.out else Path("results/campaigns") / f"{spec.spec_id()}.json"
    run.artifact.save(out)
    s = run.stats
    print(
        f"campaign {spec.spec_id()}: {s.total} cells | cache hits {s.cache_hits} "
        f"({s.hit_rate:.0%}) | executed {s.executed} | aborted {s.aborted}"
    )
    print(f"wrote {out}")
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.experiments.bench_serve import compare_to_baseline, render, run_bench_serve

    result = run_bench_serve(
        args.mode,
        clients=args.clients,
        runs=args.runs,
        workers=args.workers,
        cache_dir=args.cache_dir,
        progress=lambda line: print(line, file=sys.stderr),
    )
    payload = result.to_dict()
    print(render(payload))
    if args.out:
        result.save(args.out)
        print(f"\nwrote {args.out}")
    status = 0
    if args.baseline:
        try:
            baseline = json.loads(open(args.baseline).read())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        failures = compare_to_baseline(payload, baseline, threshold=args.threshold)
        if failures:
            print(f"\nFAIL: serve load regression vs {args.baseline}:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            status = 1
        else:
            print(f"\ngate OK vs {args.baseline} (threshold x{args.threshold:g})")
    return status


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.campaign.artifact import CampaignArtifact
    from repro.campaign.compare import CompareThresholds, compare_artifacts, render_compare

    try:
        baseline = CampaignArtifact.load(args.baseline)
        current = CampaignArtifact.load(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load artifact: {exc}", file=sys.stderr)
        return 2
    thresholds = CompareThresholds(exec_time=args.threshold, counters=args.counter_threshold)
    report = compare_artifacts(baseline, current, thresholds)
    print(render_compare(report, only_failures=args.only_failures))
    return report.exit_code()


def cmd_table1(args: argparse.Namespace) -> int:
    rows = table1(benchmarks=args.benchmarks or None, cores=args.cores)
    print(render_table1(rows))
    return 0


def cmd_table5(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    rows = table5(benchmarks=args.benchmarks or None, config=config, jobs=args.jobs)
    print(render_table5(rows))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    artifact = None
    if args.artifact is not None:
        from repro.campaign.artifact import CampaignArtifact

        artifact = CampaignArtifact.load(args.artifact)
    kwargs: dict[str, Any] = {"config": config, "artifact": artifact, "jobs": args.jobs}
    fig = args.figure.lower()
    if fig in EXEC_TIME_FIGURES:
        print(render_execution_time_figure(execution_time_figure(fig, **kwargs)))
    elif fig in OVERHEAD_FIGURES:
        print(render_overhead_figure(overhead_figure(fig, **kwargs)))
    elif fig in BANDWIDTH_FIGURES:
        print(render_bandwidth_figure(bandwidth_figure(fig, **kwargs)))
    else:
        known = sorted({**EXEC_TIME_FIGURES, **OVERHEAD_FIGURES, **BANDWIDTH_FIGURES})
        raise SystemExit(f"unknown figure {args.figure!r}; known: {', '.join(known)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Using Intrinsic Performance Counters to "
        "Assess Efficiency in Task-based Parallel Applications'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counters", help="telemetry front door: list counter types, stream samples")
    counters_sub = p.add_subparsers(dest="counters_command", required=True)
    pc = counters_sub.add_parser("list", help="list available counter types")
    pc.add_argument("--pattern", default=None, help="glob over type names")
    pc.add_argument(
        "--cores",
        type=int,
        default=None,
        help="worker count the instance lists reflect "
        "(default: 4, or the named --platform's full core count)",
    )
    pc.add_argument("--verbose", action="store_true", help="show help text and instances")
    pc.add_argument(
        "--workload",
        default=None,
        metavar="NAME[:key=val,...]",
        help="also list the counter types this workload's own providers add",
    )
    pc.add_argument(
        "--platform",
        default=None,
        metavar="NAME|FILE",
        help="simulated node: preset name or platform file (default: ivybridge-2x10)",
    )
    pc.add_argument(
        "--providers",
        action="append",
        default=None,
        metavar="GLOB",
        help="only show counter types from matching providers "
        "(repeatable; e.g. --providers 'builtin.*' --providers fmm)",
    )
    pc.set_defaults(fn=cmd_counters_list)
    pc = counters_sub.add_parser(
        "query", help="run a benchmark and stream every counter sample (CSV or JSON lines)"
    )
    pc.add_argument(
        "specs",
        nargs="*",
        metavar="COUNTER",
        help="counter-name specs; '#*' wildcards are expanded at discovery "
        "(default: the paper's counter set)",
    )
    pc.add_argument(
        "--benchmark",
        default="fib",
        metavar="WORKLOAD",
        help="workload name or NAME:key=val,... spec (see 'repro workloads list')",
    )
    pc.add_argument("--runtime", choices=("hpx", "std"), default="hpx")
    pc.add_argument("--cores", type=int, default=4)
    pc.add_argument(
        "--platform",
        default=None,
        metavar="NAME|FILE",
        help="simulated node: preset name or platform file (default: ivybridge-2x10)",
    )
    pc.add_argument("--preset", choices=("small", "default", "large", "paper"), default="default")
    pc.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    pc.add_argument(
        "--mode",
        choices=EXECUTION_MODES,
        default=None,
        help="execution mode: 'exact' replays every task event, 'cohort' advances "
        "homogeneous task populations analytically (default: exact)",
    )
    pc.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="MS",
        help="also sample every MS of simulated time, in-band "
        "(default: one evaluation at termination)",
    )
    pc.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    pc.add_argument(
        "--out", default=None, metavar="FILE", help="write the stream to FILE (default: stdout)"
    )
    pc.set_defaults(fn=cmd_counters_query)

    p = sub.add_parser("platform", help="inspect the available platform presets")
    platform_sub = p.add_subparsers(dest="platform_command", required=True)
    pp = platform_sub.add_parser("list", help="list platform presets")
    pp.set_defaults(fn=cmd_platform_list)
    pp = platform_sub.add_parser("show", help="hwloc-style description of one platform")
    pp.add_argument("name", help="preset name or path to a .toml/.json platform file")
    pp.set_defaults(fn=cmd_platform_show)

    p = sub.add_parser("run", help="run one workload")
    p.add_argument(
        "benchmark",
        nargs="?",
        default=None,
        metavar="WORKLOAD",
        help="workload name or NAME:key=val,... spec (or use --workload)",
    )
    p.add_argument("--runtime", choices=("hpx", "std"), default="hpx")
    p.add_argument("--cores", type=int, default=1)
    _add_workload_options(p, seed_default=None)
    p.add_argument(
        "--print-counter",
        action="append",
        default=[],
        metavar="NAME",
        help="counter to collect (repeatable); default: the paper's set",
    )
    p.add_argument("--no-counters", action="store_true", help="disable instrumentation")
    p.add_argument(
        "--print-counter-interval",
        type=float,
        default=None,
        metavar="MS",
        help="sample the counters every MS of simulated time, in-band "
        "(the --hpx:print-counter-interval convenience layer)",
    )
    p.add_argument(
        "--print-counter-destination",
        default=None,
        metavar="FILE",
        help="write interval samples to FILE instead of stdout",
    )
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument(
        "--preset",
        choices=("small", "default", "large", "paper"),
        default="default",
        help="input set (Inncabs-style); --param overrides on top",
    )
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "profile",
        help="causal profile of one run: critical path, parallelism, what-if speedups",
    )
    p.add_argument(
        "benchmark",
        nargs="?",
        default=None,
        metavar="WORKLOAD",
        help="workload name or NAME:key=val,... spec (or use --workload)",
    )
    p.add_argument("--runtime", choices=("hpx", "std"), default="hpx")
    p.add_argument("--cores", type=int, default=4)
    _add_workload_options(p, seed_default=None)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument(
        "--preset",
        choices=("small", "default", "large", "paper"),
        default="default",
        help="input set (Inncabs-style); --param overrides on top",
    )
    p.add_argument(
        "--what-if",
        action="append",
        default=[],
        metavar="body=NAME,speedup=PCT",
        help="causal experiment: predict and replay the run with NAME's "
        "work cost cut by PCT%% (repeatable)",
    )
    p.add_argument(
        "--top", type=int, default=10, help="flat-profile rows to show (default 10)"
    )
    p.add_argument(
        "--json", default=None, metavar="FILE", help="write the full profile as JSON"
    )
    p.add_argument(
        "--chrome-out",
        default=None,
        metavar="FILE",
        help="write a chrome://tracing timeline (tasks + parallelism waterfall)",
    )
    p.add_argument(
        "--counters",
        action="store_true",
        help="also collect the default counter set during the profiled run",
    )
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("workloads", help="the unified workload registry (Inncabs + Task Bench)")
    workloads_sub = p.add_subparsers(dest="workloads_command", required=True)
    pw = workloads_sub.add_parser("list", help="list every registered workload")
    pw.set_defaults(fn=cmd_workloads_list)
    pw = workloads_sub.add_parser("show", help="defaults and presets of one workload")
    pw.add_argument("name", help="workload name (see 'repro workloads list')")
    pw.set_defaults(fn=cmd_workloads_show)

    p = sub.add_parser("taskbench", help="METG(eps) sweep over a parameterized dependency graph")
    p.add_argument(
        "--shape",
        choices=("trivial", "stencil_1d", "fft", "tree", "random"),
        default="stencil_1d",
        help="dependency pattern (default: stencil_1d)",
    )
    p.add_argument("--width", type=int, default=64, help="points per timestep")
    p.add_argument("--steps", type=int, default=32, help="number of timesteps")
    p.add_argument(
        "--eps",
        type=float,
        default=0.5,
        help="efficiency slack: METG is the smallest grain with "
        "efficiency >= 1-eps (default 0.5)",
    )
    p.add_argument(
        "--runtime",
        choices=("hpx", "std", "both"),
        default="both",
        help="backend(s) to sweep (default: both)",
    )
    p.add_argument(
        "--cores", type=int, default=None, help="worker count (default: all platform cores)"
    )
    p.add_argument("--membytes", type=int, default=0, help="memory traffic per task (bytes)")
    p.add_argument(
        "--degree", type=float, default=3.0, help="expected in-degree of the random shape"
    )
    _add_workload_options(p, workload=False, seed_default=None)
    p.add_argument("--out", default=None, metavar="FILE", help="write the sweep results as JSON")
    p.add_argument(
        "--samples-out",
        default=None,
        metavar="FILE",
        help="also write the derived /taskbench{...} counter samples as JSON lines",
    )
    p.add_argument("--verbose", action="store_true", help="per-probe progress on stderr")
    p.set_defaults(fn=cmd_taskbench)

    p = sub.add_parser("serve", help="run the HTTP run server (simulation-as-a-service)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765, help="0 = ephemeral (announced on stdout)")
    p.add_argument("--workers", type=int, default=2, help="run-executing worker processes")
    p.add_argument(
        "--max-queue", type=int, default=256, help="queued-run capacity (429 beyond this)"
    )
    p.add_argument(
        "--quota-rate", type=float, default=50.0, help="per-tenant sustained runs/second"
    )
    p.add_argument("--quota-burst", type=float, default=100.0, help="per-tenant burst allowance")
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared result cache root (default: results/campaigns/cache — campaigns hit it too)",
    )
    p.add_argument("--no-cache", action="store_true", help="always execute every run")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("campaign", help="run an experiment matrix over a process pool")
    p.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        choices=available_benchmarks(),
        help="Inncabs benchmarks to include (default: all fourteen when "
        "--workloads is not given either)",
    )
    p.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        metavar="NAME[:key=val,...]",
        help="workload specs to include alongside --benchmarks "
        "(e.g. taskbench:shape=fft,width=8; see 'repro workloads list')",
    )
    p.add_argument(
        "--runtimes",
        nargs="+",
        default=["hpx", "std"],
        choices=("hpx", "std"),
        help="runtimes to include (default: both)",
    )
    p.add_argument(
        "--cores-list", type=_cores_list, default=None, help="comma-separated core counts"
    )
    p.add_argument("--samples", type=int, default=3, help="samples per cell group")
    p.add_argument("--preset", choices=("small", "default", "large", "paper"), default="default")
    _add_workload_options(p, workload=False)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
    p.add_argument("--out", default=None, metavar="FILE", help="artifact path (JSON)")
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache root (default: results/campaigns/cache)",
    )
    p.add_argument("--no-cache", action="store_true", help="always execute every cell")
    p.add_argument("--no-counters", action="store_true", help="disable instrumentation")
    p.add_argument(
        "--profile",
        action="store_true",
        help="attach the causal profiler to every cell; artifacts then carry "
        "per-cell profile summaries (critical path, work/span, parallelism)",
    )
    p.add_argument("--verbose", action="store_true", help="per-cell progress on stderr")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("bench-serve", help="load-test the run server (latency + cache gate)")
    p.add_argument(
        "--mode",
        choices=("quick", "reference"),
        default="quick",
        help="load shape: quick (50 clients / 500 runs, CI) or reference (100 / 2000)",
    )
    p.add_argument("--clients", type=int, default=None, help="concurrent client tasks")
    p.add_argument("--runs", type=int, default=None, help="total submissions")
    p.add_argument("--workers", type=int, default=None, help="server worker processes")
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="server cache root (default: a fresh temp dir, so every cold run executes)",
    )
    p.add_argument("--out", default="BENCH_serve.json", metavar="FILE", help="artifact path")
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="gate against this committed artifact (e.g. results/baseline_serve.json)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=3.0,
        help="allowed multiplier on the baseline's normalized latency ratios (default 3.0)",
    )
    p.set_defaults(fn=cmd_bench_serve)

    p = sub.add_parser("compare", help="diff two campaign artifacts (regression gate)")
    p.add_argument("baseline", help="baseline artifact (JSON)")
    p.add_argument("current", help="current artifact (JSON)")
    p.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative median-exec-time regression tolerance (default 0.05)",
    )
    p.add_argument(
        "--counter-threshold",
        type=float,
        default=None,
        help="also gate on counter-median drift beyond this fraction",
    )
    p.add_argument("--only-failures", action="store_true", help="table shows failures only")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("table1", help="regenerate Table I (external tools)")
    p.add_argument("--benchmarks", nargs="*", default=None)
    p.add_argument("--cores", type=int, default=20)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("table5", help="regenerate Table V (classification)")
    p.add_argument("--benchmarks", nargs="*", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument(
        "--cores-list", type=_cores_list, default=None, help="comma-separated core counts"
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
    p.set_defaults(fn=cmd_table5)

    p = sub.add_parser("figure", help="regenerate one figure's series")
    p.add_argument("figure", help="fig1..fig14")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument(
        "--cores-list", type=_cores_list, default=None, help="comma-separated core counts"
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
    p.add_argument(
        "--artifact",
        default=None,
        metavar="FILE",
        help="read curves from a campaign artifact instead of running",
    )
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("generate", help="regenerate every table and figure into a directory")
    p.add_argument("outdir", nargs="?", default="results")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="campaign result cache to reuse across invocations",
    )
    p.set_defaults(fn=cmd_generate)

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.generate import generate_all

    generate_all(Path(args.outdir), samples=args.samples, jobs=args.jobs, cache_dir=args.cache_dir)
    print(f"wrote results to {args.outdir}/")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
