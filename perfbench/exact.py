"""The in-process workloads: ``Session.run`` on fixed exact-mode inputs.

``hpx-fine`` stresses the event core, the interpreter, the HPX scheduler
and the resource model with fine-grained tasks and no observation.
``std-observed`` runs the kernel-thread backend with every observation
layer on (wildcard counters, periodic in-band sampling, the causal
profiler), so its cost sits in ``kernel``, ``probes``, ``telemetry`` and
``profiler`` instead.
"""

from __future__ import annotations

import gc
import random
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from perfbench.fingerprint import Gate, fingerprint
from perfbench.hostspeed import NOMINAL_S, probe, scaled
from perfbench.layers import RunTotals, idle_metrics, instrumented, layer_metrics, recorded_engines
from perfbench.quantiles import geomean, mean, median, percentile, tail_percentile
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
PLATFORM = "ivybridge-2x10"
CORES = 8
#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Full rounds over the inputs made even when ``--seconds`` is shorter.
MIN_ROUNDS = 3
#: Cache hits timed after each run.
HITS_PER_RUN = 3
#: The uts tree size depends on its seed; keep it within this range so a
#: run's length does not swing with the benchmark seed.
UTS_NODES = (15_500, 18_500)
UTS_SHAPE = {"b0": 40, "m": 4, "q": 0.31, "max_depth": 22}
#: The per-worker ``#*`` wildcards expand to one counter per worker thread.
WILDCARD_COUNTERS = (
    "/threads{locality#0/worker-thread#*}/count/cumulative",
    "/threads{locality#0/worker-thread#*}/time/average",
    "/threads{locality#0/worker-thread#*}/idle-rate",
)
#: In-band sampling period (simulated ns): thousands of samples on intersim.
SAMPLE_INTERVAL_NS = 100_000


@dataclass(frozen=True)
class Input:
    """One workload input; ``params`` carry the seed-derived workload seed."""

    spec: str
    params: dict[str, Any]
    expect_abort: bool = False

    @property
    def label(self) -> str:
        return self.spec + "".join(f",{k}={v}" for k, v in sorted(self.params.items()))

    def outcome_ok(self, result: dict[str, Any]) -> bool:
        """Verified, or, for an input the paper shows dying, aborted at the thread budget."""
        if self.expect_abort:
            reason = result["abort_reason"] or ""
            return bool(result["aborted"]) and "thread stacks exhausted" in reason
        return bool(result["verified"]) and not result["aborted"]


def _uts_seed(rng: random.Random) -> int:
    from repro.inncabs.uts import uts_reference_count

    while True:
        seed = rng.getrandbits(31)
        if UTS_NODES[0] <= uts_reference_count(seed, **UTS_SHAPE) <= UTS_NODES[1]:
            return seed


def hpx_fine_inputs(rng: random.Random) -> list[Input]:
    return [
        Input("fib", {"n": 22, "seed": rng.getrandbits(31)}),
        Input("uts", {"seed": _uts_seed(rng)}),
        Input("health", {"seed": rng.getrandbits(31)}),
        Input("taskbench:shape=stencil_1d,width=64,steps=64", {"seed": rng.getrandbits(31)}),
    ]


def std_observed_inputs(rng: random.Random) -> list[Input]:
    return [
        Input("intersim", {"seed": rng.getrandbits(31)}),
        Input("sparselu", {"seed": rng.getrandbits(31)}),
        Input("alignment", {"seed": rng.getrandbits(31)}),
        Input("fib", {}, expect_abort=True),
    ]


@dataclass(frozen=True)
class ExactWorkload:
    name: str
    runtime: str
    make_inputs: Callable[[random.Random], list[Input]]
    observed: bool = False

    def session(self, **kwargs: Any) -> Any:
        from repro.api import Session

        return Session(runtime=self.runtime, cores=CORES, platform=PLATFORM, **kwargs)

    def run(self, session: Any, inp: Input) -> Any:
        from repro.api import WorkloadSpec
        from repro.experiments.config import DEFAULT_COUNTERS

        if not self.observed:
            return session.run(WorkloadSpec.parse(inp.spec), params=inp.params)
        return session.run(
            WorkloadSpec.parse(inp.spec),
            params=inp.params,
            counters=DEFAULT_COUNTERS + WILDCARD_COUNTERS,
            query_interval_ns=SAMPLE_INTERVAL_NS,
            profile=True,
        )


WORKLOADS = {
    "hpx-fine": ExactWorkload("hpx-fine", "hpx", hpx_fine_inputs),
    "std-observed": ExactWorkload("std-observed", "std", std_observed_inputs, observed=True),
}


@dataclass
class Outcome:
    """What one benchmark invocation found; ``run.py`` prints it."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(f"FAILED {what}")


def cold_start(args: list[str]) -> float:
    """Seconds from spawning ``coldstart.py`` until it reports ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("coldstart.py")), *args],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline() if proc.stdout else ""
        elapsed = time.perf_counter() - start
        proc.wait(timeout=60)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold start {args} failed with exit code {proc.returncode}")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _checked_run(
    workload: ExactWorkload, session: Any, inp: Input, gate: Gate, out: Outcome, source: str
) -> tuple[float, dict[str, Any]] | None:
    """One timed ``Session.run``; None when it raised or failed its outcome check."""
    from repro.campaign.artifact import run_result_to_dict

    out.attempted += 1
    gc.collect()  # every run starts from the same heap, not the last run's garbage
    try:
        start = time.perf_counter_ns()
        result = workload.run(session, inp)
        elapsed = time.perf_counter_ns() - start
    except Exception as exc:  # a raising run is a failed run, and the benchmark goes on
        out.fail(f"{inp.label} ({source}): {type(exc).__name__}: {exc}")
        return None
    data = run_result_to_dict(result)
    gate.observe(inp.label, fingerprint(data), source)
    if not inp.outcome_ok(data):
        out.fail(f"{inp.label} ({source}): verified={data['verified']} aborted={data['aborted']}")
        return None
    return elapsed / 1e9, data


def _request(workload: ExactWorkload, inp: Input) -> Any:
    from repro.serve.queue import RunRequest

    body = {
        "workload": inp.spec,
        "params": inp.params,
        "runtime": workload.runtime,
        "cores": CORES,
        "platform": PLATFORM,
    }
    return RunRequest.from_json(body)


def _time_hits(
    cache: Any, workload: ExactWorkload, inp: Input, result: dict[str, Any], out: Outcome
) -> list[float]:
    """Answer a repeated request for *inp* from *cache*: parse, build the key, load.

    That is the server's hit path without HTTP; the loaded result must be
    the stored one.
    """
    times = []
    gc.collect()  # the hits do not pay for the run's garbage either
    for _ in range(HITS_PER_RUN):
        start = time.perf_counter_ns()
        loaded = cache.load(_request(workload, inp).cache_key())
        times.append((time.perf_counter_ns() - start) / 1e9)
    if loaded is None or fingerprint(loaded) != fingerprint(result):
        out.fail(f"{inp.label}: the cache returned another result")
    return times


def measure(name: str, seed: int, seconds: float, expected: dict[str, Any] | None) -> Outcome:
    """The untraced pass: the end-to-end metrics.

    Run and hit times are scaled to the reference host speed by the probe
    taken right after them (``hostspeed``).  Cold starts are not: they run
    in another process, which a probe taken here does not track.
    """
    from repro.campaign.cache import ResultCache
    from repro.workloads import WorkloadSpec, get_workload

    workload = WORKLOADS[name]
    out = Outcome()
    inputs = workload.make_inputs(random.Random(seed))
    gate = Gate(expected)
    cold_args = [workload.runtime, *(i.spec for i in inputs)]
    setups: list[float] = []
    probes: list[float] = []

    session = workload.session()
    for inp in inputs:  # workload modules load lazily: do it before timing
        get_workload(WorkloadSpec.parse(inp.spec).name).benchmark
    runs: dict[str, list[float]] = {inp.label: [] for inp in inputs}  # scaled seconds
    raw: dict[str, list[float]] = {inp.label: [] for inp in inputs}  # wall seconds
    hits: dict[str, list[float]] = {inp.label: [] for inp in inputs}  # scaled seconds
    last: dict[str, dict[str, Any]] = {}  # each input's result (identical every round)
    rounds = 0
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        cache = ResultCache(Path(tmp))
        start = time.perf_counter()
        deadline = start + seconds
        while rounds < MIN_ROUNDS or len(setups) < SETUP_REPEATS or time.perf_counter() < deadline:
            rounds += 1
            for inp in inputs:
                done = _checked_run(workload, session, inp, gate, out, f"round {rounds}")
                if done is not None:
                    if inp.label not in last:
                        last[inp.label] = done[1]
                        cache.store(_request(workload, inp).cache_key(), done[1])
                    hit_times = _time_hits(cache, workload, inp, done[1], out)
                    probes.append(probe())
                    raw[inp.label].append(done[0])
                    runs[inp.label].append(scaled(done[0], probes[-1]))
                    hits[inp.label] += [scaled(t, probes[-1]) for t in hit_times]
                # Cold starts are spread over the window of the runs.
                due = 1 + SETUP_REPEATS * (time.perf_counter() - start) / max(seconds, 1e-9)
                if len(setups) < min(SETUP_REPEATS, due):
                    setups.append(cold_start(cold_args))
    rss = peak_rss_mb()

    out.mismatches += gate.mismatches
    # The inputs differ in size: pooled percentiles would sit on the edges
    # between inputs, so per-input figures are combined instead.  A round
    # at mean speed takes the sum of the inputs' mean times.
    timed = [label for label, v in runs.items() if v]
    typical = sum(mean(runs[k]) for k in timed)
    tasks = sum(last[k]["tasks_executed"] for k in timed)
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "sim_tasks_per_s": (tasks / typical, "tasks/s"),
        "sim_events_per_s": (sum(last[k]["engine_events"] for k in timed) / typical, "events/s"),
        "latency_s_p50": (geomean([median(runs[k]) for k in timed]), "s"),
        "latency_s_p90": (geomean([percentile(runs[k], 90) for k in timed]), "s"),
        "hit_latency_s_p50": (geomean([median(hits[k]) for k in timed]), "s"),
        "requests_per_s": (len(timed) / typical, "req/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    fewest = min(len(runs[k]) for k in timed)
    out.notes.append(
        f"{rounds} rounds of {len(inputs)} inputs; per-input percentiles rest on "
        f"{fewest}+ runs (highest quotable percentile: {tail_percentile(fewest)}); "
        f"hit latency on {sum(map(len, hits.values()))} cache hits; "
        f"setup from {SETUP_REPEATS} cold starts"
    )
    out.notes.append(
        f"host-speed probe {median(probes) * 1e3:.1f} ms median over {len(probes)} "
        f"(range {min(probes) * 1e3:.1f}-{max(probes) * 1e3:.1f}; reference "
        f"{NOMINAL_S * 1e3:.0f} ms); unscaled: "
        f"{tasks / sum(mean(raw[k]) for k in timed):.6g} tasks/s, "
        f"latency p50 {geomean([median(raw[k]) for k in timed]):.6g} s"
    )
    return out


def traced(name: str, seed: int, seconds: float, expected: dict[str, Any] | None) -> Outcome:
    """The traced pass: each input untraced, traced, and recorded for the L0 replay."""
    workload = WORKLOADS[name]
    out = Outcome()
    inputs = workload.make_inputs(random.Random(seed))
    gate = Gate(expected)
    totals = RunTotals()
    tracer = Tracer()

    session = workload.session()
    for inp in inputs:
        done = _checked_run(workload, session, inp, gate, out, "untraced")
        if done is not None:
            totals.untraced_ns += int(done[0] * 1e9)

    with instrumented(tracer) as counts:
        session = workload.session()
        for inp in inputs:
            done = _checked_run(workload, session, inp, gate, out, "traced")
            if done is not None:
                totals.traced_ns += int(done[0] * 1e9)
                totals.add_run(done[1], workload.runtime)

    for inp in inputs:
        with recorded_engines() as engines:
            done = _checked_run(workload, workload.session(), inp, gate, out, "recorded")
        if done is not None:
            problem = totals.replay(engines[0], done[1])
            if problem:
                out.mismatches.append(f"{inp.label}: {problem}")

    out.mismatches += gate.mismatches
    out.metrics = {**layer_metrics(tracer.summary(), counts, totals), **idle_metrics()}
    path = WORK_DIR / "trace" / f"{name}.npz"
    tracer.save(path)
    out.notes.append(f"{len(tracer)} spans written to {path.relative_to(ROOT)}")
    return out


def record_expected(name: str, seed: int) -> dict[str, Any]:
    """Fingerprints of one untraced run of every input."""
    workload = WORKLOADS[name]
    gate, out = Gate(None), Outcome()
    session = workload.session()
    for inp in workload.make_inputs(random.Random(seed)):
        if _checked_run(workload, session, inp, gate, out, "record") is None:
            raise RuntimeError(f"cannot record {inp.label}: {out.notes[-1]}")
    return gate.seen
