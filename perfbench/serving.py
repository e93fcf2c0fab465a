"""The ``serve-mixed`` workload: a spawned ``repro serve`` under a closed loop.

One client process (this one) drives two connections; each submits a
request, long-polls its result, then submits the next.  The request list
mixes unique small exact cells (cache misses), paper-scale cohort cells,
a hot set resubmitted throughout (cache hits) and legacy
``benchmark``/``params`` spellings of the hot cells (hits through the
other spelling).  Almost no time goes into the event core here: the cost
is per request (registry build, session set-up, result serialisation,
cache load/store, HTTP).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from perfbench.exact import WORK_DIR, Outcome
from perfbench.fingerprint import Gate, fingerprint
from perfbench.hostspeed import probe, scaled
from perfbench.layers import RunTotals, instrumented, layer_metrics, recorded_engines
from perfbench.quantiles import median, percentile, tail_percentile
from perfbench.spans import Tracer

#: Connections of the closed loop, and pool workers of the server: the
#: benchmark, the server and its worker share one core (``one_core``).
CONNECTIONS = 2
WORKERS = 1
SETUP_REPEATS = 5
#: A run completes at least this many requests, even past ``--seconds``.
MIN_REQUESTS = 100
#: Length of the generated request list; a run never consumes more.
MAX_REQUESTS = 6000
#: Warm-up requests (distinct from the list) sent before timing starts.
WARMUP_REQUESTS = 4
MAX_429_RETRIES = 5
REQUEST_TIMEOUT_S = 60.0
#: The traced pass replays at most this many requests in-process.
REPLAY_MAX = 150
HOT_CELLS = 6
#: The closed loop pauses this often: both connections finish their
#: request, the client times a host-speed probe while the server is idle,
#: and the segment's times are scaled by it (``hostspeed``).  The host's
#: speed swings from second to second, so segments are kept short.
SEGMENT_S = 1.0
#: Request kinds and their shares of the list.  Hits stay well under half,
#: so the median latency sits inside the cold cluster, not on its edge.
MIX = (("cold", 0.55), ("cohort", 0.05), ("hot", 0.28), ("legacy", 0.12))


@dataclass(frozen=True)
class Request:
    kind: str
    body: dict[str, Any]
    cell: int = -1  # which hot cell a hot or legacy request spells


def _small_cell(rng: random.Random) -> tuple[str, dict[str, Any]]:
    """A small exact cell: (workload name, params)."""
    if rng.random() < 0.5:
        return "fib", {"n": rng.randint(8, 12)}
    return "taskbench", {
        "shape": "trivial",
        "width": rng.randint(4, 16),
        "steps": rng.randint(2, 8),
        "grain_ns": rng.choice((500, 1000, 2000)),
    }


def _spelled(name: str, params: dict[str, Any]) -> str:
    return name + ":" + ",".join(f"{k}={v}" for k, v in params.items())


def make_requests(seed: int, count: int = MAX_REQUESTS) -> list[Request]:
    """The request list for *seed*: every cold and cohort cell is distinct (own seed)."""
    rng = random.Random(seed)
    seeds = iter(rng.sample(range(1, 2**31), count))
    hot = []
    for _ in range(HOT_CELLS):
        name, params = _small_cell(rng)
        hot.append((name, params, rng.choice((1, 2, 4, 8)), rng.choice(("hpx", "std"))))
    sent: set[int] = set()  # hot cells submitted at least once
    kinds, weights = zip(*MIX)
    out = []
    for _ in range(count):
        kind = rng.choices(kinds, weights)[0]
        if kind == "cold":
            name, params = _small_cell(rng)
            body = {
                "workload": _spelled(name, params),
                "cores": rng.choice((1, 2, 4, 8)),
                "runtime": rng.choice(("hpx", "hpx", "hpx", "std")),
                "seed": next(seeds),
            }
        elif kind == "cohort":
            if rng.random() < 0.5:
                body = {"workload": "fib:n=40,mode=cohort", "cores": rng.choice((4, 8, 16, 20))}
            else:
                body = {
                    "workload": "uts",
                    "preset": "paper",
                    "mode": "cohort",
                    "cores": rng.choice((4, 8, 16, 20)),
                }
            body["seed"] = next(seeds)
        else:
            which = rng.randrange(HOT_CELLS)
            name, params, cores, runtime = hot[which]
            if kind == "legacy" and which not in sent:
                kind = "hot"  # a legacy spelling only hits once the cell is cached
            if kind == "hot":
                body = {"workload": _spelled(name, params), "cores": cores, "runtime": runtime}
            else:
                body = {
                    "benchmark": name,
                    "params": dict(params),
                    "cores": cores,
                    "runtime": runtime,
                }
            sent.add(which)
            out.append(Request(kind, body, which))
            continue
        out.append(Request(kind, body))
    return out


def warmup_requests(seed: int) -> list[Request]:
    rng = random.Random(f"warmup-{seed}")
    return [
        Request("warmup", {"workload": _spelled(*_small_cell(rng)), "cores": 2, "seed": 2**31 + i})
        for i in range(WARMUP_REQUESTS)
    ]


def digest(result: dict[str, Any]) -> str:
    """A served result's fingerprint, shortened: the list has thousands of cells."""
    blob = json.dumps(fingerprint(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def label(key: str) -> str:
    """Gate label of a cell: its cache key, shortened like the digest."""
    return key[:16]


@dataclass
class Served:
    """The client-side record of one request."""

    index: int
    kind: str
    cell: int
    ok: bool
    latency_s: float = 0.0
    admit_s: float = 0.0
    run_s: float = 0.0
    cached: bool = False
    retries: int = 0
    key: str = ""
    result: dict[str, Any] | None = None
    error: str = ""
    segment: int = 0  # which segment of the closed loop served it


async def _one(client: Any, index: int, req: Request, tracer: Tracer | None) -> Served:
    from repro.serve.client import ServeError

    start = time.perf_counter_ns()
    rec = Served(index, req.kind, req.cell, ok=False)
    admits: list[tuple[int, int]] = []
    poll = (0, 0)
    try:
        while True:
            a0 = time.perf_counter_ns()
            reply = await client.submit_raw(req.body)
            admits.append((a0, time.perf_counter_ns()))
            if reply.status != 429:
                break
            rec.retries += 1
            if rec.retries > MAX_429_RETRIES:
                raise RuntimeError(f"gave up after {MAX_429_RETRIES} refusals (429)")
            await asyncio.sleep(reply.retry_after or 1.0)
        if reply.status not in (200, 202):
            raise ServeError(reply, "submit")
        submitted = reply.json()
        p0 = time.perf_counter_ns()
        status = await client.result(submitted["id"], timeout=REQUEST_TIMEOUT_S)
        poll = (p0, time.perf_counter_ns())
        if status["state"] != "done":
            raise RuntimeError(f"run {status['id']} {status['state']}: {status.get('error')}")
        rec.result = status["result"]
        rec.key = status["key"]
        rec.cached = bool(submitted["cached"])
        rec.run_s = 0.0 if rec.cached else float(status.get("run_seconds", 0.0))
        rec.ok = bool(rec.result["verified"]) and not rec.result["aborted"]
        if not rec.ok:
            rec.error = f"verified={rec.result['verified']} aborted={rec.result['aborted']}"
    except (ServeError, RuntimeError, TimeoutError, OSError, ValueError) as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter_ns()
    rec.latency_s = (end - start) / 1e9
    rec.admit_s = sum(b - a for a, b in admits) / 1e9
    if tracer is not None:
        parent = tracer.add("serve.request", start, end, req=index)
        for a, b in admits:
            tracer.add("serve.admit", a, b, parent=parent, req=index)
        if poll[1]:
            tracer.add("serve.poll", *poll, parent=parent, req=index)
    return rec


async def _closed_loop(
    host: str,
    port: int,
    requests: list[Request],
    seconds: float,
    min_done: int,
    tracer: Tracer | None,
) -> tuple[list[Served], list[tuple[float, float]]]:
    """Serve *requests* in segments; return the records and each segment's (wall, probe) seconds."""
    from repro.serve.client import ServeClient

    client = ServeClient(host, port, tenant="perfbench")
    queue = iter(enumerate(requests))
    served: list[Served] = []
    segments: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds

    async def connection(until: float) -> None:
        for index, req in queue:
            record = await _one(client, index, req, tracer)
            record.segment = len(segments)
            served.append(record)
            if time.perf_counter() >= until:
                return

    while True:
        start = time.perf_counter()
        await asyncio.gather(*(connection(start + SEGMENT_S) for _ in range(CONNECTIONS)))
        segments.append((time.perf_counter() - start, probe()))
        if len(served) == len(requests):
            break
        if time.perf_counter() >= deadline and len(served) >= min_done:
            break
    return sorted(served, key=lambda s: s.index), segments


def _healthy(host: str, port: int) -> None:
    from repro.serve.client import ServeClient

    client = ServeClient(host, port)

    async def poll() -> None:
        while True:
            try:
                await client.healthz()
                return
            except OSError:
                await asyncio.sleep(0.005)

    asyncio.run(asyncio.wait_for(poll(), 60))


@contextmanager
def server(cache_dir: Path) -> Iterator[tuple[Any, float]]:
    """A spawned ``repro serve`` and the seconds it took until ``/healthz`` answered."""
    from repro.serve.testing import spawn_server

    start = time.perf_counter()
    with spawn_server(
        workers=WORKERS, cache_dir=cache_dir, quota_rate=1e6, quota_burst=1e6
    ) as srv:
        _healthy(srv.host, srv.port)
        yield srv, time.perf_counter() - start


@contextmanager
def one_core() -> Iterator[None]:
    """Pin this process, and the server it spawns, to one core; unpin afterwards.

    The host-speed probe runs on one core; pinned, the server and its
    worker run on the core the probe measures.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sizes of a process and its children."""
    pids = [pid]
    try:
        pids += [int(c) for c in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
    except OSError:
        pass
    total_kb = 0
    for p in pids:
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def _drive(
    srv: Any, seed: int, seconds: float, tracer: Tracer | None = None
) -> tuple[list[Served], list[tuple[float, float]], dict[str, float]]:
    """Warm the pool, run the closed loop, and read ``/stats``."""
    from repro.serve.client import ServeClient

    asyncio.run(_closed_loop(srv.host, srv.port, warmup_requests(seed), 0.0, WARMUP_REQUESTS, None))
    served, segments = asyncio.run(
        _closed_loop(srv.host, srv.port, make_requests(seed), seconds, MIN_REQUESTS, tracer)
    )
    stats = asyncio.run(ServeClient(srv.host, srv.port).stats())["counters"]
    return served, segments, stats


def _check(served: list[Served], gate: Gate, out: Outcome) -> None:
    """Count failures, gate every result, and check both spellings of a hot cell share a key."""
    out.attempted += len(served)
    hot_keys: dict[int, str] = {}
    for rec in served:
        if not rec.ok:
            out.fail(f"request {rec.index} ({rec.kind}): {rec.error}")
            continue
        gate.observe(label(rec.key), digest(rec.result), f"request {rec.index}")
        if rec.cell >= 0 and hot_keys.setdefault(rec.cell, rec.key) != rec.key:
            out.mismatches.append(
                f"request {rec.index}: {rec.kind} spelling of hot cell {rec.cell} "
                "got another cache key"
            )


def measure(name: str, seed: int, seconds: float, expected: dict[str, Any] | None) -> Outcome:
    """The untraced pass: serve end-to-end metrics."""
    out = Outcome()
    gate = Gate(expected)
    setups = []
    WORK_DIR.mkdir(exist_ok=True)
    for attempt in range(SETUP_REPEATS):
        with (
            one_core(),
            tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp,
            server(Path(tmp)) as (srv, setup),
        ):
            setups.append(setup)
            if attempt == SETUP_REPEATS - 1:
                served, segments, _ = _drive(srv, seed, seconds)
                rss = _tree_peak_rss_mb(srv.process.pid)
    _check(served, gate, out)
    out.mismatches += gate.mismatches
    # Host times are scaled by the probe that closed their segment.
    probes = [p for _, p in segments]
    wall = sum(scaled(w, p) for w, p in segments)
    done = [s for s in served if s.ok]
    latencies = [scaled(s.latency_s, probes[s.segment]) for s in done]
    hits = [scaled(s.latency_s, probes[s.segment]) for s in done if s.cached]
    cold = [s for s in done if not s.cached and s.result["mode"] == "exact"]
    busy = sum(scaled(s.run_s, probes[s.segment]) for s in cold)
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "sim_tasks_per_s": (sum(s.result["tasks_executed"] for s in cold) / busy, "tasks/s"),
        "sim_events_per_s": (sum(s.result["engine_events"] for s in cold) / busy, "events/s"),
        "latency_s_p50": (median(latencies), "s"),
        "latency_s_p90": (percentile(latencies, 90), "s"),
        "hit_latency_s_p50": (median(hits), "s"),
        "requests_per_s": (len(done) / wall, "req/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    kinds = {k: sum(1 for s in served if s.kind == k) for k, _ in MIX}
    out.notes.append(
        f"{len(served)} requests over {CONNECTIONS} connections in {len(segments)} segments, "
        f"{sum(w for w, _ in segments):.1f} s ({kinds}); "
        f"latency percentiles rest on {len(latencies)} requests (highest quotable percentile: "
        f"{tail_percentile(len(latencies))}), hit latency on {len(hits)}, tasks/events rates on "
        f"{len(cold)} executed exact cells; {sum(s.retries for s in served)} 429 retries"
    )
    out.notes.append(
        f"host-speed probe {median(probes) * 1e3:.1f} ms median over {len(probes)} segments "
        f"(range {min(probes) * 1e3:.1f}-{max(probes) * 1e3:.1f}); unscaled: latency p50 "
        f"{median([s.latency_s for s in done]):.6g} s, "
        f"{len(done) / sum(w for w, _ in segments):.6g} req/s"
    )
    return out


def _replay(
    requests: list[Request], cache_root: Path, tracer: Tracer | None
) -> tuple[int, list[tuple[str, str, dict[str, Any]]]]:
    """The server's admission and run path, in-process: parse, key, load, execute, store."""
    from repro.campaign.cache import ResultCache
    from repro.campaign.engine import execute_cell
    from repro.serve.queue import RunRequest

    def timed(name: str, fn: Any) -> Any:
        return fn if tracer is None else tracer.wrap(name, fn)

    cache = ResultCache(cache_root)
    parse = timed("campaign.request", lambda body: RunRequest.from_json(body))
    key_of = timed("campaign.cache_key", lambda req: req.cache_key())
    load = timed("campaign.cache_load", cache.load)
    store = timed("campaign.cache_store", cache.store)
    execute = timed("campaign.execute_cell", execute_cell)
    results = []
    start = time.perf_counter_ns()
    for req in requests:
        request = parse(req.body)
        key = key_of(request)
        data = load(key)
        if data is None:
            data = execute(*request.to_cell())
            store(key, data)
            results.append((key, request.runtime, data))
    return time.perf_counter_ns() - start, results


def traced(name: str, seed: int, seconds: float, expected: dict[str, Any] | None) -> Outcome:
    """The traced pass: client-side serve spans, then the request list replayed in-process."""
    out = Outcome()
    gate = Gate(expected)
    tracer = Tracer()
    WORK_DIR.mkdir(exist_ok=True)
    with (
        one_core(),
        tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp,
        server(Path(tmp)) as (srv, _),
    ):
        served, segments, stats = _drive(srv, seed, seconds / 2, tracer)
    wall = sum(w for w, _ in segments)
    _check(served, gate, out)

    requests = make_requests(seed)
    replayed = [requests[s.index] for s in served[:REPLAY_MAX]]
    totals = RunTotals()
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        totals.untraced_ns, _ = _replay(replayed, Path(tmp), None)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp, instrumented(tracer) as counts:
        totals.traced_ns, results = _replay(replayed, Path(tmp), tracer)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp, recorded_engines() as engines:
        _, recorded = _replay(replayed, Path(tmp), None)
    out.attempted += len(results) + len(recorded)
    for key, runtime, data in results:
        gate.observe(label(key), digest(data), "traced replay")
        totals.add_run(data, runtime)
    for engine, (key, _, data) in zip(engines, recorded, strict=True):
        gate.observe(label(key), digest(data), "recorded replay")
        problem = totals.replay(engine, data)
        if problem:
            out.mismatches.append(f"{label(key)}: {problem}")

    summary = tracer.summary()
    done = [s for s in served if s.ok]
    cold = [s for s in done if not s.cached]

    def mean_ms(span: str) -> float:
        row = summary.get(span, {"count": 0})
        return row["total_ns"] / row["count"] / 1e6 if row["count"] else 0.0

    hits = stats.get("/serve{locality#0/cache}/hits", 0.0)
    lookups = hits + stats.get("/serve{locality#0/cache}/misses", 0.0)
    out.metrics = {
        **layer_metrics(summary, counts, totals),
        "campaign.execute_cell_ms": (mean_ms("campaign.execute_cell"), "ms"),
        "campaign.cache_load_ms": (mean_ms("campaign.cache_load"), "ms"),
        "campaign.cache_store_ms": (mean_ms("campaign.cache_store"), "ms"),
        "campaign.result_to_dict_ms": (mean_ms("campaign.result_to_dict"), "ms"),
        "serve.admit_ms_p50": (median([s.admit_s for s in done]) * 1e3, "ms"),
        "serve.run_ms_p50": (median([s.run_s for s in cold]) * 1e3, "ms"),
        "serve.wait_ms_p50": (
            median([s.latency_s - s.admit_s - s.run_s for s in done]) * 1e3,
            "ms",
        ),
        "serve.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "serve.cache_lookups": (lookups, "count"),
        "serve.rejected_429": (float(sum(s.retries for s in served)), "count"),
        "serve.requests": (float(len(done)), "count"),
    }
    out.mismatches += gate.mismatches
    path = WORK_DIR / "trace" / f"{name}.npz"
    tracer.save(path)
    out.notes.append(
        f"{len(served)} requests served in {wall:.1f} s, {len(replayed)} replayed in-process; "
        f"{len(tracer)} spans written to {path.relative_to(WORK_DIR.parent)}"
    )
    return out


def record_expected(name: str, seed: int) -> dict[str, str]:
    """Fingerprints of every distinct cell of the request list, computed in-process."""
    from repro.campaign.engine import execute_cell
    from repro.serve.queue import RunRequest

    table: dict[str, str] = {}
    for req in make_requests(seed):
        request = RunRequest.from_json(req.body)
        key = label(request.cache_key())
        if key not in table:
            table[key] = digest(execute_cell(*request.to_cell()))
    return table
