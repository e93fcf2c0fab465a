"""The HPX-style thread manager: a work-stealing user-level thread
scheduler on top of :class:`repro.simcore.events.Engine`.

One worker per bound core, each with a double-ended queue (owner LIFO /
thief FIFO); idle workers are woken by notifications, never by polling;
victims are scanned same-socket-first — cross-socket steals cost more,
producing the 10-core knee of Figures 11/12.  Every scheduling action
is accounted to either *task execution time* or *task scheduling
overhead*, the two quantities behind the paper's ``/threads/time/*``
counters.  Effect interpretation is shared with the kernel model: this
is a :class:`repro.exec.backend.SchedulerBackend` driven by
:class:`repro.exec.interp.EffectInterpreter`, publishing accounting on
a :class:`repro.exec.probes.ProbeBus`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.exec.errors import DeadlockError, format_stall
from repro.exec.interp import EffectInterpreter
from repro.exec.probes import ProbeBus, SchedulerProbe, WorkerProbe
from repro.model.effects import Await, AwaitAll, Compute, Lock, Spawn, Unlock, YieldNow
from repro.model.future import SimFuture, resume_payload, resume_payload_all
from repro.model.population import TaskCohort
from repro.model.work import Work
from repro.runtime.config import HpxParams
from repro.runtime.policies import LaunchPolicy, _BY_NAME as _POLICY_BY_NAME
from repro.runtime.queues import TaskQueue
from repro.runtime.sync import Mutex
from repro.runtime.task import Task, TaskState
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.simcore.topology import BindMode, Topology

__all__ = ["DeadlockError", "HpxRuntime"]

# Hot-path aliases: `policy is _ASYNC` instead of enum-member loads.
_ASYNC = LaunchPolicy.ASYNC
_FORK = LaunchPolicy.FORK
_SYNC = LaunchPolicy.SYNC


class _Worker:
    """One scheduler worker bound to one core."""

    __slots__ = (
        "index",
        "core_index",
        "socket",
        "queue",
        "state",
        "current",
        "stats",
        "victims",
        "enabled",
    )

    def __init__(self, index: int, core_index: int, socket: int) -> None:
        self.index = index
        self.core_index = core_index
        self.socket = socket
        self.queue = TaskQueue(index)
        self.state = "idle"  # idle | waking | busy
        self.current: Task | None = None
        self.stats = WorkerProbe()
        self.victims: list[int] = []
        # APEX-style throttling: disabled workers stop picking up work
        # (their staged tasks remain stealable).
        self.enabled = True


class HpxRuntime:
    """Facade: spawn tasks, drive the engine, expose counter sources."""

    name = "hpx"
    # User-level tasks never exhaust a kernel resource budget; the
    # attributes exist so both backends share one result-handling path.
    aborted = False
    abort_reason: str | None = None

    def __init__(
        self,
        engine: Engine,
        machine: Machine,
        *,
        num_workers: int,
        params: HpxParams | None = None,
        bind_mode: BindMode = BindMode.COMPACT,
        locality_traffic_factor: float = 1.0,
        smt: int = 1,
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.params = params or HpxParams()
        if self.params.local_queue_discipline not in ("lifo", "fifo"):
            raise ValueError(
                f"unknown local_queue_discipline {self.params.local_queue_discipline!r}"
            )
        # Params are frozen; cache the per-event costs as attributes so
        # the hot paths do one attribute load instead of two.
        p = self.params
        self._notify_ns = p.notify_ns
        self._dequeue_ns = p.dequeue_ns
        self._context_switch_ns = p.context_switch_ns
        self._task_create_ns = p.task_create_ns
        self._enqueue_ns = p.enqueue_ns
        self._suspend_ns = p.suspend_ns
        self._future_get_ready_ns = p.future_get_ready_ns
        self._mutex_ns = p.mutex_ns
        self._cleanup_ns = p.cleanup_ns
        self._lifo = p.local_queue_discipline == "lifo"
        self._stack0_ns = p.stack_alloc_ns(0)  # default-stack allocation cost
        # The shared effect interpreter drives every task body; its step
        # function is what we schedule wherever a task resumes.
        self._interp = EffectInterpreter(self)
        self._step = self._interp.step
        self.topology = Topology(machine.platform)
        cores = self.topology.binding_smt(num_workers, smt, bind_mode)
        self.workers = [
            _Worker(i, core, machine.platform.socket_of(core))
            for i, core in enumerate(cores)
        ]
        # Hyper-threading: number of workers currently computing per
        # physical core (two sharing a core each run slower).
        self._core_compute_count: dict[int, int] = {}
        self._build_victim_orders()
        # Publish the accounting probes on the bus; keep direct
        # references for the hot-path increments.
        self.probes = ProbeBus(SchedulerProbe(), [w.stats for w in self.workers])
        self.stats = self.probes.total
        # Coherence-channel state (see HpxParams.qpi_*_hold_ns).
        self._spans_sockets = len({w.socket for w in self.workers}) > 1
        self._qpi_free_at = 0
        # Multiplier on task memory traffic modelling locality loss under
        # depth-first execution (per-benchmark; see HpxParams docstring).
        self.locality_traffic_factor = locality_traffic_factor
        self._next_tid = 0
        self._next_mid = 0
        self._mutexes: list[Mutex] = []
        # Worker currently fulfilling a future; resumed waiters are pushed
        # to its queue (they were made runnable by that worker).
        self._fulfil_worker: _Worker | None = None
        self._live_tasks: dict[int, Task] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def set_active_workers(self, count: int) -> None:
        """Throttle the pool to its first *count* workers (APEX-style
        adaptation).  Remaining workers finish their current task, then
        idle; their queued tasks stay stealable.  Raising the count
        re-enables and wakes workers."""
        count = max(1, min(count, len(self.workers)))
        for w in self.workers:
            enable = w.index < count
            was_enabled = w.enabled
            w.enabled = enable
            if enable and not was_enabled and w.state == "idle":
                w.state = "waking"
                self.engine.call_later(self._notify_ns, self._worker_scan, w)

    @property
    def active_workers(self) -> int:
        return sum(1 for w in self.workers if w.enabled)

    def add_instrumentation(self, delta_ns: int) -> None:
        """Register (positive) or remove (negative) per-activation
        instrumentation cost; called by counter ``start``/``stop``."""
        self.probes.add_instrumentation(delta_ns)

    @property
    def instrument_ns(self) -> int:
        """Per-activation instrumentation charge (lives on the probe bus)."""
        return self.probes.instrument_ns

    @property
    def trace(self) -> Callable[[int, str, Task, int | None], None] | None:
        """The task life-cycle trace hook (lives on the probe bus)."""
        return self.probes.trace

    @trace.setter
    def trace(self, hook: Callable[[int, str, Task, int | None], None] | None) -> None:
        self.probes.trace = hook

    def set_compute_rewriter(self, rewriter: Callable[[Task, Any], Any] | None) -> None:
        """Install (or remove) a what-if work rewriter on the effect loop
        (see :meth:`repro.exec.interp.EffectInterpreter.set_compute_rewriter`)."""
        self._interp.set_compute_rewriter(rewriter)

    def create_mutex(self) -> Mutex:
        mutex = Mutex(self._next_mid)
        self._next_mid += 1
        self._mutexes.append(mutex)
        return mutex

    def submit(self, fn: Callable[..., Any], *args: Any) -> SimFuture:
        """Stage a root task on worker 0; returns its future."""
        task = self._make_task(
            fn, args, LaunchPolicy.ASYNC, parent=None, home_socket=self.workers[0].socket
        )
        task.staged_at = self.engine.now
        self.workers[0].queue.push_head(task)
        self._kick_for_work(self.workers[0])
        return task.future

    def run_to_completion(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Submit *fn*, run the engine until quiescence, return its value."""
        future = self.submit(fn, *args)
        self.engine.run()
        if not future.is_ready:
            raise DeadlockError(self.describe_stall())
        return future.value()

    def describe_stall(self) -> str:
        stuck = [t for t in self._live_tasks.values() if t.state is not TaskState.TERMINATED]
        return format_stall(stuck, now_ns=self.engine.now)

    # -- counter sources --------------------------------------------------

    def queue_length(self) -> int:
        """Instantaneous number of staged (runnable, unpicked) tasks."""
        return sum(len(w.queue) for w in self.workers)

    def worker_queue_length(self, index: int) -> int:
        """Staged tasks in one worker's own queue."""
        return len(self.workers[index].queue)

    def idle_rate(self, worker_index: int | None = None) -> float:
        """Fraction of wall time not spent busy, in [0, 1]."""
        wall = self.engine.now
        if wall <= 0:
            return 0.0
        if worker_index is None:
            busy = sum(w.stats.busy_ns for w in self.workers)
            return max(0.0, 1.0 - busy / (wall * len(self.workers)))
        return max(0.0, 1.0 - self.workers[worker_index].stats.busy_ns / wall)

    def steals_total(self) -> int:
        return sum(w.stats.steals_ok for w in self.workers)

    # ------------------------------------------------------------------
    # SchedulerBackend: population hooks (cohort execution)
    # ------------------------------------------------------------------

    def population_work(self, work: Work) -> Work:
        """Backend-wide work scaling: the depth-first locality factor."""
        if self.locality_traffic_factor != 1.0:
            return work.scaled(self.locality_traffic_factor)
        return work

    def population_task_costs(self, cohort: TaskCohort) -> tuple[float, float]:
        """Mean per-member (exec_ns, overhead_ns) beyond the compute.

        Prices the member's scheduler interactions with the same cost
        constants the effect handlers charge per event: one activation
        per resumption (dequeue + context switch + instrumentation),
        the first-activation stack allocation, creation + enqueue per
        spawn, a ready-future read per non-suspending await, a suspend
        per blocking await, and cleanup at retirement.  Contention
        terms the exact engine serializes per event (steals, the QPI
        channel, cross-socket activation) average out of the mean-value
        model; ``docs/cohort.md`` quantifies the resulting error.
        """
        activations = 1.0 + cohort.blocking_awaits
        overhead = (
            activations * (self._dequeue_ns + self._context_switch_ns + self.instrument_ns)
            + self._stack0_ns
            + cohort.blocking_awaits * self._suspend_ns
            + self._cleanup_ns
        )
        exec_ns = (
            cohort.spawns * (self._task_create_ns + self._enqueue_ns)
            + cohort.ready_awaits * self._future_get_ready_ns
        )
        return exec_ns, overhead

    def _population_live(self, cohort: TaskCohort) -> int:
        """Peak live members while the cohort runs.

        User-level tasks are admitted lazily under depth-first (LIFO)
        execution: each worker keeps roughly one spawned-but-unpicked
        frontier task per tree level it has descended, so the live
        population grows with ``workers x depth``, not with the cohort
        size (calibrated against exact fib runs; see docs/cohort.md).
        """
        if cohort.depth <= 1:
            return min(cohort.tasks, cohort.peak_live)
        modeled = self.num_workers * max(1, cohort.depth - 2)
        return min(cohort.tasks, modeled)

    def population_begin(self, cohort: TaskCohort) -> int:
        live = self._population_live(cohort)
        stats = self.stats
        stats.live_tasks += live
        if stats.live_tasks > stats.peak_live_tasks:
            stats.peak_live_tasks = stats.live_tasks
        return live

    def population_end(self, cohort: TaskCohort) -> None:
        self.stats.live_tasks -= self._population_live(cohort)

    # ------------------------------------------------------------------
    # task creation and placement
    # ------------------------------------------------------------------

    def _make_task(
        self,
        fn: Callable[..., Any],
        args: tuple,
        policy: LaunchPolicy,
        *,
        parent: Task | None,
        home_socket: int,
        stack_bytes: int = 0,
    ) -> Task:
        task = Task(
            self._next_tid,
            fn,
            args,
            policy,
            parent_tid=parent.tid if parent else None,
            home_socket=home_socket,
            stack_bytes=stack_bytes,
            created_at=self.engine.now,
        )
        self._next_tid += 1
        stats = self.stats
        stats.tasks_created += 1
        live = stats.live_tasks + 1
        stats.live_tasks = live
        if live > stats.peak_live_tasks:
            stats.peak_live_tasks = live
        self._live_tasks[task.tid] = task
        if self.trace:
            self.trace(self.engine.now, "create", task, None)
        return task

    def _kick_for_work(self, preferred: _Worker) -> None:
        """Wake an idle worker because runnable work exists."""
        target: _Worker | None = None
        if preferred.state == "idle" and preferred.enabled:
            target = preferred
        else:
            # Nearest enabled idle worker (same socket first) will steal it.
            for vi in preferred.victims:
                candidate = self.workers[vi]
                if candidate.state == "idle" and candidate.enabled:
                    target = candidate
                    break
        if target is None:
            return
        target.state = "waking"
        self.engine.call_later(self._notify_ns, self._worker_scan, target)

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------

    def _suspend(self, task: Task) -> None:
        """Mark *task* suspended (waiting on a future or mutex)."""
        task.state = TaskState.SUSPENDED
        self.stats.suspended_tasks += 1

    # -- accounting: charge *ns* to a task's exec or overhead time ---------

    def _charge_exec(self, w: _Worker, task: Task, ns: int) -> None:
        task.exec_ns += ns
        w.stats.exec_ns += ns
        w.stats.busy_ns += ns

    def _charge_overhead(self, w: _Worker, task: Task, ns: int) -> None:
        task.overhead_ns += ns
        w.stats.overhead_ns += ns
        w.stats.busy_ns += ns

    def _qpi_delay(self, w: _Worker) -> int:
        """Serialize one scheduler op on the cross-socket coherence
        channel; returns the delay to charge.  Free while all workers
        share one socket."""
        if not self._spans_sockets:
            return 0
        hold = (
            self.params.qpi_local_hold_ns
            if w.socket == self.workers[0].socket
            else self.params.qpi_remote_hold_ns
        )
        start = max(self.engine.now, self._qpi_free_at)
        self._qpi_free_at = start + hold
        return self._qpi_free_at - self.engine.now

    def _build_victim_orders(self) -> None:
        order = self.params.steal_order
        if order not in ("near-first", "far-first", "random"):
            raise ValueError(f"unknown steal_order {self.params.steal_order!r}")
        for w in self.workers:
            same = [
                o.index
                for o in sorted(self.workers, key=lambda o: (abs(o.index - w.index), o.index))
                if o.index != w.index and o.socket == w.socket
            ]
            other = [o.index for o in self.workers if o.socket != w.socket]
            if order == "near-first":
                w.victims = same + other
            elif order == "far-first":
                w.victims = other + same
            else:  # random but deterministic per worker
                from repro.simcore.rng import derive_rng

                victims = same + other
                derive_rng(0xABAD1DEA, "steal-order", w.index).shuffle(victims)
                w.victims = victims

    def _worker_scan(self, w: _Worker) -> None:
        """Find work: own queue head, then steal; go idle if none."""
        if w.state == "busy":
            return  # a racing wake-up; the worker is already running
        if not w.enabled:
            w.state = "idle"
            # Throttled away: any work staged here must remain reachable.
            if len(w.queue):
                self._kick_for_work(w)
            return
        task = w.queue.pop_head()
        overhead = self._dequeue_ns
        if task is None:
            for vi in w.victims:
                victim = self.workers[vi]
                w.stats.steals_attempted += 1
                task = victim.queue.steal_tail()
                if task is not None:
                    w.stats.steals_ok += 1
                    if victim.socket != w.socket:
                        w.stats.steals_cross_socket += 1
                        overhead = self.params.steal_cross_socket_ns
                    else:
                        overhead = self.params.steal_same_socket_ns
                    break
        if task is None:
            w.state = "idle"
            return
        w.state = "busy"
        self._activate(w, task, overhead)

    def _activate(self, w: _Worker, task: Task, overhead_ns: int) -> None:
        """Context-switch into *task* and start driving its body."""
        overhead = overhead_ns + self._context_switch_ns + self.instrument_ns
        if task.phases == 0:
            sb = task.stack_bytes
            overhead += self._stack0_ns if sb == 0 else self.params.stack_alloc_ns(sb)
        if task.home_socket != w.socket:
            overhead += self.params.cross_socket_activation_ns
        if self._spans_sockets:
            overhead += self._qpi_delay(w)
        if task.staged_at is not None:
            self.stats.pending_wait_ns += self.engine.now - task.staged_at
            self.stats.pending_waits += 1
            task.staged_at = None
        task.state = TaskState.ACTIVE
        task.phases += 1
        self.stats.phases += 1
        self._charge_overhead(w, task, overhead)
        w.current = task
        if self.trace:
            self.trace(self.engine.now, "activate", task, w.index)
        send = task.pending_send
        task.pending_send = None
        self.engine.call_later(overhead, self._step, w, task, send)

    def _after_task(self, w: _Worker) -> None:
        """The worker just finished/suspended a task; look for the next."""
        w.current = None
        w.state = "waking"
        self._worker_scan(w)

    # ------------------------------------------------------------------
    # SchedulerBackend: effect handlers (the interpreter dispatches here)
    # ------------------------------------------------------------------

    def begin_step(self, w: _Worker, task: Task) -> bool:
        """Interpreter gate: user-level tasks always step."""
        return True

    # -- compute -----------------------------------------------------------

    def do_compute(self, w: _Worker, task: Task, effect: Compute) -> None:
        work = effect.work
        if self.locality_traffic_factor != 1.0:
            work = work.scaled(self.locality_traffic_factor)
        cross = (
            self.params.cross_socket_data_fraction
            if task.home_socket != w.socket and work.membytes > 0
            else 0.0
        )
        sharing = self._core_compute_count.get(w.core_index, 0)
        speed = self.params.smt_slowdown if sharing else 1.0
        self._core_compute_count[w.core_index] = sharing + 1
        ticket = self.machine.segment_begin(
            w.core_index, work, cross_socket_fraction=cross, speed_factor=speed
        )
        duration = ticket.duration_ns
        self._charge_exec(w, task, duration)
        self.engine.call_later(duration, self._finish_compute, w, task, ticket, work)

    def _finish_compute(self, w: _Worker, task: Task, ticket: Any, work: Work) -> None:
        self._core_compute_count[w.core_index] -= 1
        self.machine.segment_end(ticket, work)
        self._step(w, task, None)

    # -- spawn -------------------------------------------------------------

    def do_spawn(self, w: _Worker, task: Task, effect: Spawn) -> None:
        policy = _POLICY_BY_NAME.get(effect.policy)
        if policy is None:
            policy = LaunchPolicy.parse(effect.policy)
        cost = self._task_create_ns
        if self._spans_sockets:
            cost += self._qpi_delay(w)
        child = self._make_task(
            effect.fn,
            effect.args,
            policy,
            parent=task,
            home_socket=w.socket,
            stack_bytes=effect.stack_bytes,
        )
        if policy is _ASYNC or policy is _FORK:
            cost += self._enqueue_ns
            child.staged_at = self.engine.now
            if policy is _FORK or self._lifo:
                # Child at the hot end: the owner executes depth-first
                # (fork additionally implies it runs next on this core).
                w.queue.push_head(child)
            else:
                # FIFO ablation: breadth-first execution order.
                w.queue.push_tail(child)
            self._kick_for_work(w)
        elif policy is _SYNC:
            # Execute inline: chain the child now, resume parent on return.
            self._charge_exec(w, task, cost)
            self._run_inline(w, task, child)
            return
        # DEFERRED: not staged; runs at first wait on its future.
        self._charge_exec(w, task, cost)
        self.engine.call_later(cost, self._step, w, task, child.future)

    def _run_inline(self, w: _Worker, parent: Task, child: Task) -> None:
        """Run *child* immediately on this worker; resume parent on return.

        The parent's ``yield ctx.async_(..., policy="sync")`` resumes with
        the (now ready) future, matching the other launch policies.
        """
        self._suspend(parent)
        child.future.on_ready(lambda fut: self._resume_task(parent, _SendRaw(fut)))
        self._activate(w, child, 0)

    # -- waiting -------------------------------------------------------------

    def do_await(self, w: _Worker, task: Task, effect: Await) -> None:
        future = effect.future
        if future.is_ready:
            cost = self._future_get_ready_ns
            self._charge_exec(w, task, cost)
            self.probes.emit_dependencies(self.engine.now, task, (future,))
            payload = resume_payload(future)
            self.engine.call_later(cost, self._step, w, task, payload)
            return
        producer = future.producer_task
        if (
            producer is not None
            and isinstance(producer, Task)
            and producer.state is TaskState.DEFERRED
        ):
            producer.state = TaskState.PENDING
            self._suspend(task)
            future.on_ready(lambda fut: self._resume_task(task, fut))
            self._activate(w, producer, 0)
            return
        cost = self._suspend_ns
        self._charge_overhead(w, task, cost)
        self._suspend(task)
        if self.trace:
            self.trace(self.engine.now, "suspend", task, w.index)
        future.on_ready(lambda fut: self._resume_task(task, fut))
        self.engine.call_later(cost, self._after_task, w)

    def do_await_all(self, w: _Worker, task: Task, effect: AwaitAll) -> None:
        futures = effect.futures
        pending = [f for f in futures if not f.is_ready]
        # Run deferred producers inline, one by one, by rewriting the wait
        # as a chain: wait on the first deferred child, then re-wait.
        for fut in pending:
            producer = fut.producer_task
            if isinstance(producer, Task) and producer.state is TaskState.DEFERRED:
                producer.state = TaskState.PENDING
                self._suspend(task)
                fut.on_ready(lambda _f, t=task, fs=futures: self._reawait_all(t, fs))
                self._activate(w, producer, 0)
                return
        if not pending:
            cost = self._future_get_ready_ns
            self._charge_exec(w, task, cost)
            self.probes.emit_dependencies(self.engine.now, task, futures)
            payload = resume_payload_all(futures)
            self.engine.call_later(cost, self._step, w, task, payload)
            return
        cost = self._suspend_ns
        self._charge_overhead(w, task, cost)
        self._suspend(task)
        remaining = {"count": len(pending)}

        def one_ready(_fut: SimFuture) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self._resume_task(task, _AwaitAllDone(futures))

        for fut in pending:
            fut.on_ready(one_ready)
        self.engine.call_later(cost, self._after_task, w)

    def _reawait_all(self, task: Task, futures: tuple) -> None:
        """Re-issue an AwaitAll after an inline deferred child completed."""
        task.pending_send = None
        worker = self._fulfil_worker or self.workers[0]
        if task.state is TaskState.SUSPENDED:
            self.stats.suspended_tasks -= 1
        task.state = TaskState.ACTIVE
        # Dispatch directly: the task is still positioned at its AwaitAll.
        self.do_await_all(worker, task, AwaitAll(futures=futures))

    # -- mutexes ---------------------------------------------------------------

    def do_lock(self, w: _Worker, task: Task, effect: Lock) -> None:
        mutex = effect.mutex
        if mutex.try_acquire(task):
            cost = self._mutex_ns
            self._charge_exec(w, task, cost)
            self.engine.call_later(cost, self._step, w, task, None)
            return
        cost = self._suspend_ns
        self._charge_overhead(w, task, cost)
        self._suspend(task)
        mutex.enqueue_waiter(task)
        self.engine.call_later(cost, self._after_task, w)

    def do_unlock(self, w: _Worker, task: Task, effect: Unlock) -> None:
        next_owner = effect.mutex.release(task)
        cost = self._mutex_ns
        self._charge_exec(w, task, cost)
        if next_owner is not None:
            # The waiter now owns the mutex; make it runnable here.
            self._push_resumed(w, next_owner, None)
        self.engine.call_later(cost, self._step, w, task, None)

    def do_yield(self, w: _Worker, task: Task, effect: YieldNow) -> None:
        cost = self._context_switch_ns
        self._charge_overhead(w, task, cost)
        task.state = TaskState.PENDING
        task.pending_send = None
        task.staged_at = self.engine.now
        w.queue.push_tail(task)
        self.engine.call_later(cost, self._after_task, w)

    # -- completion and resumption ------------------------------------------------

    def complete(self, w: _Worker, task: Task, value: Any) -> None:
        cost = self._cleanup_ns
        self._charge_overhead(w, task, cost)
        task.state = TaskState.TERMINATED
        w.stats.tasks_executed += 1
        self.stats.tasks_executed += 1
        self.stats.exec_ns += task.exec_ns
        self.stats.overhead_ns += task.overhead_ns
        self.stats.live_tasks -= 1
        del self._live_tasks[task.tid]
        if self.trace:
            self.trace(self.engine.now, "terminate", task, w.index)
        # Drop the task -> future edge: the future keeps its producer
        # (``depend`` edges need its tid), and a retired task is then
        # freed by refcounting once its future is, GC paused or not.
        future = task.future
        task.future = None
        prev = self._fulfil_worker
        self._fulfil_worker = w
        try:
            future.set_value(value)
        finally:
            self._fulfil_worker = prev
        self.engine.call_later(cost, self._after_task, w)

    def fail(self, w: _Worker, task: Task, exc: BaseException) -> None:
        task.state = TaskState.TERMINATED
        w.stats.tasks_executed += 1
        self.stats.tasks_executed += 1
        self.stats.exec_ns += task.exec_ns
        self.stats.overhead_ns += task.overhead_ns
        self.stats.live_tasks -= 1
        del self._live_tasks[task.tid]
        future = task.future  # break the cycle, as in complete()
        task.future = None
        prev = self._fulfil_worker
        self._fulfil_worker = w
        try:
            future.set_exception(exc)
        finally:
            self._fulfil_worker = prev
        self.engine.call_later(self._cleanup_ns, self._after_task, w)

    def _resume_task(self, task: Task, send_value: Any) -> None:
        """A suspended task became runnable (future set / mutex granted)."""
        cls = send_value.__class__
        if cls is _SendRaw:
            send_value = send_value.value
        elif cls is SimFuture or isinstance(send_value, SimFuture):
            self.probes.emit_dependencies(self.engine.now, task, (send_value,))
            send_value = resume_payload(send_value)
        elif cls is _AwaitAllDone:
            self.probes.emit_dependencies(self.engine.now, task, send_value.futures)
            send_value = resume_payload_all(send_value.futures)
        task.pending_send = send_value
        worker = self._fulfil_worker or self.workers[0]
        self._push_resumed(worker, task, None)

    def _push_resumed(self, worker: _Worker, task: Task, _unused: Any) -> None:
        if task.state is TaskState.SUSPENDED:
            self.stats.suspended_tasks -= 1
        task.state = TaskState.PENDING
        task.staged_at = self.engine.now
        worker.queue.push_head(task)
        if self.trace:
            self.trace(self.engine.now, "resume", task, worker.index)
        self._kick_for_work(worker)


class _AwaitAllDone:
    """Marker carrying the futures of a completed AwaitAll."""

    __slots__ = ("futures",)

    def __init__(self, futures: tuple) -> None:
        self.futures = futures


class _SendRaw:
    """Marker: send the wrapped value into the generator as-is."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value
