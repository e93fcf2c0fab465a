"""Kernel scheduler for the thread-per-task (``std::async``) model.

A single global FIFO run queue feeds the bound cores.  Every dispatch
pays a context switch plus run-queue lock contention that grows with
the number of cores hammering the queue; every ``std::async`` pays a
thread creation inside the parent; every not-ready ``get()`` pays a
futex block/wake pair.  Committed memory is tracked per live thread and
the process aborts when the budget is exhausted — the paper's observed
failure mode for Fib, Health, NQueens and UTS.

Effect interpretation is shared with the HPX model: this module is a
:class:`repro.exec.backend.SchedulerBackend` implementation driven by
:class:`repro.exec.interp.EffectInterpreter`, publishing its accounting
on a :class:`repro.exec.probes.ProbeBus` so the same counters, trace
recorder and metrics work on both runtimes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.exec.errors import DeadlockError, ResourceExhausted, describe_tasks, format_stall
from repro.exec.interp import EffectInterpreter
from repro.exec.probes import KernelProbe, ProbeBus, WorkerProbe
from repro.model.effects import Await, AwaitAll, Compute, Lock, Spawn, Unlock, YieldNow
from repro.model.future import SimFuture, resume_payload, resume_payload_all
from repro.model.population import TaskCohort
from repro.model.work import Work
from repro.kernel.config import StdParams
from repro.kernel.thread import OSThread, ThreadState
from repro.runtime.policies import LaunchPolicy, _BY_NAME as _POLICY_BY_NAME
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.simcore.topology import BindMode, Topology

# Legacy spelling: the kernel stats struct is the shared probe type now.
StdStats = KernelProbe

__all__ = ["KMutex", "ResourceExhausted", "StdRuntime", "StdStats"]


class KMutex:
    """``std::mutex``: futex-based, FIFO hand-off under contention."""

    __slots__ = ("mid", "owner", "waiters", "acquisitions", "contentions")

    def __init__(self, mid: int) -> None:
        self.mid = mid
        self.owner: OSThread | None = None
        self.waiters: deque[OSThread] = deque()
        self.acquisitions = 0
        self.contentions = 0

    def try_acquire(self, thread: OSThread) -> bool:
        if self.owner is None:
            self.owner = thread
            self.acquisitions += 1
            return True
        return False

    def enqueue_waiter(self, thread: OSThread) -> None:
        self.contentions += 1
        self.waiters.append(thread)

    def release(self, thread: OSThread) -> OSThread | None:
        if self.owner is not thread:
            raise RuntimeError(f"thread {thread.tid} releasing mutex {self.mid} it does not own")
        if self.waiters:
            nxt = self.waiters.popleft()
            self.owner = nxt
            self.acquisitions += 1
            return nxt
        self.owner = None
        return None


class _KCore:
    __slots__ = ("index", "core_index", "socket", "current", "stats")

    def __init__(self, index: int, core_index: int, socket: int) -> None:
        self.index = index
        self.core_index = core_index
        self.socket = socket
        self.current: OSThread | None = None
        self.stats = WorkerProbe()


class StdRuntime:
    """Facade mirroring :class:`repro.runtime.scheduler.HpxRuntime`."""

    name = "std"

    def __init__(
        self,
        engine: Engine,
        machine: Machine,
        *,
        num_workers: int,
        params: StdParams | None = None,
        bind_mode: BindMode = BindMode.COMPACT,
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.params = params or StdParams()
        self.topology = Topology(machine.platform)
        cores = self.topology.binding(num_workers, bind_mode)
        self.cores = [
            _KCore(i, core, machine.platform.socket_of(core)) for i, core in enumerate(cores)
        ]
        self.run_queue: deque[OSThread] = deque()
        # The shared effect interpreter and the published probe bus.
        self._interp = EffectInterpreter(self)
        self._step = self._interp.step
        self.probes = ProbeBus(KernelProbe(), [c.stats for c in self.cores])
        self.stats = self.probes.total
        self._next_tid = 0
        self._next_mid = 0
        self.aborted = False
        self.abort_reason: str | None = None
        self._fulfil_core: _KCore | None = None
        self._root_future: SimFuture | None = None
        self._live_threads: dict[int, OSThread] = {}
        # Simulated global scheduler lock: the time until which it is held.
        self._lock_free_at = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self.cores)

    @property
    def workers(self) -> list[_KCore]:
        """The bound cores (the backend's per-worker view)."""
        return self.cores

    def add_instrumentation(self, delta_ns: int) -> None:
        """Register (positive) or remove (negative) per-dispatch
        instrumentation cost; called by counter ``start``/``stop``."""
        self.probes.add_instrumentation(delta_ns)

    @property
    def instrument_ns(self) -> int:
        """Per-dispatch instrumentation charge (lives on the probe bus)."""
        return self.probes.instrument_ns

    @property
    def trace(self) -> Callable[[int, str, OSThread, int | None], None] | None:
        """The thread life-cycle trace hook (lives on the probe bus)."""
        return self.probes.trace

    @trace.setter
    def trace(self, hook: Callable[[int, str, OSThread, int | None], None] | None) -> None:
        self.probes.trace = hook

    def set_compute_rewriter(self, rewriter: Callable[[OSThread, Any], Any] | None) -> None:
        """Install (or remove) a what-if work rewriter on the effect loop
        (see :meth:`repro.exec.interp.EffectInterpreter.set_compute_rewriter`)."""
        self._interp.set_compute_rewriter(rewriter)

    def create_mutex(self) -> KMutex:
        m = KMutex(self._next_mid)
        self._next_mid += 1
        return m

    def submit(self, fn: Callable[..., Any], *args: Any) -> SimFuture:
        """Start the main thread running *fn*."""
        main = self._make_thread(fn, args, home_socket=self.cores[0].socket, is_main=True)
        if self._root_future is None:  # later submits (e.g. query tasks) don't displace the root
            self._root_future = main.future
        main.staged_at = self.engine.now
        self.run_queue.append(main)
        self._dispatch()
        return main.future

    def run_to_completion(self, fn: Callable[..., Any], *args: Any) -> Any:
        future = self.submit(fn, *args)
        self.engine.run()
        if self.aborted:
            raise ResourceExhausted(self.abort_reason or "out of memory")
        if not future.is_ready:
            raise DeadlockError(self.describe_stall())
        return future.value()

    def describe_stall(self) -> str:
        stuck = [
            t for t in self._live_threads.values() if t.state is not ThreadState.TERMINATED
        ]
        return format_stall(stuck, now_ns=self.engine.now, noun="thread")

    # -- counter sources --------------------------------------------------

    def queue_length(self) -> int:
        """Instantaneous length of the global run queue."""
        return len(self.run_queue)

    def worker_queue_length(self, index: int) -> int:
        """Cores have no local queues; all staging is global."""
        return 0

    def idle_rate(self, worker_index: int | None = None) -> float:
        """Fraction of wall time not spent busy, in [0, 1]."""
        wall = self.engine.now
        if wall <= 0:
            return 0.0
        if worker_index is None:
            busy = sum(c.stats.busy_ns for c in self.cores)
            return max(0.0, 1.0 - busy / (wall * len(self.cores)))
        return max(0.0, 1.0 - self.cores[worker_index].stats.busy_ns / wall)

    def steals_total(self) -> int:
        """The kernel scheduler does not steal (single global queue)."""
        return 0

    # ------------------------------------------------------------------
    # SchedulerBackend: population hooks (cohort execution)
    # ------------------------------------------------------------------

    def population_work(self, work: Work) -> Work:
        """No backend-wide scaling: kernel threads pay no locality factor."""
        return work

    def population_task_costs(self, cohort: TaskCohort) -> tuple[float, float]:
        """Mean per-member (exec_ns, overhead_ns) beyond the compute.

        Same cost constants the effect handlers charge per event: one
        dispatch per resumption (context switch + instrumentation +
        run-queue hold), thread creation per spawn inside the parent, a
        ready-future read per non-suspending ``get()``, a futex
        block/wake pair per blocking ``get()``, and thread destruction
        at retirement.  Lock *queueing* on the run-queue/create locks —
        which the exact engine serializes event by event — enters only
        as the hold times; ``docs/cohort.md`` quantifies the error.
        """
        p = self.params
        dispatches = 1.0 + cohort.blocking_awaits
        overhead = (
            dispatches * (p.context_switch_ns + self.probes.instrument_ns + p.runqueue_hold_ns)
            + cohort.blocking_awaits * (p.block_ns + p.wake_ns + p.runqueue_hold_ns)
            + p.thread_destroy_ns
        )
        exec_ns = (
            cohort.spawns * (p.thread_create_ns + p.create_hold_ns)
            + cohort.ready_awaits * p.future_get_ready_ns
        )
        return exec_ns, overhead

    def population_begin(self, cohort: TaskCohort) -> int:
        """Commit thread stacks for the cohort's live population.

        Thread-per-task admits eagerly: every live member holds a
        committed stack.  When the cohort's modeled live population
        overruns the memory budget, exactly as many members are
        admitted as fit plus the one that dies — reproducing the exact
        engine's abort point and peak-live accounting.
        """
        live = cohort.peak_live
        stats = self.stats
        commit = self.params.thread_commit_bytes
        budget = self.params.ram_budget_bytes
        if stats.committed_bytes + live * commit > budget:
            admitted = (budget - stats.committed_bytes) // commit + 1
            admitted = max(1, min(live, admitted))
        else:
            admitted = live
        stats.live_tasks += admitted
        if stats.live_tasks > stats.peak_live_tasks:
            stats.peak_live_tasks = stats.live_tasks
        stats.committed_bytes += admitted * commit
        if stats.committed_bytes > budget:
            self._abort(
                f"thread stacks exhausted memory: {stats.live_tasks} live "
                f"threads x {commit} B > "
                f"{budget} B budget"
            )
        return admitted

    def population_end(self, cohort: TaskCohort) -> None:
        """Retire the cohort's live population and book the per-member
        kernel events (dispatches, blocks, wakes) at the boundary."""
        stats = self.stats
        live = cohort.peak_live
        stats.live_tasks -= live
        stats.committed_bytes -= live * self.params.thread_commit_bytes
        n = cohort.tasks
        stats.dispatches += round(n * (1.0 + cohort.blocking_awaits))
        stats.blocks += round(n * cohort.blocking_awaits)
        stats.wakes += round(n * cohort.blocking_awaits)

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------

    def _make_thread(
        self,
        fn: Callable[..., Any],
        args: tuple,
        *,
        home_socket: int,
        parent: OSThread | None = None,
        deferred: bool = False,
        is_main: bool = False,
    ) -> OSThread:
        thread = OSThread(
            self._next_tid,
            fn,
            args,
            home_socket=home_socket,
            created_at=self.engine.now,
            parent_tid=parent.tid if parent else None,
            deferred=deferred,
            is_main=is_main,
        )
        self._next_tid += 1
        self.stats.tasks_created += 1
        self._live_threads[thread.tid] = thread
        self.probes.emit(self.engine.now, "create", thread, None)
        if not deferred:
            self._commit_memory(thread)
        return thread

    def _commit_memory(self, thread: OSThread) -> None:
        thread.committed = True
        stats = self.stats
        stats.live_tasks += 1
        if stats.live_tasks > stats.peak_live_tasks:
            stats.peak_live_tasks = stats.live_tasks
        stats.committed_bytes += self.params.thread_commit_bytes
        if stats.committed_bytes > self.params.ram_budget_bytes:
            self._abort(
                f"thread stacks exhausted memory: {stats.live_tasks} live "
                f"threads x {self.params.thread_commit_bytes} B > "
                f"{self.params.ram_budget_bytes} B budget"
            )

    def _abort(self, reason: str) -> None:
        self.aborted = True
        # Over-budget diagnostics: name the threads holding the memory.
        live = [t for t in self._live_threads.values() if t.committed]
        detail = describe_tasks(live, noun="thread", limit=5)
        self.abort_reason = "\n".join([reason, *detail]) if detail else reason
        if self._root_future is not None and not self._root_future.is_ready:
            self._root_future.set_exception(ResourceExhausted(self.abort_reason))
        self.engine.stop(reason)

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------

    def _lock_delay(self, hold_ns: int) -> int:
        """Serialize on the global scheduler lock for *hold_ns*.

        Returns the total delay (queueing + hold) the caller must wait.
        Contention is emergent: concurrent lock users queue behind each
        other on the shared time line.
        """
        start = max(self.engine.now, self._lock_free_at)
        self._lock_free_at = start + hold_ns
        return self._lock_free_at - self.engine.now

    def _dispatch(self) -> None:
        """Assign runnable threads to free cores (lowest index first)."""
        if self.aborted:
            return
        stats = self.stats
        for core in self.cores:
            if not self.run_queue:
                return
            if core.current is not None:
                continue
            thread = self.run_queue.popleft()
            core.current = thread
            thread.state = ThreadState.RUNNING
            thread.slices += 1
            stats.dispatches += 1
            stats.phases += 1
            if thread.staged_at is not None:
                stats.pending_wait_ns += self.engine.now - thread.staged_at
                stats.pending_waits += 1
                thread.staged_at = None
            cost = (
                self.params.context_switch_ns
                + self.probes.instrument_ns
                + self._lock_delay(self.params.runqueue_hold_ns)
            )
            self._charge_overhead(core, thread, cost)
            self.probes.emit(self.engine.now, "activate", thread, core.index)
            self.engine.call_later(cost, self._run, core, thread)

    def _free_core(self, core: _KCore) -> None:
        core.current = None
        self._dispatch()

    def _run(self, core: _KCore, thread: OSThread) -> None:
        if self.aborted:
            return
        if thread.preempted_work is not None:
            work, thread.preempted_work = thread.preempted_work, None
            self._compute_work(core, thread, work)
            return
        self._step(core, thread, thread.pending_send)

    # -- blocking helpers --------------------------------------------------

    def _block(self, thread: OSThread) -> None:
        """Mark *thread* blocked (futex wait on a future or mutex)."""
        thread.state = ThreadState.BLOCKED
        self.stats.suspended_tasks += 1

    def _unblock(self, thread: OSThread) -> None:
        if thread.state is ThreadState.BLOCKED:
            self.stats.suspended_tasks -= 1

    # -- accounting: charge *ns* to a thread's exec or overhead time -------

    def _charge_exec(self, core: _KCore, thread: OSThread, ns: int) -> None:
        thread.exec_ns += ns
        self.stats.exec_ns += ns
        core.stats.exec_ns += ns
        core.stats.busy_ns += ns

    def _charge_overhead(self, core: _KCore, thread: OSThread, ns: int) -> None:
        thread.overhead_ns += ns
        self.stats.overhead_ns += ns
        core.stats.overhead_ns += ns
        core.stats.busy_ns += ns

    # ------------------------------------------------------------------
    # SchedulerBackend: effect handlers (the interpreter dispatches here)
    # ------------------------------------------------------------------

    def begin_step(self, core: _KCore, thread: OSThread) -> bool:
        """Interpreter gate: nothing runs once the process aborted."""
        return not self.aborted

    # -- compute with preemption ------------------------------------------

    def do_compute(self, core: _KCore, thread: OSThread, effect: Compute) -> None:
        self._compute_work(core, thread, effect.work)

    def _compute_work(self, core: _KCore, thread: OSThread, work: Work) -> None:
        quantum = self.params.time_slice_ns
        if work.cpu_ns > quantum and self.run_queue:
            part, rest = work.split_at(quantum)
        else:
            part, rest = work, None
        cross = (
            self.params.cross_socket_data_fraction
            if thread.home_socket != core.socket and part.membytes > 0
            else 0.0
        )
        ticket = self.machine.segment_begin(core.core_index, part, cross_socket_fraction=cross)
        duration = ticket.duration_ns
        self._charge_exec(core, thread, duration)
        self.engine.call_later(duration, self._finish_compute, core, thread, ticket, part, rest)

    def _finish_compute(
        self, core: _KCore, thread: OSThread, ticket: Any, part: Work, rest: Work | None
    ) -> None:
        self.machine.segment_end(ticket, part)
        if rest is not None:
            self.stats.preemptions += 1
            thread.preempted_work = rest
            thread.state = ThreadState.RUNNABLE
            thread.staged_at = self.engine.now
            self.run_queue.append(thread)
            self._free_core(core)
        else:
            self._step(core, thread, None)

    # -- spawn ---------------------------------------------------------------

    def do_spawn(self, core: _KCore, thread: OSThread, effect: Spawn) -> None:
        policy = _POLICY_BY_NAME.get(effect.policy)
        if policy is None:
            policy = LaunchPolicy.parse(effect.policy)
        if policy is LaunchPolicy.ASYNC or policy is LaunchPolicy.FORK:
            # fork does not exist in std; Inncabs maps it to async.
            cost = self.params.thread_create_ns + self._lock_delay(self.params.create_hold_ns)
            child = self._make_thread(
                effect.fn, effect.args, home_socket=core.socket, parent=thread
            )
            if self.aborted:
                return
            self._charge_exec(core, thread, cost)
            child.staged_at = self.engine.now
            self.run_queue.append(child)
            # Pass the future, not the child: the child may run to
            # completion (and drop its future) before this event fires.
            self.engine.call_later(cost, self._created, core, thread, child.future)
            return
        if policy is LaunchPolicy.DEFERRED:
            child = self._make_thread(
                effect.fn, effect.args, home_socket=core.socket, parent=thread, deferred=True
            )
            cost = self.params.future_get_ready_ns
            self._charge_exec(core, thread, cost)
            self.engine.call_later(cost, self._step, core, thread, child.future)
            return
        # SYNC: run inline on this thread, borrowing the core.
        child = self._make_thread(
            effect.fn, effect.args, home_socket=core.socket, parent=thread, deferred=True
        )
        self._run_inline(core, thread, child, send_future=True)

    def _created(self, core: _KCore, thread: OSThread, future: SimFuture) -> None:
        """An async spawn finished creating its thread: dispatch it and
        resume the parent with the child's future."""
        self._dispatch()
        self._step(core, thread, future)

    def _run_inline(
        self, core: _KCore, thread: OSThread, child: OSThread, *, send_future: bool
    ) -> None:
        """Execute a deferred child synchronously on the calling thread."""
        self._block(thread)
        self.probes.emit(self.engine.now, "suspend", thread, core.index)

        def done(fut: SimFuture) -> None:
            self._unblock(thread)
            thread.state = ThreadState.RUNNING
            core.current = thread
            self.probes.emit(self.engine.now, "resume", thread, core.index)
            value = fut if send_future else resume_payload(fut)
            self._step(core, thread, value)

        child.future.on_ready(done)
        child.state = ThreadState.RUNNING
        core.current = child
        self.probes.emit(self.engine.now, "activate", child, core.index)
        self._step(core, child, None)

    # -- waiting ---------------------------------------------------------------

    def do_await(self, core: _KCore, thread: OSThread, effect: Await) -> None:
        future = effect.future
        if future.is_ready:
            cost = self.params.future_get_ready_ns
            self._charge_exec(core, thread, cost)
            self.probes.emit_dependencies(self.engine.now, thread, (future,))
            payload = resume_payload(future)
            self.engine.call_later(cost, self._step, core, thread, payload)
            return
        producer = future.producer_task
        if isinstance(producer, OSThread) and producer.state is ThreadState.DEFERRED:
            self._run_inline(core, thread, producer, send_future=False)
            return
        cost = self.params.block_ns
        self._charge_overhead(core, thread, cost)
        self.stats.blocks += 1
        self._block(thread)
        self.probes.emit(self.engine.now, "suspend", thread, core.index)

        def ready(fut: SimFuture) -> None:
            self.probes.emit_dependencies(self.engine.now, thread, (fut,))
            self._wake(thread, resume_payload(fut))

        future.on_ready(ready)
        self.engine.call_later(cost, self._free_core, core)

    def do_await_all(self, core: _KCore, thread: OSThread, effect: AwaitAll) -> None:
        futures = effect.futures
        for fut in futures:
            producer = fut.producer_task
            if isinstance(producer, OSThread) and producer.state is ThreadState.DEFERRED:
                # Run the deferred child now, then re-issue the wait.
                def resume_wait(_f: SimFuture, t=thread, fs=futures) -> None:
                    c = self._core_of(t)
                    self._unblock(t)
                    t.state = ThreadState.RUNNING
                    c.current = t
                    self.probes.emit(self.engine.now, "resume", t, c.index)
                    self.do_await_all(c, t, AwaitAll(futures=fs))

                self._block(thread)
                self.probes.emit(self.engine.now, "suspend", thread, core.index)
                producer.future.on_ready(resume_wait)
                producer.state = ThreadState.RUNNING
                core.current = producer
                self.probes.emit(self.engine.now, "activate", producer, core.index)
                self._step(core, producer, None)
                return
        pending = [f for f in futures if not f.is_ready]
        if not pending:
            cost = self.params.future_get_ready_ns
            self._charge_exec(core, thread, cost)
            self.probes.emit_dependencies(self.engine.now, thread, futures)
            payload = resume_payload_all(futures)
            self.engine.call_later(cost, self._step, core, thread, payload)
            return
        cost = self.params.block_ns
        self._charge_overhead(core, thread, cost)
        self.stats.blocks += 1
        self._block(thread)
        self.probes.emit(self.engine.now, "suspend", thread, core.index)
        remaining = {"count": len(pending)}

        def one_ready(_fut: SimFuture) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self.probes.emit_dependencies(self.engine.now, thread, futures)
                self._wake(thread, resume_payload_all(futures))

        for fut in pending:
            fut.on_ready(one_ready)
        self.engine.call_later(cost, self._free_core, core)

    def _core_of(self, thread: OSThread) -> _KCore:
        for core in self.cores:
            if core.current is thread:
                return core
        # Thread resumed via the run queue; report the fulfilling core.
        return self._fulfil_core or self.cores[0]

    def _wake(self, thread: OSThread, send_value: Any) -> None:
        """Future set / mutex granted: move *thread* to the run queue."""
        if self.aborted:
            return
        self.stats.wakes += 1
        cost = self.params.wake_ns + self._lock_delay(self.params.runqueue_hold_ns)
        self.stats.overhead_ns += cost
        thread.overhead_ns += cost
        thread.pending_send = send_value
        self._unblock(thread)
        thread.state = ThreadState.RUNNABLE
        thread.staged_at = self.engine.now
        self.run_queue.append(thread)
        self.probes.emit(self.engine.now, "resume", thread, None)
        self.engine.call_later(cost, self._dispatch)

    # -- mutexes -----------------------------------------------------------------

    def do_lock(self, core: _KCore, thread: OSThread, effect: Lock) -> None:
        mutex = effect.mutex
        if mutex.try_acquire(thread):
            cost = self.params.mutex_ns
            self._charge_exec(core, thread, cost)
            self.engine.call_later(cost, self._step, core, thread, None)
            return
        cost = self.params.block_ns
        self._charge_overhead(core, thread, cost)
        self.stats.blocks += 1
        self._block(thread)
        self.probes.emit(self.engine.now, "suspend", thread, core.index)
        mutex.enqueue_waiter(thread)
        self.engine.call_later(cost, self._free_core, core)

    def do_unlock(self, core: _KCore, thread: OSThread, effect: Unlock) -> None:
        nxt = effect.mutex.release(thread)
        cost = self.params.mutex_ns
        self._charge_exec(core, thread, cost)
        if nxt is not None:
            self._wake(nxt, None)
        self.engine.call_later(cost, self._step, core, thread, None)

    def do_yield(self, core: _KCore, thread: OSThread, effect: YieldNow) -> None:
        cost = self.params.context_switch_ns
        self._charge_overhead(core, thread, cost)
        thread.state = ThreadState.RUNNABLE
        thread.pending_send = None
        thread.staged_at = self.engine.now
        self.run_queue.append(thread)
        self.engine.call_later(cost, self._free_core, core)

    # -- completion -----------------------------------------------------------------

    def complete(self, core: _KCore, thread: OSThread, value: Any) -> None:
        self._retire(core, thread, SimFuture.set_value, value)

    def fail(self, core: _KCore, thread: OSThread, exc: BaseException) -> None:
        self._retire(core, thread, SimFuture.set_exception, exc)

    def _retire(
        self,
        core: _KCore,
        thread: OSThread,
        fulfil: Callable[[SimFuture, Any], None],
        outcome: Any,
    ) -> None:
        thread.state = ThreadState.TERMINATED
        stats = self.stats
        stats.tasks_executed += 1
        core.stats.tasks_executed += 1
        del self._live_threads[thread.tid]
        # Deferred/sync children never committed memory; real threads did.
        if thread.committed:
            stats.live_tasks -= 1
            stats.committed_bytes -= self.params.thread_commit_bytes
        cost = self.params.thread_destroy_ns if thread.committed else 0
        self._charge_overhead(core, thread, cost)
        self.probes.emit(self.engine.now, "terminate", thread, core.index)
        # Drop the thread -> future edge: the future keeps its producer
        # (``depend`` edges need its tid), and a retired thread is then
        # freed by refcounting once its future is, GC paused or not.
        future = thread.future
        thread.future = None
        prev = self._fulfil_core
        self._fulfil_core = core
        try:
            fulfil(future, outcome)
        finally:
            self._fulfil_core = prev
        # An inline-resume callback may have reoccupied the core (a
        # deferred child waking its waiter); only free it if this thread
        # still holds it.
        if core.current is thread:
            self.engine.call_later(cost, self._free_core, core)
