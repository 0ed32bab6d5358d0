"""The concurrent serving scheduler: a shared task queue over N queries.

The paper's execution model (§3.2.2) is a global task queue served by
worker threads.  Single-query execution drains one query's pipeline tasks;
this module generalises that to **N concurrent queries on one device**:
each admitted query exposes its next chunk-task via
:meth:`~repro.core.executor.QueryRun.step`, and the scheduler interleaves
tasks from all admitted queries across ``streams`` virtual worker streams.

Two timelines
-------------

The simulation has one device clock, so tasks *execute* serially on it —
each step's simulated duration is measured there (and accumulated into the
owning job's ``service_s``).  Concurrency lives on the **virtual serving
timeline**: measured durations are placed onto worker streams
discrete-event style (a task starts at ``max(stream free, job ready)``),
which yields arrivals, queue waits, completions, latencies, and a makespan
of roughly ``total work / streams``.  Every quantity the report cites —
throughput, p50/p95/p99, queue wait vs service split — lives on this
virtual timeline; per-query *profiles* (operator breakdowns) still come
from the device clock and are byte-identical to solo runs at concurrency 1.

Determinism: arrivals are seeded, the event loop breaks ties by stream
index and submission sequence, and policies are pure functions of job
state — the same seed always produces the identical schedule, and
therefore identical profiles and reports.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from typing import Callable, Mapping

from ..columnar import Table
from ..core.deadline import Deadline, DeadlineExceededError, DidNotFinishError
from ..core.fallback import (
    FALLBACK_EXCEPTIONS,
    OOC_RETRY_BATCH_ROWS,
    gpu_rungs,
    retry_settings,
)
from ..core.sirius import SiriusEngine
from ..obs import NULL_TRACER
from ..plan import Plan
from .admission import AdmissionController
from .job import JobState, QueryJob
from .policies import SchedulingPolicy, make_policy
from .report import ServingReport

__all__ = ["ServingScheduler"]

_INF = float("inf")

# Default streaming batch size under serving: small enough that queries
# interleave at fine granularity, large enough to keep kernels efficient.
SERVING_BATCH_ROWS = OOC_RETRY_BATCH_ROWS


class ServingScheduler:
    """Admits, interleaves, and completes concurrent queries on one engine."""

    def __init__(
        self,
        engine: SiriusEngine,
        policy: "str | SchedulingPolicy" = "fifo",
        streams: int = 4,
        seed: int = 0,
        admission: AdmissionController | None = None,
        batch_rows: int | None = SERVING_BATCH_ROWS,
        tracer=None,
        tracer_factory: Callable[[], object] | None = None,
    ):
        """
        Args:
            engine: The (exclusively borrowed) engine to serve on.
            policy: Task-dispatch policy: ``fifo`` / ``fair`` / ``sjf`` or
                a :class:`~repro.sched.policies.SchedulingPolicy`.
            streams: Number of virtual worker streams (the paper's worker
                threads); the concurrency degree.
            seed: Recorded in the report (workload drivers derive their
                arrival randomness from it).
            admission: Admission controller; a default one over the
                engine's processing pool if omitted.
            batch_rows: Streaming batch size for served queries (None =
                engine default; the serving default is small for fine
                interleaving).
            tracer: Scheduler-level observability sink (serving spans and
                admission events).
            tracer_factory: Zero-arg callable making one tracer per query;
                interleaved queries must not share a span stack.
        """
        if streams < 1:
            raise ValueError("streams must be at least 1")
        self.engine = engine
        self.policy = make_policy(policy)
        self.streams = int(streams)
        self.seed = seed
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(
                engine.device.processing_pool, out_of_core=engine.out_of_core
            )
        )
        self.batch_rows = batch_rows
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer_factory = tracer_factory
        # Called with each job reaching a terminal state; closed-loop
        # drivers submit the client's next request from here.
        self.on_complete: Callable[[QueryJob], None] | None = None

        self.jobs: list[QueryJob] = []
        self._seq = 0
        self._arrivals: list[tuple[float, int, QueryJob]] = []  # heap
        self.queue: deque[QueryJob] = deque()  # bounded admission queue
        self.running: list[QueryJob] = []  # admitted, in admission order
        # Jobs whose last task has executed but whose completion instant
        # lies ahead of the loop's current virtual time: completion (and
        # the reservation release that comes with it) is a timeline event,
        # processed in order — a queued job must not be admitted at a
        # virtual time before the release that makes room for it.
        self._completions: list[tuple[float, int, QueryJob]] = []
        self.active: set[str] = set()  # owner keys of admitted jobs
        self.step_log: list[tuple[int, int, float, float]] = []
        self.expired_in_queue = 0
        self.degraded = 0
        self._ran = False
        # Incremental-run state (see begin_run/step_event/end_run): the
        # loop's virtual clock and worker-stream frontiers live on the
        # instance so an outer loop (the fleet scheduler) can interleave
        # several ServingSchedulers event by event.
        self._vt = 0.0
        self._stream_free: list[float] = []
        self._began = False

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        plan: Plan,
        catalog: Mapping[str, Table],
        label: str | None = None,
        arrival_s: float = 0.0,
        deadline_s: float | None = None,
        meta: dict | None = None,
        estimate=None,
    ) -> QueryJob:
        """Register a query arriving at ``arrival_s`` on the serving
        timeline.  Legal before :meth:`run` and from ``on_complete``
        callbacks during it (closed-loop workloads).

        ``estimate`` lets a front-end that already priced the plan (the
        fleet router consults its plan cache) pass the
        :class:`~repro.sched.estimator.PlanEstimate` through instead of
        re-deriving it; ``None`` asks the engine
        (:meth:`~repro.core.SiriusEngine.estimate`).
        """
        plan.validate()
        job = QueryJob(
            seq=self._seq,
            label=label if label is not None else f"q{self._seq}",
            plan=plan,
            catalog=catalog,
            arrival_s=float(arrival_s),
            deadline_s=deadline_s,
            estimate=estimate if estimate is not None else self.engine.estimate(plan, catalog),
            meta=meta if meta is not None else {},
        )
        self._seq += 1
        self.jobs.append(job)
        heapq.heappush(self._arrivals, (job.arrival_s, job.seq, job))
        return job

    # -- the event loop ------------------------------------------------------

    def run(self) -> ServingReport:
        """Serve every submitted job to a terminal state; returns the
        :class:`~repro.sched.report.ServingReport`."""
        self.begin_run()
        try:
            while self.pending:
                self.step_event()
        finally:
            self.end_run()
        return self.build_report()

    # The loop above is also exposed piecewise so an outer discrete-event
    # loop — the fleet scheduler — can interleave several replicas'
    # schedulers on one merged timeline.  ``run()`` is exactly
    # begin_run + step_event-until-drained + end_run, so the piecewise
    # form is byte-identical to the monolithic one.

    def begin_run(self) -> None:
        """Enter serving mode (pool reset, contention-aware eviction on)."""
        if self._ran:
            raise RuntimeError("a ServingScheduler instance serves exactly one run")
        self._ran = True
        self.engine.device.reset_processing_pool()
        self.engine.buffer_manager.active_queries = self.active
        self._stream_free = [0.0] * self.streams
        self._vt = 0.0
        self._began = True

    @property
    def pending(self) -> bool:
        """Whether any submitted job is not yet terminal."""
        return bool(self._arrivals or self.queue or self.running or self._completions)

    def next_event_time(self) -> float:
        """Virtual time of the next event :meth:`step_event` would
        process (``inf`` when nothing is pending).

        An idle scheduler with queued work reports "now": its next event
        is the forced admission that un-wedges the queue.
        """
        if not self.pending:
            return _INF
        if not self.running and not self._completions and self.queue:
            return self._vt
        t_arr = self._arrivals[0][0] if self._arrivals else _INF
        t_done = self._completions[0][0] if self._completions else _INF
        if self.running:
            ready_t = min(j.ready_at for j in self.running)
            t_exec = max(min(self._stream_free), ready_t)
        else:
            t_exec = _INF
        return max(self._vt, min(t_arr, t_done, t_exec))

    def step_event(self) -> None:
        """Process exactly one serving-timeline event (one iteration of
        the event loop): a completion, an arrival batch, a task
        execution, or a forced admission on an idle device."""
        vt = self._vt
        stream_free = self._stream_free
        if not self.running and not self._completions and self.queue:
            # Device idle with queued work and no release in
            # flight: admit (forcing the head through if its
            # estimate exceeds headroom — nothing running means no
            # reservation will ever be released).
            self._try_admission(vt, force=True)
            return
        t_arr = self._arrivals[0][0] if self._arrivals else _INF
        t_done = self._completions[0][0] if self._completions else _INF
        if self.running:
            ready_t = min(j.ready_at for j in self.running)
            t_exec = max(min(stream_free), ready_t)
        else:
            t_exec = _INF
        if t_done <= t_arr and t_done <= t_exec:
            self._vt = vt = max(vt, t_done)
            _, _, job = heapq.heappop(self._completions)
            self._finish(job, vt, error=job.error)
            self._expire_queue(vt)
            self._try_admission(vt)
            return
        if t_arr <= t_exec:
            self._vt = vt = max(vt, t_arr)
            self._drain_arrivals(vt)
            self._expire_queue(vt)
            self._try_admission(vt)
            return
        # Execute one task: earliest-free stream, policy's job.
        self._vt = vt = max(vt, t_exec)
        self._expire_queue(vt)
        self._try_admission(vt)
        w = min(range(self.streams), key=stream_free.__getitem__)
        candidates = [j for j in self.running if j.ready_at <= vt]
        job = self.policy.select(candidates, vt)
        self._run_step(job, w, vt, stream_free)

    def end_run(self) -> None:
        """Leave serving mode, restoring the engine's buffer-manager and
        device state.  Idempotent."""
        if not self._began:
            return
        self._began = False
        self.engine.buffer_manager.active_queries = None
        self.engine.device.query_owner = None
        sanitizer = getattr(self.engine, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.check_end_run(
                self.engine, f"scheduler.end_run:{self.policy.name}"
            )

    def abort_pending(self, vt: float, error: BaseException) -> list[QueryJob]:
        """Fail every non-terminal job at ``vt`` with ``error`` (replica
        crash: the fleet retries the victims on a survivor).  Returns the
        aborted jobs in submission order."""
        victims: list[QueryJob] = []
        while self._completions:
            _, _, job = heapq.heappop(self._completions)
            victims.append(job)
        victims.extend(self.running)
        self.running = []
        victims.extend(self.queue)
        self.queue.clear()
        while self._arrivals:
            _, _, job = heapq.heappop(self._arrivals)
            victims.append(job)
        victims.sort(key=lambda j: j.seq)
        for job in victims:
            self._finish(job, max(vt, job.arrival_s), error=error)
        return victims

    # -- arrival / admission -------------------------------------------------

    def _drain_arrivals(self, vt: float) -> None:
        while self._arrivals and self._arrivals[0][0] <= vt:
            _, _, job = heapq.heappop(self._arrivals)
            if len(self.queue) >= self.admission.max_queue_depth:
                job.state = JobState.REJECTED
                job.completion_s = job.arrival_s
                self.tracer.event(
                    "sched.rejected", sim_time=vt, job=job.label, seq=job.seq
                )
                self.tracer.count("sched.rejected")
                if self.on_complete is not None:
                    self.on_complete(job)
                continue
            job.state = JobState.QUEUED
            self.queue.append(job)

    def _expire_queue(self, vt: float) -> None:
        """Fail queued jobs whose whole deadline elapsed while waiting."""
        for job in [j for j in self.queue if j.deadline_s is not None]:
            if vt - job.arrival_s > job.deadline_s:
                self.queue.remove(job)
                job.queue_wait_s = job.deadline_s
                self.expired_in_queue += 1
                error = DeadlineExceededError(
                    f"query spent its whole {job.deadline_s:.6f}s deadline "
                    f"in the admission queue",
                    budget_s=job.deadline_s,
                    elapsed_s=job.deadline_s,
                )
                self._finish(job, job.arrival_s + job.deadline_s, error=error)

    def _try_admission(self, vt: float, force: bool = False) -> None:
        while self.queue:
            head = self.queue[0]
            if self.admission.can_admit(head):
                self.queue.popleft()
                self._admit(head, vt, forced=False)
            elif force and not self.running:
                self.queue.popleft()
                self._admit(head, vt, forced=True)
            else:
                break

    def _admit(self, job: QueryJob, vt: float, forced: bool) -> None:
        job.admitted_s = vt
        job.queue_wait_s = vt - job.arrival_s
        job.forced_admission = forced
        self.admission.admit(job, forced=forced)
        job.tracer = (
            self.tracer_factory() if self.tracer_factory is not None else NULL_TRACER
        )
        if job.deadline_s is not None:
            # Anchor the resource envelope on the device clock and charge
            # the admission-queue wait against it (satellite fix: a query
            # must not sit out its budget in the queue and then run with a
            # fresh deadline).
            job.deadline = Deadline(job.deadline_s, self.engine.device.clock)
            job.deadline.charge_wait(job.queue_wait_s)
            try:
                job.deadline.check_at(self.engine.device.clock.now)
            except DeadlineExceededError as exc:
                self._finish(job, vt, error=exc)
                return
        job.qrun = self.engine.start_query(
            job.plan,
            job.catalog,
            deadline=job.deadline,
            tracer=job.tracer,
            batch_rows=self.batch_rows,
        )
        job.state = JobState.RUNNING
        job.ready_at = vt
        self.running.append(job)
        self.active.add(job.owner_key)
        self.tracer.event(
            "sched.admitted",
            sim_time=vt,
            job=job.label,
            seq=job.seq,
            queue_wait_s=job.queue_wait_s,
            forced=forced,
        )
        self.tracer.count("sched.admitted")

    # -- execution -----------------------------------------------------------

    def _run_step(
        self, job: QueryJob, w: int, vt: float, stream_free: list[float]
    ) -> None:
        device = self.engine.device
        clock = device.clock
        saved_tracer = device.tracer
        device.query_owner = job.owner_key
        device.tracer = job.tracer
        mark = clock.now
        error: BaseException | None = None
        degrade: BaseException | None = None
        try:
            alive = job.qrun.step()
            if not alive and job.qrun.result is not None:
                # Device->host copy of the result is part of service time.
                job.table = job.qrun.result.to_host()
                job.profile = job.qrun.profile
        except DidNotFinishError as exc:  # deadline / memory ceiling: no retry
            alive = False
            error = exc
        except FALLBACK_EXCEPTIONS as exc:
            alive = False
            degrade = exc
        finally:
            duration = clock.now - mark
            device.query_owner = None
            device.tracer = saved_tracer
        end = vt + duration
        stream_free[w] = end
        job.ready_at = end
        job.service_s += duration
        job.steps += 1
        self.step_log.append((job.seq, w, vt, end))
        if degrade is not None:
            self._degrade(job, end, degrade)
        elif error is not None or not alive:
            # The job is done executing, but its completion (and the
            # reservation release) belongs at virtual time ``end``; park
            # it until the loop's clock gets there.
            job.error = error
            self.running.remove(job)
            heapq.heappush(self._completions, (end, job.seq, job))

    def _degrade(self, job: QueryJob, end: float, exc: BaseException) -> None:
        """Walk the job one degradation tier down, or fail it.

        Serving-mode walk of the engine's GPU rungs
        (:func:`~repro.core.fallback.gpu_rungs`), under the *same*
        deadline.  Serving has no CPU tier, so every recoverable failure
        (device OOM, unsupported feature, persistent kernel fault)
        triggers the next rung; past the last one the failure is final.
        The wasted attempts' time stays charged, exactly like the
        single-query path.
        """
        self.engine.device.processing_pool.release_owner(job.owner_key)
        rungs = gpu_rungs(self.engine.out_of_core)
        step = 0 if job.degraded_tier is None else rungs.index(job.degraded_tier) + 1
        if step == len(rungs):
            self._finish(job, end, error=exc)
            return
        job.degraded_tier = rungs[step]
        self.degraded += 1
        job.qrun = self.engine.start_query(
            job.plan,
            job.catalog,
            deadline=job.deadline,
            tracer=job.tracer,
            **retry_settings(job.degraded_tier, self.batch_rows),
        )
        self.tracer.event(
            "sched.degraded",
            sim_time=end,
            job=job.label,
            seq=job.seq,
            tier=job.degraded_tier,
            cause=type(exc).__name__,
        )
        self.tracer.count("sched.degraded")

    def _finish(
        self, job: QueryJob, end: float, error: BaseException | None = None
    ) -> None:
        job.completion_s = end
        job.error = error
        job.state = JobState.FAILED if error is not None else JobState.COMPLETED
        if job in self.running:
            self.running.remove(job)
        self.active.discard(job.owner_key)
        self.admission.release(job)
        self.engine.device.processing_pool.release_owner(job.owner_key)
        if job.qrun is not None and not job.qrun.done:
            job.qrun.abort()
        if self.tracer.enabled:
            if job.admitted_s is not None and job.admitted_s > job.arrival_s:
                self.tracer.record_span(
                    f"queue-wait:{job.label}",
                    "serving-queue",
                    start=job.arrival_s,
                    end=job.admitted_s,
                    seq=job.seq,
                )
            if job.admitted_s is not None:
                self.tracer.record_span(
                    f"service:{job.label}",
                    "serving-service",
                    start=job.admitted_s,
                    end=end,
                    seq=job.seq,
                    busy_s=job.service_s,
                    state=job.state,
                )
        self.tracer.event(
            "sched.finished",
            sim_time=end,
            job=job.label,
            seq=job.seq,
            state=job.state,
        )
        if self.on_complete is not None:
            self.on_complete(job)

    # -- reporting -----------------------------------------------------------

    def build_report(self) -> ServingReport:
        digest = hashlib.sha256(repr(self.step_log).encode()).hexdigest()[:16]
        counters = {
            "submitted": len(self.jobs),
            "completed": sum(1 for j in self.jobs if j.state == JobState.COMPLETED),
            "failed": sum(1 for j in self.jobs if j.state == JobState.FAILED),
            "rejected": sum(1 for j in self.jobs if j.state == JobState.REJECTED),
            "expired_in_queue": self.expired_in_queue,
            "degraded": self.degraded,
            "forced_admissions": self.admission.forced,
            "steps": len(self.step_log),
            "contention_avoided_evictions": (
                self.engine.buffer_manager.contention_avoided_evictions
            ),
        }
        return ServingReport.build(
            policy=self.policy.name,
            streams=self.streams,
            seed=self.seed,
            jobs=self.jobs,
            counters=counters,
            schedule_digest=digest,
        )
