"""Job manager: bounded queue, dedup by identity, typed lifecycle.

The service's unit of admission is a :class:`Job` wrapping one
:class:`~repro.service.requests.JobRequest`.  The manager guarantees:

* **Deterministic identity + dedup.**  Job IDs come from
  :func:`~repro.service.requests.request_job_id` (sha256 over the
  request's cache keys), so a duplicate submission -- byte-different
  payload, identical work -- attaches to the existing job instead of
  queueing a second one.  Dedup composes with the sweep engine's
  single-flight/containment machinery: even two *distinct* jobs whose
  grids overlap never execute a shared config twice.
* **Typed lifecycle.**  ``QUEUED -> RUNNING -> DONE | FAILED``,
  ``QUEUED -> CANCELLED`` and -- with a result store attached --
  ``QUEUED -> DONE`` (the artifact was already on disk, so the job never
  occupies a worker); every transition goes through one guarded method
  under one lock, and an illegal transition is a programming error
  (:class:`IllegalTransition`), not a silent state.  Cancelling a QUEUED
  job is immediate and idempotent -- unless duplicates attached to it, in
  which case cancel *detaches* one submission and leaves the original
  submitter's job queued.  A job already RUNNING is past the point of no
  return (execution is memoised and crash-safe, so letting it finish is
  strictly cheaper than tearing it down) and ``cancel`` reports
  ``False``.
* **Restart warmth.**  With a :class:`repro.store.ResultStore` attached
  (the engine's by default), every DONE artifact is published under
  ``("artifact", job_id)`` and every submission checks the store first:
  a duplicate of work any *previous* process finished transitions
  straight to DONE with byte-identical cached bytes, without touching
  the queue or a worker.
* **Bounded admission.**  At most ``queue_size`` jobs wait; beyond that
  submission raises :class:`QueueFull` (HTTP 429), never unbounded
  memory.
* **Crash-safe execution.**  Each job may attach a per-job
  :class:`~repro.faults.SweepJournal`, scoped to exactly its own cache
  keys, so an interrupted service resumes a half-done job's completed
  families on resubmission.

Concurrency discipline (lint rules R009-R010): the single manager lock
guards *state transitions only*.  Queue hand-off uses a stdlib
``queue.Queue`` (never waited on under the lock), job execution and
every engine call happen outside the lock, and completion events are
set after the transition commits.
"""

from __future__ import annotations

import enum
import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.core.sweep import SweepEngine, default_engine
from repro.faults import SweepJournal, write_text_atomic

from .requests import (
    JobRequest,
    artifact_store_key,
    estimate,
    execute_request,
    request_configs,
    request_job_id,
)

__all__ = [
    "JobState",
    "Job",
    "JobManager",
    "QueueFull",
    "IllegalTransition",
    "TRANSITIONS",
]


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: The complete legal transition relation; anything else is a bug.
#: ``QUEUED -> DONE`` is the store-served short-circuit: the artifact
#: was already persisted by a previous process, so the job completes at
#: admission without ever running.
TRANSITIONS: frozenset[tuple[JobState, JobState]] = frozenset(
    {
        (JobState.QUEUED, JobState.RUNNING),
        (JobState.QUEUED, JobState.CANCELLED),
        (JobState.QUEUED, JobState.DONE),
        (JobState.RUNNING, JobState.DONE),
        (JobState.RUNNING, JobState.FAILED),
    }
)


class QueueFull(RuntimeError):
    """The bounded job queue rejected a submission (HTTP 429)."""


class IllegalTransition(RuntimeError):
    """An attempted lifecycle transition outside :data:`TRANSITIONS`."""


@dataclass
class Job:
    """One admitted request plus its mutable lifecycle state.

    Mutable fields are guarded by the owning manager's lock; ``done``
    fires (after the transition commits) on DONE, FAILED and CANCELLED
    alike, so waiters never need to poll a terminal state.
    """

    job_id: str
    request: JobRequest
    state: JobState = JobState.QUEUED
    error: str | None = None
    artifact: str | None = None
    #: How many submissions attached to this job (1 = no duplicates).
    submissions: int = 1
    #: Monotonic admission number (no wall clock anywhere in the service).
    seq: int = 0
    done: threading.Event = field(default_factory=threading.Event)

    def terminal(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class JobManager:
    """Admit, deduplicate, execute and account for prediction jobs.

    Parameters
    ----------
    engine:
        The :class:`SweepEngine` jobs execute through (the process-wide
        default engine when omitted, so service jobs share cache warmth
        with the CLI regenerators).
    workers:
        Consumer threads.  ``0`` starts none -- tests and the lifecycle
        property drill pump jobs manually via :meth:`run_next`.  Two or
        more let a small request overlap an in-flight large one, which
        is what makes subgrid containment observable over HTTP.
    queue_size:
        Bound on jobs waiting in QUEUED (RUNNING and terminal jobs do
        not count against it).
    artifact_dir:
        When set, every DONE job's artifact is also written to
        ``<artifact_dir>/<job_id>.csv`` via atomic replace.
    journal_dir:
        When set, each sweep-backed job attaches
        ``<journal_dir>/<job_id>.journal`` scoped to its own cache keys
        for the duration of its run: completed families persist as they
        land, and a resubmitted job preloads them.
    store:
        The :class:`repro.store.ResultStore` rendered artifacts are
        published to (and served DONE-from) -- the executing engine's
        store when omitted, so one ``--store`` flag warms both layers.
    """

    def __init__(
        self,
        engine: SweepEngine | None = None,
        workers: int = 2,
        queue_size: int = 64,
        artifact_dir: str | Path | None = None,
        journal_dir: str | Path | None = None,
        store=None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.engine = engine if engine is not None else default_engine()
        self.store = store if store is not None else self.engine.store
        self.artifact_dir = Path(artifact_dir) if artifact_dir is not None else None
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._seq = 0
        self._queue: queue.Queue[str | None] = queue.Queue(maxsize=queue_size)
        self._workers = [
            threading.Thread(target=self._worker, name=f"repro-job-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Lifecycle (every mutation funnels through _transition, under _lock)
    # ------------------------------------------------------------------

    def _transition(self, job: Job, new: JobState) -> None:
        """Move ``job`` to ``new``; must be called with the lock held."""
        if (job.state, new) not in TRANSITIONS:
            raise IllegalTransition(
                f"{job.job_id}: illegal transition {job.state.name} -> {new.name}"
            )
        job.state = new

    # ------------------------------------------------------------------
    # Submission / dedup
    # ------------------------------------------------------------------

    def _attach_locked(self, job_id: str) -> Job | None:
        """Dedup-attach to a live (or DONE) job; must hold the lock."""
        existing = self._jobs.get(job_id)
        if existing is not None and existing.state not in (
            JobState.FAILED,
            JobState.CANCELLED,
        ):
            existing.submissions += 1
            obs.incr("service.dedup_attached")
            return existing
        return None

    def _store_artifact(self, job_id: str) -> str | None:
        """A previously-published artifact for this identity (or None)."""
        if self.store is None:
            return None
        value = self.store.get(artifact_store_key(job_id))
        return value if isinstance(value, str) else None

    def submit(self, request: JobRequest) -> tuple[Job, bool]:
        """Admit a request; returns ``(job, deduplicated)``.

        A request whose job already exists in a non-terminal state (or
        finished successfully) attaches to it.  FAILED and CANCELLED
        jobs do not block resubmission: the same ID is re-queued fresh.
        With a store attached, an identity whose artifact is already
        persisted (by any previous process) is admitted straight to DONE
        -- cached bytes, no queue slot, no worker.  Raises
        :class:`QueueFull` when the bounded queue rejects the job.
        """
        job_id = request_job_id(self.engine, request)
        obs.incr("service.submitted")
        with self._lock:
            existing = self._attach_locked(job_id)
            if existing is not None:
                return existing, True
        # The store read is file I/O: outside the lock, then re-check --
        # a racing duplicate may have admitted this identity meanwhile.
        cached = self._store_artifact(job_id)
        with self._lock:
            existing = self._attach_locked(job_id)
            if existing is not None:
                return existing, True
            self._seq += 1
            job = Job(job_id=job_id, request=request, seq=self._seq)
            if cached is not None:
                job.artifact = cached
                self._transition(job, JobState.DONE)
                self._jobs[job_id] = job
                obs.incr("service.store_served")
                obs.incr("service.completed")
            else:
                try:
                    self._queue.put_nowait(job_id)
                except queue.Full:
                    obs.incr("service.rejected")
                    raise QueueFull(
                        f"job queue full ({self._queue.maxsize} waiting); retry later"
                    ) from None
                self._jobs[job_id] = job
                obs.incr("service.queued")
        if cached is not None:
            self._write_artifact_file(job)
            job.done.set()
        return job, False

    def cancel(self, job_id: str) -> bool:
        """Cancel a QUEUED job.  Idempotent: True again if already CANCELLED.

        Returns False for RUNNING/DONE/FAILED jobs (too late) and for
        unknown IDs.  A QUEUED job that duplicates attached to is *not*
        torn down under them: cancel detaches one submission (True --
        the caller's interest is gone) and the job stays QUEUED for the
        remaining submitters.  The queue entry of a genuinely cancelled
        job is left behind and lazily skipped by whichever worker
        dequeues it.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return False
            if job.state is JobState.CANCELLED:
                return True
            if job.state is not JobState.QUEUED:
                return False
            if job.submissions > 1:
                job.submissions -= 1
                obs.incr("service.cancel_detached")
                return True
            self._transition(job, JobState.CANCELLED)
            obs.incr("service.cancelled")
        job.done.set()
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            self._run_one(job_id)

    def run_next(self) -> Job | None:
        """Manually pump one queued job to completion (workers=0 mode).

        Returns the job it ran (in its terminal state), or ``None`` when
        the queue is empty.  Cancelled entries are consumed and skipped
        exactly as a worker thread would.
        """
        while True:
            try:
                job_id = self._queue.get_nowait()
            except queue.Empty:
                return None
            if job_id is None:
                continue
            job = self._run_one(job_id)
            if job is not None:
                return job

    def _run_one(self, job_id: str) -> Job | None:
        """Claim one dequeued job, execute it, commit its terminal state."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                return None  # cancelled (or superseded) while waiting
            self._transition(job, JobState.RUNNING)
            obs.incr("service.started")
        journal = self._attach_job_journal(job)
        try:
            obs.incr("service.executions")
            artifact = execute_request(self.engine, job.request)
        except Exception as exc:
            with self._lock:
                job.error = f"{type(exc).__name__}: {exc}"
                self._transition(job, JobState.FAILED)
                obs.incr("service.failed")
            job.done.set()
            return job
        finally:
            if journal is not None:
                self.engine.detach_journal(journal)
        if self.store is not None:
            self.store.put(artifact_store_key(job.job_id), artifact)
            obs.incr("service.artifacts_published")
        with self._lock:
            job.artifact = artifact
            self._transition(job, JobState.DONE)
            obs.incr("service.completed")
        self._write_artifact_file(job)
        job.done.set()
        return job

    def _write_artifact_file(self, job: Job) -> None:
        """Mirror a DONE job's artifact into ``artifact_dir`` (when set)."""
        if self.artifact_dir is None or job.artifact is None:
            return
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        write_text_atomic(self.artifact_dir / f"{job.job_id}.csv", job.artifact)

    def _attach_job_journal(self, job: Job):
        """Attach this job's scoped journal (None when journaling is off)."""
        if self.journal_dir is None:
            return None
        configs = request_configs(job.request)
        if not configs:
            return None
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        journal = SweepJournal(self.journal_dir / f"{job.job_id}.journal")
        keys = [self.engine.cache_key(config) for config in configs]
        self.engine.attach_journal(journal, keys=keys)
        return journal

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def artifact(self, job_id: str) -> str | None:
        """A DONE job's artifact text (None otherwise)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.DONE:
                return None
            return job.artifact

    def jobs(self) -> list[Job]:
        """All known jobs in admission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.seq)

    @property
    def queue_size(self) -> int:
        """The admission bound (what /health reports)."""
        return self._queue.maxsize

    def counts(self) -> dict[str, int]:
        """Jobs per lifecycle state (the /health conservation numbers)."""
        counts = {state.value: 0 for state in JobState}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state.value] += 1
        return counts

    def status(self, job_id: str) -> dict | None:
        """The JSON status document for one job (None for unknown IDs)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            state = job.state
            error = job.error
            submissions = job.submissions
            has_artifact = job.artifact is not None
            request = job.request
        # Cost/progress read the engine outside the manager lock: the
        # engine takes its own lock and must never nest under ours.
        cost = estimate(self.engine, request)
        total = cost["configs"]
        return {
            "job_id": job_id,
            "kind": request.kind,
            "state": state.value,
            "error": error,
            "submissions": submissions,
            "artifact_ready": has_artifact,
            "estimate": {"configs": total, "families": cost["families"]},
            "progress": {"completed": cost["cached"], "total": total},
            "request": request.spec(),
        }

    def wait(self, job_id: str, timeout: float | None = None) -> bool:
        """Block until a job reaches a terminal state (True) or timeout."""
        job = self.get(job_id)
        if job is None:
            return False
        return job.done.wait(timeout)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the worker threads (queued jobs stay QUEUED)."""
        for _ in self._workers:
            try:
                self._queue.put(None, timeout=timeout)
            except queue.Full:  # a saturated queue still drains: workers exit on join timeout
                break
        for thread in self._workers:
            thread.join(timeout)
