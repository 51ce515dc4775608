"""Asyncio job queue: dedupe, bounded workers, timeout, live row fan-out.

One :class:`JobQueue` owns the whole execution side of the service:

* **dedupe** — jobs are addressed by their submission content hash
  (:meth:`~repro.serve.protocol.Submission.key`); a submission whose
  hash matches a queued, running or retained-successful job returns
  *that* job instead of enqueueing a second simulation, so N concurrent
  identical submissions coalesce onto one execution and all N callers
  watch the same stream;
* **backpressure** — at most ``queue_limit`` jobs may wait; beyond that
  :meth:`submit` raises :class:`QueueFull` (the app maps it to HTTP 429
  with ``Retry-After``);
* **bounded workers** — a ``ThreadPoolExecutor`` of ``workers``
  threads runs the synchronous simulations
  (:func:`repro.serve.runner.run_submission`); the event loop never
  blocks;
* **timeout / cancellation** — both are delivered through the job's
  ``threading.Event``, which the facade workers poll every bucket of
  warm-up and measurement; no thread is ever killed mid-bucket.

Threading discipline: worker threads touch **only** the cache (itself
safe: atomic writes, GIL-atomic dict ops) and signal everything else to
the event loop via ``call_soon_threadsafe`` — all Job/queue state is
mutated on the loop thread, so handlers read it without locks.  Row
fan-out uses the pulse pattern: appended rows pulse an ``asyncio.Event``
(``set()`` then ``clear()``) and any number of stream subscribers wake
and drain the shared row list by index.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro.analysis.invariants import FlowConservationError, InvariantViolation
from repro.runplan.cache import ResultCache

from . import runner
from .protocol import parse_submission
from .settings import ServeSettings

#: job lifecycle states
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled")
_FINISHED = frozenset({DONE, FAILED, CANCELLED})


class QueueFull(Exception):
    """The pending-job queue is at ``queue_limit`` (maps to HTTP 429)."""


class _MemoryCache:
    """In-process stand-in for :class:`ResultCache` when no dir is given.

    Same surface (``get``/``put``/``get_record``/``stats``), records
    live in a dict: dedupe and ``GET /v1/results/{hash}`` still work,
    but nothing survives a restart.  Plain dict ops are GIL-atomic, so
    worker threads share it without a lock.
    """

    def __init__(self) -> None:
        self._records: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def get(self, point) -> dict | None:
        record = self._records.get(point.key())
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def get_record(self, key: str) -> dict | None:
        return self._records.get(key)

    def put(self, point, record: dict) -> None:
        self._records[point.key()] = record

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else math.nan,
            "entries": len(self._records),
        }


class Job:
    """One submission's lifecycle: state, streamed rows, result.

    All attributes are loop-thread state (see module docstring);
    ``cancel_event`` is the only object shared with the worker thread.
    """

    def __init__(self, job_id: str, key: str, submission) -> None:
        self.id = job_id
        self.key = key
        self.submission = submission
        self.state = QUEUED
        self.rows: list[dict] = []
        self.result: dict | None = None
        self.error: dict | None = None
        self.timed_out = False
        self.created = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: set → the runner raises JobCancelled at the next boundary
        self.cancel_event = threading.Event()
        #: broadcast signal: replaced (and the old one set) on every row
        #: append and on finish.  Subscribers must capture ``updated``
        #: *before* checking ``rows``/``finished`` and then await the
        #: captured event — any change after the capture sets it, so no
        #: wakeup can be lost to the capture/await gap.
        self.updated = asyncio.Event()
        #: set once by the worker thread when execution actually starts
        self.started = asyncio.Event()

    @property
    def finished(self) -> bool:
        return self.state in _FINISHED

    def _pulse(self) -> None:
        signalled, self.updated = self.updated, asyncio.Event()
        signalled.set()

    # -- loop-side mutators (reached via call_soon_threadsafe) --------
    def _mark_running(self) -> None:
        if self.state == QUEUED:
            self.state = RUNNING
            self.started_at = time.time()
        self.started.set()

    def _push_row(self, row: dict) -> None:
        self.rows.append(row)
        self._pulse()

    def _finish(self, state: str, *, result: dict | None = None,
                error: dict | None = None) -> None:
        if self.finished:
            return
        self.state = state
        self.result = result
        self.error = error
        self.finished_at = time.time()
        self.started.set()
        self._pulse()

    def describe(self) -> dict:
        """The ``GET /v1/jobs/{id}`` body."""
        body = {
            "job": self.id,
            "key": self.key,
            "state": self.state,
            "kind": self.submission.kind,
            "points": len(self.submission.points),
            "rows": len(self.rows),
            "created": self.created,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.timed_out:
            body["timed_out"] = True
        if self.result is not None:
            body["result"] = self.result
        if self.error is not None:
            body["error"] = self.error
        return body


class JobQueue:
    """The service's execution core (see module docstring).

    Lifecycle: :meth:`start` binds the running event loop and spawns the
    worker pool, :meth:`stop` cancels everything outstanding and joins
    the pool; the ASGI lifespan hooks call both.
    """

    def __init__(self, settings: ServeSettings | None = None) -> None:
        self.settings = settings or ServeSettings()
        self.cache = (ResultCache(self.settings.cache_dir)
                      if self.settings.cache_dir else _MemoryCache())
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, Job] = {}
        self._tasks: dict[str, asyncio.Task] = {}
        self._seq = 0
        self.deduped = 0
        self.rejected = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Bind the running loop and open the worker pool (lifespan startup)."""
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.settings.workers,
            thread_name_prefix="repro-serve")

    async def stop(self) -> None:
        """Cancel outstanding jobs and join the pool (lifespan shutdown)."""
        for job in self._jobs.values():
            if not job.finished:
                job.cancel_event.set()
        for task in list(self._tasks.values()):
            task.cancel()
        for task in list(self._tasks.values()):
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------ submission
    def submit(self, payload) -> tuple[Job, bool]:
        """Parse, dedupe and enqueue one submission.

        Returns ``(job, deduped)``; raises
        :class:`~repro.serve.protocol.SubmissionError` on a bad payload
        and :class:`QueueFull` when the waiting line is at
        ``queue_limit``.  Failed, cancelled and timed-out jobs never
        satisfy dedupe — resubmitting one runs it again.
        """
        if self._loop is None:
            raise RuntimeError("JobQueue.start() has not run (no lifespan?)")
        submission = parse_submission(
            payload, max_points=self.settings.max_points)
        key = submission.key()
        existing = self._by_key.get(key)
        if existing is not None and existing.state in (QUEUED, RUNNING, DONE):
            self.deduped += 1
            return existing, True
        if self._queued_count() >= self.settings.queue_limit:
            self.rejected += 1
            raise QueueFull(
                f"{self._queued_count()} jobs already waiting "
                f"(queue_limit={self.settings.queue_limit})")
        self._seq += 1
        job = Job(f"j{self._seq:06d}", key, submission)
        self._jobs[job.id] = job
        self._by_key[key] = job
        self._tasks[job.id] = self._loop.create_task(self._supervise(job))
        return job, False

    def _queued_count(self) -> int:
        return sum(1 for j in self._jobs.values() if j.state == QUEUED)

    def _running_count(self) -> int:
        return sum(1 for j in self._jobs.values() if j.state == RUNNING)

    # ------------------------------------------------------------- execution
    async def _supervise(self, job: Job) -> None:
        """Loop-side babysitter: ship to the pool, enforce the timeout."""
        fut = self._loop.run_in_executor(self._pool, self._run_sync, job)
        try:
            await job.started.wait()
            done, pending = await asyncio.wait(
                {fut}, timeout=self.settings.job_timeout)
            if pending:
                # wall-clock budget exhausted: ask the runner to stop at
                # the next bucket boundary, then wait for it to comply
                job.timed_out = True
                job.cancel_event.set()
                await fut
        except asyncio.CancelledError:
            job.cancel_event.set()
            raise
        finally:
            self._tasks.pop(job.id, None)
            self._evict()

    def _run_sync(self, job: Job) -> None:
        """Worker-thread body; reports back only via call_soon_threadsafe."""
        send = self._loop.call_soon_threadsafe

        def finish(state, **kw):
            send(partial(job._finish, state, **kw))

        send(job._mark_running)
        try:
            result = runner.run_submission(
                job.submission,
                cache=self.cache,
                default_bucket=self.settings.bucket,
                cancelled=job.cancel_event,
                emit=lambda row: send(job._push_row, row),
                max_retries=self.settings.point_retries,
                verify=self.settings.verify,
            )
        except runner.JobCancelled:
            finish(CANCELLED, error={
                "type": "timeout" if job.timed_out else "cancelled",
                "message": ("job exceeded job_timeout="
                            f"{self.settings.job_timeout}s"
                            if job.timed_out else "job cancelled"),
            })
        except FlowConservationError as e:
            finish(FAILED, error={
                "type": "flow_conservation",
                "message": str(e),
                "report": e.report,
            })
        except InvariantViolation as e:
            # a full-verify gate tripped on a non-flow invariant
            finish(FAILED, error={
                "type": "invariant_violation",
                "message": str(e),
                "report": e.report,
            })
        except Exception as e:  # simulation errors become job failures
            finish(FAILED, error={
                "type": type(e).__name__,
                "message": str(e),
            })
        else:
            finish(DONE, result=result)

    # ------------------------------------------------------------ inspection
    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> Job | None:
        """Request cancellation; lands at the runner's next boundary check."""
        job = self._jobs.get(job_id)
        if job is not None and not job.finished:
            job.cancel_event.set()
        return job

    def result_by_hash(self, content_hash: str) -> dict | None:
        """A cached point record by raw content hash (no queue involved)."""
        return self.cache.get_record(content_hash)

    def _evict(self) -> None:
        """Trim retained *finished* jobs to ``keep_jobs`` (oldest first)."""
        finished = [j for j in self._jobs.values() if j.finished]
        for job in finished[:max(0, len(finished) - self.settings.keep_jobs)]:
            self._jobs.pop(job.id, None)
            if self._by_key.get(job.key) is job:
                self._by_key.pop(job.key, None)

    def stats(self) -> dict:
        """The ``GET /v1/stats`` body: queue, job and cache counters."""
        states: dict[str, int] = {}
        executed = cached_points = quarantined = 0
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
            if job.result is not None:
                executed += job.result.get("executed_points", 0)
                cached_points += job.result.get("cached_points", 0)
                quarantined += len(job.result.get("point_errors", ()))
        return {
            "jobs_total": self._seq,
            "jobs_retained": len(self._jobs),
            "states": states,
            "queued": self._queued_count(),
            "running": self._running_count(),
            "deduped": self.deduped,
            "rejected": self.rejected,
            "executed_points": executed,
            "cached_points": cached_points,
            "quarantined_points": quarantined,
            "cache": self.cache.stats(),
            "settings": {
                "cache_dir": self.settings.cache_dir,
                "workers": self.settings.workers,
                "queue_limit": self.settings.queue_limit,
                "job_timeout": self.settings.job_timeout,
                "bucket": self.settings.bucket,
                "max_points": self.settings.max_points,
                "keep_jobs": self.settings.keep_jobs,
                "point_retries": self.settings.point_retries,
                "verify": self.settings.verify,
            },
        }
