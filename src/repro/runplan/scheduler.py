"""Streaming point scheduler: incremental results, retry, quarantine.

How a flat list of run points gets computed.  The contract is one
method — anything that has it can be passed as ``scheduler=`` to
:func:`repro.runplan.execute` (an MPI pool, a job-queue client, a test
fake)::

    scheduler.run(fn, items) -> iterator of (index, result | PointError)

``fn`` is always a module-level picklable function (the run-plan worker
entry), so process-based schedulers can ship it to workers.

* results are yielded **as they complete** (out of submission order on
  a pool), so consumers can checkpoint, aggregate and render
  progressively instead of waiting for the slowest point;
* a point whose computation fails — an exception from ``fn`` *or* the
  death of the worker process running it — is retried up to
  ``max_retries`` extra times; a point that keeps failing is
  **quarantined** as a structured :class:`PointError` yielded in its
  slot, and every other point still completes;
* worker death (a ``SIGKILL``-ed or crashed pool process breaks the
  whole :class:`~concurrent.futures.ProcessPoolExecutor`) is survived
  by respawning the pool and re-submitting only the attempts that were
  lost with it, with exponential backoff between consecutive respawns.

Two implementations share the contract: :class:`SerialScheduler` runs
inline (``fn`` need not be picklable; results arrive in order) and
:class:`PoolScheduler` fans out over a process pool with *wave*
dispatch — at most ``jobs`` attempts are in flight at a time, so free
workers steal the next pending point and the blame set for a pool
break is bounded by the wave, never the whole plan.  Callers pick
between them with one integer: :func:`scheduler_for` maps ``jobs`` to
an instance.

Exception types listed in ``fatal`` are never retried or quarantined;
they propagate immediately and abort the run (the serve layer uses
this for cooperative cancellation and the flow-conservation gate).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass, field

__all__ = [
    "PointError",
    "PlanExecutionError",
    "SerialScheduler",
    "PoolScheduler",
    "scheduler_for",
]


@dataclass(frozen=True)
class PointError:
    """Structured quarantine record for one uncomputable point.

    ``index`` is the position of the item in the scheduler's input (the
    run-plan layer remaps it to the plan index and fills ``key`` with
    the point's content hash).  ``worker_death`` distinguishes a worker
    process dying under the point (``error == "WorkerDeath"``, no
    exception object survives) from ``fn`` raising.  ``exception``
    holds the last raised exception when there was one — excluded from
    equality so records compare by content.
    """

    index: int
    attempts: int
    error: str
    message: str
    worker_death: bool = False
    key: str | None = None
    exception: BaseException | None = field(
        default=None, compare=False, repr=False)

    def describe(self) -> dict:
        """JSON-safe summary (what the serve layer and CLI report)."""
        return {
            "index": self.index,
            "key": self.key,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "worker_death": self.worker_death,
        }


class PlanExecutionError(RuntimeError):
    """Some points of a plan were quarantined after exhausting retries.

    Raised by the run-plan layer *after* every other point completed
    and was checkpointed to the cache, so a re-run only recomputes the
    quarantined points.  ``errors`` holds the :class:`PointError`
    records.
    """

    def __init__(self, errors: list[PointError]) -> None:
        self.errors = list(errors)
        first = self.errors[0]
        more = f" (+{len(self.errors) - 1} more)" if len(self.errors) > 1 else ""
        super().__init__(
            f"{len(self.errors)} of the plan's points failed after "
            f"{first.attempts} attempt(s){more}; first: "
            f"[{first.error}] {first.message}")


def _point_error(index: int, attempts: int,
                 exc: BaseException | None) -> PointError:
    if exc is None:
        return PointError(
            index=index, attempts=attempts, error="WorkerDeath",
            message=("worker process died while computing this point "
                     f"({attempts} attempt(s), pool respawned each time)"),
            worker_death=True)
    return PointError(index=index, attempts=attempts,
                      error=type(exc).__name__, message=str(exc),
                      exception=exc)


class SerialScheduler:
    """Inline implementation of the streaming contract (in order).

    Retry still applies — an exception from ``fn`` is retried with
    ``backoff * 2**(attempt-1)`` seconds of sleep between attempts —
    but worker death cannot be survived here: a point that kills the
    process kills the plan (use :class:`PoolScheduler` for isolation).
    """

    def __init__(self, *, max_retries: int = 0, backoff: float = 0.0,
                 fatal: tuple = ()) -> None:
        self.max_retries = max(0, max_retries)
        self.backoff = backoff
        self.fatal = tuple(fatal)
        #: attempts used per input index, updated while :meth:`run` drains
        self.attempt_counts: dict[int, int] = {}

    def run(self, fn, items):
        """Yield ``(index, result | PointError)`` for every item, in order."""
        self.attempt_counts = {}
        for index, item in enumerate(items):
            yield self._attempt(fn, index, item)

    def _attempt(self, fn, index: int, item):
        attempts = 0
        while True:
            attempts += 1
            self.attempt_counts[index] = attempts
            try:
                return index, fn(item)
            except self.fatal:
                raise
            except Exception as e:
                if attempts > self.max_retries:
                    return index, _point_error(index, attempts, e)
                if self.backoff:
                    time.sleep(self.backoff * (2 ** (attempts - 1)))


class PoolScheduler:
    """Process-pool implementation: wave dispatch, respawn, quarantine.

    At most ``jobs`` attempts are in flight at once; completed slots are
    refilled from the pending deque (work stealing: whichever worker
    frees up takes the next point).  When the pool breaks (a worker
    died), every in-flight attempt is charged one failure — the wave
    bounds that blame set to ``jobs`` points — the pool is shut down and
    respawned, and the charged points re-enter the queue unless they
    exhausted ``max_retries``, in which case they are yielded as
    :class:`PointError` quarantine records.  ``backoff`` sleeps
    ``backoff * 2**(n-1)`` seconds before the *n*-th consecutive respawn
    (capped at 5 s) so a crash-looping plan cannot hot-spin fork().

    A single item (or ``jobs=1``) runs inline: no pool, no
    worker-death isolation.
    """

    #: hard ceiling on one backoff sleep, seconds
    MAX_BACKOFF = 5.0

    def __init__(self, jobs: int, *, max_retries: int = 2,
                 backoff: float = 0.25, fatal: tuple = ()) -> None:
        if jobs < 1:
            raise ValueError(f"PoolScheduler needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        self.max_retries = max(0, max_retries)
        self.backoff = backoff
        self.fatal = tuple(fatal)
        self.attempt_counts: dict[int, int] = {}
        #: pools respawned after worker death during the last :meth:`run`
        self.respawns = 0

    def run(self, fn, items):
        """Yield ``(index, result | PointError)`` as attempts complete."""
        items = list(items)
        self.attempt_counts = {}
        self.respawns = 0
        if not items:
            return iter(())
        if self.jobs <= 1 or len(items) <= 1:
            serial = SerialScheduler(max_retries=self.max_retries,
                                     backoff=self.backoff, fatal=self.fatal)
            serial.attempt_counts = self.attempt_counts
            return serial.run(fn, items)
        return self._run_pool(fn, items)

    def _spawn(self, n_items: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=min(self.jobs, n_items))

    def _settle(self, index: int, item, attempts: int,
                exc: BaseException | None, pending: deque):
        """Requeue a failed attempt, or build its quarantine record."""
        if attempts > self.max_retries:
            return _point_error(index, attempts, exc)
        pending.append((index, item, attempts))
        return None

    def _run_pool(self, fn, items):
        pending: deque = deque((i, item, 0) for i, item in enumerate(items))
        in_flight: dict = {}
        pool = self._spawn(len(items))
        consecutive_respawns = 0
        try:
            while pending or in_flight:
                broken = False
                while pending and len(in_flight) < self.jobs:
                    index, item, attempts = pending[0]
                    try:
                        future = pool.submit(fn, item)
                    except BrokenExecutor:
                        broken = True
                        break
                    pending.popleft()
                    in_flight[future] = (index, item, attempts + 1)
                    self.attempt_counts[index] = attempts + 1
                if in_flight and not broken:
                    done, _ = _wait_futures(set(in_flight),
                                            return_when=FIRST_COMPLETED)
                    for future in done:
                        index, item, attempts = in_flight.pop(future)
                        try:
                            result = future.result()
                        except self.fatal:
                            raise
                        except BrokenExecutor:
                            broken = True
                            error = self._settle(index, item, attempts,
                                                 None, pending)
                            if error is not None:
                                yield index, error
                        except Exception as e:
                            error = self._settle(index, item, attempts,
                                                 e, pending)
                            if error is not None:
                                yield index, error
                        else:
                            consecutive_respawns = 0
                            yield index, result
                if broken:
                    # the pool died under us: every attempt still in
                    # flight was lost with it — charge each one failure
                    for index, item, attempts in in_flight.values():
                        error = self._settle(index, item, attempts,
                                             None, pending)
                        if error is not None:
                            yield index, error
                    in_flight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    self.respawns += 1
                    consecutive_respawns += 1
                    if self.backoff and (pending or in_flight):
                        time.sleep(min(
                            self.backoff * (2 ** (consecutive_respawns - 1)),
                            self.MAX_BACKOFF))
                    pool = self._spawn(len(items))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


def scheduler_for(jobs: int | None = None, scheduler=None):
    """The scheduler a ``jobs=`` / ``scheduler=`` argument pair asks for.

    ``jobs`` is the one scheduling input: ``None`` or 1 runs inline on a
    :class:`SerialScheduler`, 2 or more fans out over a
    :class:`PoolScheduler` of that many processes, anything below 1 is
    a ``ValueError``.  ``scheduler`` is an *instance* with
    ``run(fn, items)`` — for custom retry / ``fatal`` settings (the
    serve layer), test fakes and third-party pools — and brings its own
    parallelism, so combining it with ``jobs > 1`` is an error.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1 (1 runs inline, N >= 2 is a "
                         f"pool of N processes), got {jobs}")
    if scheduler is None:
        return SerialScheduler() if jobs in (None, 1) else PoolScheduler(jobs)
    if jobs not in (None, 1):
        raise ValueError(f"pass jobs={jobs} or scheduler=, not both: a "
                         "scheduler instance brings its own pool")
    return scheduler
