"""Pluggable executors: how a flat list of run points gets computed.

Executors are registered in the unified :class:`~repro.registry.Registry`
(``EXECUTOR_REGISTRY``) like every other component, so third parties can
plug in their own (an MPI pool, a job-queue client, ...) and select it
by name wherever the experiments layer accepts ``executor=``.

The contract is the streaming scheduler interface::

    executor.run(fn, items) -> iterator of (index, result | PointError)

Results are yielded as they complete (see :mod:`repro.runplan.scheduler`
for the retry/quarantine semantics); ``fn`` is always a module-level
picklable function (the run-plan worker entry), so process-based
executors can ship it to workers.
"""

from __future__ import annotations

import os
import warnings

from repro.registry import Registry
from repro.runplan.scheduler import PoolScheduler, SerialScheduler

#: run-plan executors (serial, process, third-party pools)
EXECUTOR_REGISTRY = Registry("executor")


def default_workers() -> int:
    """Pool size leaving one core for the parent (never below 1)."""
    return max(1, (os.cpu_count() or 2) - 1)


@EXECUTOR_REGISTRY.register(
    "serial", description="run every point inline in this process")
class SerialExecutor:
    """In-process execution: simple, profiler-friendly, zero overhead.

    ``jobs`` is accepted for signature compatibility but cannot buy
    parallelism here; asking for more than one worker warns instead of
    being silently swallowed (use ``executor="process"`` for a pool).
    """

    def __init__(self, jobs: int | None = None, *, max_retries: int = 0,
                 backoff: float = 0.0, fatal: tuple = ()) -> None:
        if jobs is not None and jobs > 1:
            warnings.warn(
                f"SerialExecutor runs points inline in this process; "
                f"jobs={jobs} has no effect — pass executor='process' "
                f"(or --jobs through the CLI, which selects it) for a pool",
                RuntimeWarning, stacklevel=2)
        self.jobs = 1
        self._scheduler = SerialScheduler(
            max_retries=max_retries, backoff=backoff, fatal=fatal)

    @property
    def attempt_counts(self) -> dict[int, int]:
        """Attempts used per item index during the last :meth:`run`."""
        return self._scheduler.attempt_counts

    def run(self, fn, items):
        """Stream ``(index, result | PointError)`` in item order."""
        return self._scheduler.run(fn, items)


@EXECUTOR_REGISTRY.register(
    "process", description="fan points out over a multiprocessing pool")
class ProcessExecutor:
    """Process-pool execution over :class:`~repro.runplan.scheduler.PoolScheduler`.

    Every point is a self-contained simulation, so results are identical
    to serial execution regardless of pool size or scheduling order.
    ``jobs=None`` sizes the pool to :func:`default_workers`; ``jobs < 1``
    is an error (there is no meaningful zero-worker pool — use the
    serial executor for inline runs).  Worker death is survived by
    respawning the pool and retrying only the lost points; a point that
    fails ``max_retries + 1`` times is quarantined as a
    :class:`~repro.runplan.scheduler.PointError` in the stream.
    """

    def __init__(self, jobs: int | None = None, *, max_retries: int = 2,
                 backoff: float = 0.25, fatal: tuple = ()) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(
                f"process executor needs jobs >= 1, got {jobs}; pass "
                "jobs=None to size the pool to the machine "
                f"({default_workers()} here) or use executor='serial' "
                "for inline execution")
        self.jobs = default_workers() if jobs is None else jobs
        self.max_retries = max_retries
        self.backoff = backoff
        self.fatal = tuple(fatal)
        self._scheduler: PoolScheduler | None = None

    @property
    def attempt_counts(self) -> dict[int, int]:
        """Attempts used per item index during the last :meth:`run`."""
        return {} if self._scheduler is None else self._scheduler.attempt_counts

    def run(self, fn, items):
        """Stream ``(index, result | PointError)`` as points complete."""
        self._scheduler = PoolScheduler(
            self.jobs, max_retries=self.max_retries, backoff=self.backoff,
            fatal=self.fatal)
        return self._scheduler.run(fn, items)


def executor_for_jobs(jobs: int | None) -> str:
    """The conventional executor name for a ``--jobs`` value.

    ``None`` or 1 means serial; anything larger selects the process
    pool.  The one policy shared by the CLI and the figure runners.
    """
    return "process" if jobs and jobs > 1 else "serial"


def resolve_executor(executor, jobs: int | None = None):
    """Resolve an executor name (or pass an instance through).

    Names go through :data:`EXECUTOR_REGISTRY` and are constructed with
    ``jobs``; anything with a ``run`` attribute (the streaming
    contract above) is accepted as-is.
    """
    if isinstance(executor, str):
        return EXECUTOR_REGISTRY.get(executor)(jobs=jobs)
    if hasattr(executor, "run"):
        return executor
    raise TypeError(f"executor must be a registered name or have .run, "
                    f"got {executor!r}")

