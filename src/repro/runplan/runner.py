"""Run-plan execution: expand, check the cache, stream, aggregate.

The module-level :func:`execute_point` is the worker entry shipped to
pool processes; it dispatches a :class:`RunPoint` to the matching
picklable facade worker.  :func:`execute` is the one call the experiments layer
uses: specs in, records out, with scheduling (``jobs=``, the one
scheduling input), cache and replica aggregation handled behind the
arguments.

Execution is **streaming**: :func:`iter_outcomes` is the one loop that
consults the cache, feeds the misses through the scheduler contract
(:mod:`repro.runplan.scheduler`), checkpoints every completed point to
the cache *immediately* — a run killed halfway resumes with zero
recomputation — and yields a :class:`PointOutcome` per point (cache
hit/computed/retried/quarantined, attempts, progress counters).
:func:`execute_points` and the service's
:func:`repro.serve.runner.run_submission` both consume it; the optional
``on_result`` callback sees the same outcomes, which is what
progressive figure rendering and the CLI ``--progress`` lines are
built on.  Quarantined points never abort the plan mid-flight: the
remaining points complete (and are cached) first, then the failures
surface as :class:`~repro.runplan.scheduler.PlanExecutionError`
(``errors="raise"``, the default) or are simply omitted from the
result list (``errors="skip"``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from repro.facade import run_drain, run_point, run_transient
from repro.runplan.aggregate import aggregate_replicas
from repro.runplan.cache import resolve_cache
from repro.runplan.scheduler import (
    PlanExecutionError,
    PointError,
    scheduler_for,
)
from repro.runplan.spec import (
    RunPoint,
    RunSpec,
    expand_specs,
    parse_shard,
    shard_points,
)


def execute_point(point: RunPoint, verify=False, *, bucket: int = 250,
                  on_row=None, should_cancel=None,
                  meta: dict | None = None) -> dict:
    """Compute one point's raw record (picklable process-pool worker).

    The single ``kind`` dispatch onto the facade workers, offline and
    served.  Display labels (``series``/``coords``) are merged by
    :func:`iter_outcomes`, never here, so the record is pure
    measurement content — cacheable under the point's content hash and
    shareable between differently-labelled plans.

    ``verify`` (``False | "flow" | "full"``) enforces flow conservation
    or the full physical-invariant set (plus Little's law, occupancy and
    latency/capacity bounds) before the record is returned —
    :class:`~repro.analysis.invariants.InvariantViolation` quarantines
    the point instead of caching silently-wrong numbers.  ``on_row`` /
    ``should_cancel`` / ``meta`` pass through to the worker (see
    :func:`repro.facade.run_point`); ``bucket`` is the stream and
    instrumentation resolution for kinds where it does not shape the
    record (steady, drain) — a point's own ``bucket`` always wins, and
    a transient point never takes this default.  Records are
    byte-identical whatever the level and hooks, so all of them share
    cache entries.
    """
    hooks = dict(verify=verify, on_row=on_row, should_cancel=should_cancel,
                 meta=meta)
    if point.kind == "drain":
        return run_drain(point.config, point.pattern,
                         point.packets_per_node,
                         point.max_cycles or 1_000_000,
                         bucket=point.bucket or bucket, **hooks)
    if point.kind == "transient":
        return run_transient(point.config, point.pattern, point.load,
                             point.packets_per_node,
                             point.warmup, point.measure,
                             bucket=point.bucket or 250, **hooks)
    return run_point(point.config, point.pattern, point.load,
                     point.warmup, point.measure, steady=point.steady,
                     bucket=point.bucket or bucket, **hooks)


def labeled_record(point: RunPoint, record: dict) -> dict:
    """Merge a point's display labels (``series``/``coords``) into a copy
    of its raw record — the step between cache-addressable measurement
    content and the labelled records downstream consumers (figures,
    the serve layer's job results) see."""
    rec = dict(record)
    if point.series:
        rec["series"] = point.series
    rec.update(point.coords)
    return rec


@dataclass(frozen=True)
class PointOutcome:
    """One completed point, as yielded by :func:`iter_outcomes`.

    ``status`` is ``"cached"`` (replayed from the cache, no work),
    ``"computed"`` (fresh, first attempt), ``"retried"`` (fresh, needed
    more than one attempt) or ``"failed"`` (quarantined; ``record`` is
    ``None`` and ``error`` holds the structured
    :class:`~repro.runplan.scheduler.PointError`).  ``index`` is the
    point's position in the executed (post-shard) plan; ``completed`` /
    ``total`` are running progress counters — completion order, not
    plan order, on a process pool.
    """

    index: int
    point: RunPoint
    record: dict | None
    error: PointError | None
    status: str
    attempts: int
    completed: int
    total: int


def iter_outcomes(points, worker, *, jobs: int | None = None,
                  scheduler=None, cache=None):
    """The cache → schedule → checkpoint → label loop, as a generator.

    Yields one :class:`PointOutcome` per point of the list ``points``:
    first the cache hits in plan order (replayed verbatim, no work),
    then — only if something missed — the misses as the scheduler
    completes ``worker(point)`` for them, each fresh record stored in
    ``cache`` *before* it is yielded.  ``jobs`` / ``scheduler`` select
    it (:func:`~repro.runplan.scheduler.scheduler_for`: inline for
    ``None`` / 1, a pool of ``jobs`` processes from 2 up, or the given
    instance).  A quarantined point yields a ``"failed"`` outcome and
    the rest carry on; exceptions the scheduler treats as fatal
    propagate.  ``cache`` is anything with ``get(point)`` /
    ``put(point, record)``.
    """
    pool = scheduler_for(jobs, scheduler)
    total = len(points)
    completed = 0
    pending: list[tuple[int, RunPoint]] = []
    for i, point in enumerate(points):
        hit = None if cache is None else cache.get(point)
        if hit is None:
            pending.append((i, point))
            continue
        completed += 1
        yield PointOutcome(i, point, labeled_record(point, hit), None,
                           "cached", 0, completed, total)
    if not pending:
        return
    for j, result in pool.run(worker, [p for _, p in pending]):
        i, point = pending[j]
        completed += 1
        if isinstance(result, PointError):
            error = replace(result, index=i, key=point.key())
            yield PointOutcome(i, point, None, error, "failed",
                               error.attempts, completed, total)
            continue
        if cache is not None:
            cache.put(point, result)  # checkpoint before anything else
        attempts = getattr(pool, "attempt_counts", {}).get(j, 1)
        yield PointOutcome(i, point, labeled_record(point, result), None,
                           "retried" if attempts > 1 else "computed",
                           attempts, completed, total)


def execute_points(points, *, jobs: int | None = None, scheduler=None,
                   cache=None, on_result=None, errors: str = "raise",
                   shard=None, verify: bool = False) -> list[dict]:
    """Execute a flat point list; results come back in point order.

    ``jobs`` is the pool size (``None`` / 1: inline); ``scheduler`` is
    an instance with ``run(fn, items)`` for anything else (see
    :func:`iter_outcomes`).  ``cache`` (a directory path or
    :class:`ResultCache`) is consulted per point before any work is
    scheduled: hits are replayed verbatim, only misses reach the
    scheduler, and every fresh record is stored the moment it lands —
    the checkpoint that makes killed runs resumable.  Nothing else is
    written: an all-hit replay opens cache entries and nothing more.
    The hits and misses are counted on the :class:`ResultCache` object
    (pass one object to several calls to total them); the
    ``last_run.json`` sidecar is the CLI's to write, once per
    invocation (:meth:`ResultCache.save_run_stats`).  ``shard``
    (``"i/n"`` or ``(i, n)``) restricts execution
    to that deterministic partition of the plan (see
    :func:`~repro.runplan.spec.shard_points`); only the shard's records
    are returned.  ``on_result`` receives a :class:`PointOutcome` per
    completed point, in completion order.  ``errors`` controls
    quarantined points: ``"raise"`` finishes every other point first,
    then raises :class:`~repro.runplan.scheduler.PlanExecutionError`;
    ``"skip"`` drops them from the result list.  ``verify=True`` opts
    every *computed* point into the full physical-invariant set (see
    :func:`execute_point`); cache hits replay without re-verification —
    they were verified when first computed.
    """
    if errors not in ("raise", "skip"):
        raise ValueError(f"errors must be 'raise' or 'skip', got {errors!r}")
    points = list(points)
    if shard is not None:
        points = shard_points(points, *parse_shard(shard))
    cache = resolve_cache(cache)
    records: list[dict | None] = [None] * len(points)
    failures: list[PointError] = []
    worker = partial(execute_point, verify="full") if verify else execute_point
    for outcome in iter_outcomes(points, worker, jobs=jobs,
                                 scheduler=scheduler, cache=cache):
        records[outcome.index] = outcome.record
        if outcome.error is not None:
            failures.append(outcome.error)
        if on_result is not None:
            on_result(outcome)
    if failures:
        if errors == "raise":
            raise PlanExecutionError(
                sorted(failures, key=lambda e: e.index))
        return [r for r in records if r is not None]
    return records  # type: ignore[return-value]


def execute(specs, *, jobs: int | None = None, scheduler=None,
            cache=None, aggregate: bool | None = None, on_result=None,
            errors: str = "raise", shard=None,
            verify: bool = False) -> list[dict]:
    """Run one spec or a sequence of specs end to end.

    ``aggregate=None`` (the default) collapses seed replicas exactly
    when some spec carries more than one seed; pass ``False`` for the
    raw per-seed records or ``True`` to force aggregation.  (When a
    ``shard`` is given, a shard may hold only part of a replica group —
    aggregate after merging shard caches, or pass ``aggregate=False``
    per shard.)  ``jobs`` / ``scheduler`` / ``on_result`` / ``errors`` /
    ``shard`` pass through to :func:`execute_points`, as does
    ``verify`` (opt-in full physical-invariant enforcement on every
    computed point).
    """
    if isinstance(specs, RunSpec):
        specs = [specs]
    specs = list(specs)
    records = execute_points(expand_specs(specs), jobs=jobs,
                             scheduler=scheduler, cache=cache,
                             on_result=on_result, errors=errors,
                             shard=shard, verify=verify)
    if aggregate is None:
        aggregate = any(len(spec.seeds) > 1 for spec in specs)
    return aggregate_replicas(records) if aggregate else records


def series_map(records, order=()) -> dict[str, list[dict]]:
    """Group records by their ``series`` label, preserving record order.

    ``order`` pre-seeds the series ordering (figures want legend order
    even when an empty series produced no records yet).
    """
    out: dict[str, list[dict]] = {name: [] for name in order}
    for rec in records:
        out.setdefault(rec.get("series", ""), []).append(rec)
    return out
