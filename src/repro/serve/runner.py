"""Synchronous job execution: the run-plan loop behind a job's hooks.

The service computes nothing itself.  A point runs through
:func:`repro.runplan.runner.execute_point` — the same ``kind`` dispatch
onto the same :mod:`repro.facade` workers an offline sweep uses — with
the worker's optional hooks filled in: ``on_row`` streams the metrics
rows, ``should_cancel`` is the job's cancel event, ``meta`` is
:func:`stream_meta`.  A submission runs through
:func:`repro.runplan.runner.iter_outcomes`, the same cache-lookup →
schedule → checkpoint → label loop behind
:func:`~repro.runplan.runner.execute_points`.  So a served record is
the offline record by construction, and the
:class:`~repro.runplan.cache.ResultCache` shared with CLI sweeps has
nothing to drift against.

What is left here is what only a job has: :class:`JobCancelled`, the
adapter :func:`execute_point_streamed`, and :func:`run_submission`'s
progress rows and result payload.  Every computed window is verified
(``verify="flow"``: flow conservation; ``"full"``: the whole
:mod:`repro.analysis.invariants` live set) and a violation fails the
job rather than returning silently-wrong numbers.
"""

from __future__ import annotations

from repro.analysis.invariants import InvariantViolation
from repro.facade import Cancelled
from repro.runplan.aggregate import aggregate_replicas
from repro.runplan.runner import execute_point, iter_outcomes
from repro.runplan.scheduler import SerialScheduler
from repro.runplan.spec import RunPoint


class JobCancelled(Exception):
    """Raised inside a worker when the job's cancel event is set."""


def stream_meta(point: RunPoint) -> dict:
    """Extra meta-row fields identifying the point a stream belongs to."""
    return {
        "point": point.key(),
        "kind": point.kind,
        "pattern": point.pattern,
        "load": point.load,
        "config_hash": point.config.content_hash(),
    }


def execute_point_streamed(point: RunPoint, emit, *, bucket: int = 250,
                           cancelled=None, verify: str = "flow") -> dict:
    """One point's raw record, streaming metrics rows through ``emit``.

    :func:`repro.runplan.runner.execute_point` with a job's hooks:
    ``emit(row)`` per meta/bucket/summary row and a cooperative
    ``cancelled`` (``threading.Event``) polled every bucket of warm-up
    (blind or auto) and measurement, surfacing as :class:`JobCancelled`.
    ``bucket`` is the stream resolution for kinds where it does not
    shape the record (steady, drain); a point's own ``bucket`` always
    wins.  ``verify`` is ``"flow"`` (conservation only, the default) or
    ``"full"`` (the whole live invariant set); either way the record
    bytes are unchanged — verification only decides whether the point
    fails.
    """
    try:
        return execute_point(
            point, verify, bucket=bucket, on_row=emit,
            should_cancel=None if cancelled is None else cancelled.is_set,
            meta=stream_meta(point))
    except Cancelled:
        raise JobCancelled("job cancelled") from None


def run_submission(submission, *, cache=None, default_bucket: int = 250,
                   cancelled=None, emit=None, max_retries: int = 0,
                   verify: str = "flow") -> dict:
    """Execute a whole submission synchronously; the worker-thread entry.

    Points run through :func:`~repro.runplan.runner.iter_outcomes` on a
    :class:`SerialScheduler` with :class:`JobCancelled` and
    :class:`InvariantViolation` (which covers ``FlowConservationError``)
    marked fatal, so cancellation and the verification gate still abort
    the job instantly while any *other* per-point failure is retried up
    to ``max_retries`` times and then quarantined: the job completes
    with the surviving records plus a ``point_errors`` list instead of
    failing outright.  Only when **every** point failed does the first
    failure propagate as the job error.

    ``cache`` hits replay verbatim and stream no rows — their rows were
    streamed when the record was first computed — and are not
    re-verified; fresh records are stored the moment they land.  Seed
    replicas collapse when the submission asked to aggregate.  The
    result payload reports how many points actually ran
    (``executed_points``) versus replayed (``cached_points``).  When
    the submission opted in (``progress``), one ``{"event": "point",
    ...}`` row per completed point is interleaved with the metrics rows.
    """
    if emit is None:
        def emit(row):
            return None
    if cancelled is not None and cancelled.is_set():
        raise JobCancelled("job cancelled")
    want_progress = getattr(submission, "progress", False)

    def work(point):
        return execute_point_streamed(point, emit, bucket=default_bucket,
                                      cancelled=cancelled, verify=verify)

    scheduler = SerialScheduler(max_retries=max_retries,
                                fatal=(JobCancelled, InvariantViolation))
    records: dict[int, dict] = {}
    errors = []
    cached = 0
    for done in iter_outcomes(submission.points, work, scheduler=scheduler,
                              cache=cache):
        if done.error is not None:
            errors.append(done.error)
        else:
            records[done.index] = done.record
            cached += done.status == "cached"
        if want_progress:
            row = {"event": "point", "index": done.index,
                   "point": done.point.key(), "status": done.status,
                   "attempts": done.attempts, "completed": done.completed,
                   "total": done.total}
            if done.error is not None:
                row["error"] = done.error.error
            emit(row)
    out = [records[i] for i in sorted(records)]
    errors.sort(key=lambda e: e.index)
    if errors and not out:
        first = errors[0]
        if first.exception is not None:
            raise first.exception
        raise RuntimeError(
            f"all {len(errors)} point(s) failed; first: "
            f"[{first.error}] {first.message}")
    result = {
        "records": aggregate_replicas(out) if submission.aggregate else out,
        "aggregated": submission.aggregate,
        "executed_points": len(out) - cached,
        "cached_points": cached,
    }
    if errors:
        result["point_errors"] = [e.describe() for e in errors]
    return result
