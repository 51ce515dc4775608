"""Simulation-as-a-service: the repro simulator behind an HTTP API.

``repro.serve`` exposes the run-plan execution layer as a small
framework-free ASGI application (``repro serve`` on the CLI):

* ``POST /v1/jobs`` — submit a single point or a full RunSpec grid;
* content-hash **dedupe** — concurrent identical submissions coalesce
  onto one execution, and the shared persistent
  :class:`~repro.runplan.cache.ResultCache` replays anything already
  computed (by the service *or* by offline sweeps — records are
  byte-identical either way);
* ``GET /v1/jobs/{id}/stream`` — live metrics rows as JSONL while the
  simulation runs, byte-identical to an offline
  ``MetricsHub.write_jsonl`` export;
* bounded worker pool, bounded queue (429 + ``Retry-After``), per-job
  timeout and cancellation.

See ``docs/SERVICE.md`` for the full API and operational model.
"""

from repro.analysis.invariants import FlowConservationError
from repro.serve.app import ServeApp, create_app
from repro.serve.jobs import Job, JobQueue, QueueFull
from repro.serve.protocol import (SERVE_SCHEMA_VERSION, Submission,
                                  SubmissionError, parse_submission)
from repro.serve.runner import (JobCancelled, execute_point_streamed,
                                run_submission, stream_meta)
from repro.serve.settings import ServeSettings

__all__ = [
    "ServeApp", "create_app",
    "Job", "JobQueue", "QueueFull",
    "Submission", "SubmissionError", "parse_submission",
    "SERVE_SCHEMA_VERSION",
    "FlowConservationError", "JobCancelled",
    "execute_point_streamed", "run_submission", "stream_meta",
    "ServeSettings",
]
