"""The ASGI 3 application: HTTP surface over one :class:`JobQueue`.

Framework-free by design — the callable speaks the raw ASGI protocol
(``scope`` / ``receive`` / ``send``), so it runs under any ASGI server
(``uvicorn``, ``hypercorn``, ...), under the bundled stdlib bridge
(:mod:`repro.serve.httpd`) when none is installed, and fully in-process
under the test client (:mod:`repro.serve.testclient`) — CI exercises
the whole HTTP surface without opening a socket.

Routes (all JSON; bodies are canonically encoded — sorted keys, fixed
separators, NaN→null — so equal results are byte-equal)::

    GET    /v1/healthz            liveness probe
    GET    /v1/stats              queue/cache/settings counters
    POST   /v1/jobs               submit a point or spec   → 202 / 400 / 429
    GET    /v1/jobs/{id}          job status + result when finished
    DELETE /v1/jobs/{id}          request cancellation
    GET    /v1/jobs/{id}/stream   live metrics rows as JSONL (chunked)
    GET    /v1/results/{hash}     cached point record by content hash

The stream body is *exactly* the hub's record rows, one
:func:`repro.metrics.hub.jsonl_line` per line — byte-identical to an
offline ``MetricsHub.write_jsonl`` export of the same window, which the
contract tests assert.  Job-level status never pollutes the stream;
poll ``GET /v1/jobs/{id}`` for that.
"""

from __future__ import annotations

import asyncio
import json

from repro.metrics.hub import jsonl_line, strict_jsonable

from .jobs import JobQueue, QueueFull
from .protocol import SERVE_SCHEMA_VERSION, SubmissionError
from .settings import ServeSettings

_JSON = [(b"content-type", b"application/json")]
_NDJSON = [(b"content-type", b"application/x-ndjson")]


def _encode(obj) -> bytes:
    return json.dumps(strict_jsonable(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False).encode()


async def _read_body(receive) -> bytes:
    chunks = []
    while True:
        message = await receive()
        if message["type"] == "http.request":
            chunks.append(message.get("body", b""))
            if not message.get("more_body"):
                break
        elif message["type"] == "http.disconnect":
            break
    return b"".join(chunks)


async def _respond(send, status: int, obj, headers=()) -> None:
    body = _encode(obj)
    await send({"type": "http.response.start", "status": status,
                "headers": [*_JSON, *headers]})
    await send({"type": "http.response.body", "body": body})


class ServeApp:
    """ASGI 3 callable; ``create_app`` is the conventional constructor."""

    def __init__(self, settings: ServeSettings | None = None, *,
                 queue: JobQueue | None = None) -> None:
        self.settings = queue.settings if queue else (settings or ServeSettings())
        self.queue = queue or JobQueue(self.settings)

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - websockets etc.
            raise RuntimeError(f"unsupported ASGI scope {scope['type']!r}")
        await self._dispatch(scope, receive, send)

    # -------------------------------------------------------------- lifespan
    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                try:
                    self.queue.start()
                except Exception as e:  # pragma: no cover - defensive
                    await send({"type": "lifespan.startup.failed",
                                "message": str(e)})
                    return
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await self.queue.stop()
                await send({"type": "lifespan.shutdown.complete"})
                return

    # -------------------------------------------------------------- dispatch
    async def _dispatch(self, scope, receive, send) -> None:
        method = scope["method"]
        parts = [p for p in scope["path"].split("/") if p]
        if not parts or parts[0] != "v1":
            await _respond(send, 404, {"error": "unknown path; all routes "
                                       "live under /v1 (see docs/SERVICE.md)"})
            return
        parts = parts[1:]
        if parts == ["healthz"] and method == "GET":
            await _respond(send, 200, {"ok": True, "service": "repro.serve",
                                       "schema": SERVE_SCHEMA_VERSION})
        elif parts == ["stats"] and method == "GET":
            await _respond(send, 200, self.queue.stats())
        elif parts == ["jobs"] and method == "POST":
            await self._submit(receive, send)
        elif len(parts) == 2 and parts[0] == "jobs":
            if method == "GET":
                await self._job_status(parts[1], send)
            elif method == "DELETE":
                await self._job_cancel(parts[1], send)
            else:
                await _respond(send, 405, {"error": f"{method} not allowed"})
        elif (len(parts) == 3 and parts[0] == "jobs" and parts[2] == "stream"
              and method == "GET"):
            await self._job_stream(parts[1], receive, send)
        elif len(parts) == 2 and parts[0] == "results" and method == "GET":
            await self._result(parts[1], send)
        else:
            await _respond(send, 404, {"error": f"no route for {method} "
                                       f"{scope['path']}"})

    # -------------------------------------------------------------- handlers
    async def _submit(self, receive, send) -> None:
        body = await _read_body(receive)
        try:
            payload = json.loads(body) if body else {}
        except json.JSONDecodeError as e:
            await _respond(send, 400, {"error": f"body is not JSON: {e}"})
            return
        try:
            job, deduped = self.queue.submit(payload)
        except SubmissionError as e:
            await _respond(send, 400, {"error": str(e)})
            return
        except QueueFull as e:
            await _respond(
                send, 429, {"error": str(e),
                            "retry_after": self.settings.retry_after},
                headers=[(b"retry-after",
                          str(self.settings.retry_after).encode())])
            return
        await _respond(send, 202, {
            "job": job.id,
            "key": job.key,
            "state": job.state,
            "deduped": deduped,
            "points": len(job.submission.points),
            "status_url": f"/v1/jobs/{job.id}",
            "stream_url": f"/v1/jobs/{job.id}/stream",
        })

    async def _job_status(self, job_id: str, send) -> None:
        job = self.queue.get(job_id)
        if job is None:
            await _respond(send, 404, {"error": f"no job {job_id!r}"})
            return
        await _respond(send, 200, job.describe())

    async def _job_cancel(self, job_id: str, send) -> None:
        job = self.queue.cancel(job_id)
        if job is None:
            await _respond(send, 404, {"error": f"no job {job_id!r}"})
            return
        await _respond(send, 202, {"job": job.id, "state": job.state,
                                   "cancel_requested": True})

    async def _result(self, content_hash: str, send) -> None:
        record = self.queue.result_by_hash(content_hash)
        if record is None:
            await _respond(send, 404, {
                "error": f"no cached record under hash {content_hash!r}"})
            return
        await _respond(send, 200, {"key": content_hash, "record": record})

    async def _job_stream(self, job_id: str, receive, send) -> None:
        """Chunked JSONL of the job's metrics rows, live until it finishes.

        Rows already emitted replay instantly (late subscribers and
        finished jobs see the full stream); new rows are pushed as each
        bucket closes.  A client disconnect stops the stream without
        touching the job — other subscribers and the job itself carry
        on.
        """
        job = self.queue.get(job_id)
        if job is None:
            await _respond(send, 404, {"error": f"no job {job_id!r}"})
            return
        await send({"type": "http.response.start", "status": 200,
                    "headers": list(_NDJSON)})

        disconnected = asyncio.Event()

        async def watch() -> None:
            while True:
                message = await receive()
                if message["type"] == "http.disconnect":
                    disconnected.set()
                    return

        watcher = asyncio.create_task(watch())
        try:
            i = 0
            while not disconnected.is_set():
                updated = job.updated  # capture BEFORE the drain (see Job)
                while i < len(job.rows):
                    await send({"type": "http.response.body",
                                "body": (jsonl_line(job.rows[i]) + "\n").encode(),
                                "more_body": True})
                    i += 1
                if job.finished:
                    break
                waiter = asyncio.create_task(updated.wait())
                stop = asyncio.create_task(disconnected.wait())
                _, pending = await asyncio.wait(
                    {waiter, stop}, return_when=asyncio.FIRST_COMPLETED)
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
            if not disconnected.is_set():
                await send({"type": "http.response.body", "body": b"",
                            "more_body": False})
        finally:
            watcher.cancel()


def create_app(settings: ServeSettings | None = None, *,
               queue: JobQueue | None = None) -> ServeApp:
    """Build the service (the ``repro serve`` entry point).

    Pass a prebuilt ``queue`` to share one across apps or to inspect it
    from tests; otherwise one is created from ``settings``.
    """
    return ServeApp(settings, queue=queue)
