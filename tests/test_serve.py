"""Serve layer: protocol parsing, queue semantics, HTTP surface.

Everything here runs against a *fake* runner (monkeypatched
``repro.serve.runner.run_submission``) so queue behaviour — dedupe,
backpressure, cancellation, timeout, streaming, eviction — is tested in
milliseconds and in isolation from the simulator.  The determinism and
byte-identity contracts against real simulations live in
``tests/test_serve_contract.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.experiments.cli import main as cli_main
from repro.metrics.hub import jsonl_line
from repro.serve import (
    FlowConservationError,
    JobCancelled,
    ServeSettings,
    SubmissionError,
    create_app,
    parse_submission,
)
from repro.serve import runner as serve_runner
from repro.serve.testclient import Client

POINT = {"config": {"h": 1, "seed": 3}, "pattern": "uniform", "load": 0.2,
         "warmup": 100, "measure": 200}

SPEC = {"spec": {"config": {"h": 1, "seed": 3}, "pattern": "uniform",
                 "loads": [0.1, 0.2], "warmup": 100, "measure": 200,
                 "replicas": 3}}


# ------------------------------------------------------------------ protocol
def test_parse_single_point():
    sub = parse_submission(POINT)
    assert len(sub.points) == 1
    assert sub.kind == "steady"
    assert not sub.aggregate
    point = sub.points[0]
    assert point.load == 0.2 and point.config.h == 1


def test_parse_spec_expands_grid_and_autoaggregates():
    sub = parse_submission(SPEC)
    assert len(sub.points) == 6  # 2 loads x 3 seed replicas
    assert sub.aggregate  # replicas > 1 aggregates by default
    assert parse_submission({**SPEC, "aggregate": False}).aggregate is False


def test_submission_key_is_content_addressed():
    assert parse_submission(POINT).key() == parse_submission(dict(POINT)).key()
    other = parse_submission({**POINT, "config": {"h": 1, "seed": 4}})
    assert other.key() != parse_submission(POINT).key()
    # aggregation shapes the result payload, so it is part of the key
    assert (parse_submission(SPEC).key()
            != parse_submission({**SPEC, "aggregate": False}).key())


@pytest.mark.parametrize("payload,needle", [
    ([1, 2], "JSON object"),
    ({**POINT, "laod": 0.2}, "laod"),
    ({**POINT, "load": "high"}, "load must be a number"),
    ({**POINT, "warmup": -5}, "warmup"),
    ({**POINT, "config": {"h": 1, "bogus": 2}}, "bad config"),
    ({"spec": {"loads": [0.1], "seeds": [1], "replicas": 2}}, "not both"),
    ({"spec": {"loads": "0.1"}}, "list of numbers"),
    ({"spec": {"loads": [0.1], "replicas": 0}}, "replicas"),
    ({"spec": {"loads": []}}, "zero run points"),
])
def test_parse_rejects_bad_payloads(payload, needle):
    with pytest.raises(SubmissionError, match=needle):
        parse_submission(payload)


def test_parse_enforces_max_points():
    with pytest.raises(SubmissionError, match="max_points"):
        parse_submission(SPEC, max_points=5)


# ------------------------------------------------------------------ settings
@pytest.mark.parametrize("bad,needle", [
    (dict(workers=0), "workers"),
    (dict(workers=65), "workers"),
    (dict(queue_limit=0), "queue_limit"),
    (dict(job_timeout=0), "job_timeout"),
    (dict(retry_after=0), "retry_after"),
    (dict(bucket=0), "bucket"),
    (dict(max_points=0), "max_points"),
    (dict(keep_jobs=0), "keep_jobs"),
    (dict(point_retries=-1), "point_retries"),
    (dict(point_retries=11), "point_retries"),
])
def test_settings_bounds(bad, needle):
    with pytest.raises(ValueError, match=needle):
        ServeSettings(**bad)


def test_cli_serve_rejects_bad_knobs(capsys):
    assert cli_main(["serve", "--workers", "0"]) == 2
    assert "workers must be between" in capsys.readouterr().err
    assert cli_main(["serve", "--port", "99999"]) == 2
    assert "--port" in capsys.readouterr().err
    assert cli_main(["serve", "--job-timeout", "0"]) == 2
    assert "job_timeout" in capsys.readouterr().err


# ---------------------------------------------------------------- fake runner
class FakeRunner:
    """Stand-in for ``runner.run_submission`` with scripted behaviour."""

    def __init__(self, rows=(), error=None, blocking=False):
        self.rows = list(rows)
        self.error = error
        self.blocking = blocking
        self.release = threading.Event()
        self.calls = 0
        self.started = threading.Event()

    def __call__(self, submission, *, cache=None, default_bucket=250,
                 cancelled=None, emit=None, max_retries=0, verify="flow"):
        self.calls += 1
        self.started.set()
        if cancelled is not None and cancelled.is_set():
            raise JobCancelled("cancelled before start")
        for row in self.rows:
            emit(row)
        if self.error is not None:
            raise self.error
        while self.blocking and not self.release.is_set():
            if cancelled is not None and cancelled.is_set():
                raise JobCancelled("cancelled while running")
            time.sleep(0.002)
        return {"records": [{"ran": submission.key()[:8]}],
                "aggregated": submission.aggregate,
                "executed_points": len(submission.points),
                "cached_points": 0}


def serve_test(settings=None):
    """Decorator-ish helper: run an async test body under a live app."""
    def run(body):
        async def main():
            app = create_app(settings or ServeSettings(workers=1,
                                                       job_timeout=30))
            async with Client(app) as client:
                await body(client, app)
        asyncio.run(main())
    return run


async def wait_state(client, job_id, *states, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        body = (await client.get(f"/v1/jobs/{job_id}")).json()
        if body["state"] in states:
            return body
        await asyncio.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached {states}: {body}")


# ------------------------------------------------------------------ HTTP API
def test_healthz_stats_and_errors(monkeypatch):
    monkeypatch.setattr(serve_runner, "run_submission", FakeRunner())

    @serve_test()
    async def _(client, app):
        assert (await client.get("/v1/healthz")).json()["ok"] is True
        stats = (await client.get("/v1/stats")).json()
        assert stats["jobs_total"] == 0
        assert stats["settings"]["workers"] == 1
        assert (await client.get("/v1/nope")).status == 404
        assert (await client.get("/v1/jobs/zzz")).status == 404
        assert (await client.get("/v1/jobs/zzz/stream")).status == 404
        assert (await client.get("/v1/results/deadbeef")).status == 404
        assert (await client.request("PUT", "/v1/jobs/zzz")).status == 405
        bad = await client.request("POST", "/v1/jobs", json_body=None)
        assert bad.status == 400  # empty body: a point with no load
        resp = await client.post("/v1/jobs", json_body={**POINT, "laod": 1})
        assert resp.status == 400 and "laod" in resp.json()["error"]


def test_submit_run_and_replay_stream(monkeypatch):
    rows = [{"type": "meta", "bucket": 10}, {"type": "bucket", "index": 0},
            {"type": "summary"}]
    fake = FakeRunner(rows=rows)
    monkeypatch.setattr(serve_runner, "run_submission", fake)

    @serve_test()
    async def _(client, app):
        resp = await client.post("/v1/jobs", json_body=POINT)
        assert resp.status == 202
        job_id = resp.json()["job"]
        body = await wait_state(client, job_id, "done")
        assert body["result"]["records"] == [{"ran": body["key"][:8]}]
        expected = "".join(jsonl_line(r) + "\n" for r in rows)
        first = await client.get(f"/v1/jobs/{job_id}/stream")
        again = await client.get(f"/v1/jobs/{job_id}/stream")
        assert first.status == 200
        assert first.headers["content-type"] == "application/x-ndjson"
        assert first.text == expected  # live rows
        assert again.text == expected  # replay after completion
        assert fake.calls == 1


def test_dedupe_coalesces_identical_submissions(monkeypatch):
    fake = FakeRunner(blocking=True)
    monkeypatch.setattr(serve_runner, "run_submission", fake)

    @serve_test()
    async def _(client, app):
        first = (await client.post("/v1/jobs", json_body=POINT)).json()
        dup = (await client.post("/v1/jobs", json_body=dict(POINT))).json()
        other = (await client.post(
            "/v1/jobs", json_body={**POINT, "load": 0.3})).json()
        assert dup["job"] == first["job"] and dup["deduped"]
        assert other["job"] != first["job"] and not other["deduped"]
        fake.release.set()
        await wait_state(client, first["job"], "done")
        done = await wait_state(client, other["job"], "done")
        assert done["state"] == "done"
        stats = (await client.get("/v1/stats")).json()
        assert stats["deduped"] == 1 and stats["jobs_total"] == 2
        # a finished job still satisfies dedupe: same key, same result
        replay = (await client.post("/v1/jobs", json_body=POINT)).json()
        assert replay["job"] == first["job"] and replay["deduped"]


def test_queue_full_returns_429_with_retry_after(monkeypatch):
    fake = FakeRunner(blocking=True)
    monkeypatch.setattr(serve_runner, "run_submission", fake)

    @serve_test(ServeSettings(workers=1, queue_limit=1, retry_after=7,
                              job_timeout=30))
    async def _(client, app):
        running = (await client.post("/v1/jobs", json_body=POINT)).json()
        await wait_state(client, running["job"], "running")
        queued = await client.post(
            "/v1/jobs", json_body={**POINT, "load": 0.31})
        assert queued.status == 202
        rejected = await client.post(
            "/v1/jobs", json_body={**POINT, "load": 0.32})
        assert rejected.status == 429
        assert rejected.headers["retry-after"] == "7"
        assert "queue_limit" in rejected.json()["error"]
        fake.release.set()
        await wait_state(client, queued.json()["job"], "done")
        # capacity is back: the same payload is accepted now
        assert (await client.post(
            "/v1/jobs", json_body={**POINT, "load": 0.33})).status == 202


def test_cancel_running_and_queued(monkeypatch):
    fake = FakeRunner(blocking=True)
    monkeypatch.setattr(serve_runner, "run_submission", fake)

    @serve_test(ServeSettings(workers=1, job_timeout=30))
    async def _(client, app):
        running = (await client.post("/v1/jobs", json_body=POINT)).json()
        await wait_state(client, running["job"], "running")
        queued = (await client.post(
            "/v1/jobs", json_body={**POINT, "load": 0.4})).json()
        assert (await client.delete(f"/v1/jobs/{queued['job']}")).status == 202
        assert (await client.delete(f"/v1/jobs/{running['job']}")).status == 202
        ran = await wait_state(client, running["job"], "cancelled")
        held = await wait_state(client, queued["job"], "cancelled")
        assert ran["error"]["type"] == "cancelled"
        assert held["error"]["type"] == "cancelled"
        # cancelled jobs do not satisfy dedupe: resubmission runs anew
        fake.blocking = False
        again = (await client.post("/v1/jobs", json_body=POINT)).json()
        assert again["job"] != running["job"] and not again["deduped"]
        await wait_state(client, again["job"], "done")


def test_job_timeout_marks_job_cancelled(monkeypatch):
    fake = FakeRunner(blocking=True)
    monkeypatch.setattr(serve_runner, "run_submission", fake)

    @serve_test(ServeSettings(workers=1, job_timeout=0.1))
    async def _(client, app):
        job = (await client.post("/v1/jobs", json_body=POINT)).json()["job"]
        body = await wait_state(client, job, "cancelled")
        assert body["timed_out"] is True
        assert body["error"]["type"] == "timeout"
        assert "job_timeout" in body["error"]["message"]


def test_conservation_violation_fails_job(monkeypatch):
    report = {"check": "flow_conservation", "ok": False, "injected": 10,
              "delivered": 8, "in_flight": 1,
              "in_flight_at_window_start": 0, "expected_in_flight": 2}
    fake = FakeRunner(error=FlowConservationError(report))
    monkeypatch.setattr(serve_runner, "run_submission", fake)

    @serve_test()
    async def _(client, app):
        job = (await client.post("/v1/jobs", json_body=POINT)).json()["job"]
        body = await wait_state(client, job, "failed")
        assert body["error"]["type"] == "flow_conservation"
        assert body["error"]["report"]["expected_in_flight"] == 2
        assert "injected=10" in body["error"]["message"]


def test_simulation_error_fails_job_and_allows_retry(monkeypatch):
    fake = FakeRunner(error=ValueError("boom"))
    monkeypatch.setattr(serve_runner, "run_submission", fake)

    @serve_test()
    async def _(client, app):
        job = (await client.post("/v1/jobs", json_body=POINT)).json()["job"]
        body = await wait_state(client, job, "failed")
        assert body["error"] == {"type": "ValueError", "message": "boom"}
        fake.error = None  # failed jobs never dedupe: retry really reruns
        retry = (await client.post("/v1/jobs", json_body=POINT)).json()
        assert retry["job"] != job and not retry["deduped"]
        await wait_state(client, retry["job"], "done")
        assert fake.calls == 2


def test_stream_stops_on_client_disconnect(monkeypatch):
    fake = FakeRunner(rows=[{"type": "meta"}], blocking=True)
    monkeypatch.setattr(serve_runner, "run_submission", fake)

    @serve_test()
    async def _(client, app):
        job = (await client.post("/v1/jobs", json_body=POINT)).json()["job"]
        hangup = asyncio.Event()
        streamer = asyncio.create_task(
            client.get(f"/v1/jobs/{job}/stream", disconnect=hangup))
        await wait_state(client, job, "running")
        await asyncio.sleep(0.05)  # let the emitted row reach the stream
        hangup.set()
        partial = await asyncio.wait_for(streamer, timeout=5)
        assert partial.jsonl() == [{"type": "meta"}]
        # the job itself is unaffected by the subscriber leaving
        fake.release.set()
        assert (await wait_state(client, job, "done"))["state"] == "done"


def test_finished_jobs_evicted_beyond_keep_jobs(monkeypatch):
    fake = FakeRunner()
    monkeypatch.setattr(serve_runner, "run_submission", fake)

    @serve_test(ServeSettings(workers=1, keep_jobs=1, job_timeout=30))
    async def _(client, app):
        first = (await client.post("/v1/jobs", json_body=POINT)).json()["job"]
        await wait_state(client, first, "done")
        second = (await client.post(
            "/v1/jobs", json_body={**POINT, "load": 0.5})).json()["job"]
        await wait_state(client, second, "done")
        third = (await client.post(
            "/v1/jobs", json_body={**POINT, "load": 0.6})).json()["job"]
        await wait_state(client, third, "done")
        assert (await client.get(f"/v1/jobs/{first}")).status == 404
        assert (await client.get(f"/v1/jobs/{third}")).status == 200
        # evicted key no longer dedupes; it re-runs instead
        again = (await client.post("/v1/jobs", json_body=POINT)).json()
        assert again["job"] != first and not again["deduped"]
        await wait_state(client, again["job"], "done")


# ------------------------------------------- scheduler-backed run_submission
def _tiny_spec_payload(**extra):
    return {"spec": {"config": {"h": 2, "routing": "minimal"},
                     "pattern": "uniform", "loads": [0.1, 0.2],
                     "warmup": 100, "measure": 100}, **extra}


def test_submission_progress_flag_parses_and_keys():
    plain = parse_submission(_tiny_spec_payload())
    verbose = parse_submission(_tiny_spec_payload(progress=True))
    assert not plain.progress and verbose.progress
    assert plain.key() != verbose.key()  # different stream → no dedupe
    with pytest.raises(SubmissionError, match="progress"):
        parse_submission(_tiny_spec_payload(progress="yes"))


def test_run_submission_emits_progress_rows_only_on_opt_in():
    rows = []
    result = serve_runner.run_submission(
        parse_submission(_tiny_spec_payload()), emit=rows.append)
    assert result["executed_points"] == 2
    assert not [r for r in rows if r.get("event") == "point"]

    rows = []
    serve_runner.run_submission(
        parse_submission(_tiny_spec_payload(progress=True)), emit=rows.append)
    prog = [r for r in rows if r.get("event") == "point"]
    assert [p["completed"] for p in prog] == [1, 2]
    assert all(p["status"] == "computed" and p["total"] == 2 for p in prog)
    # progress rows are extra — the metrics rows themselves are unchanged
    metrics = [r for r in rows if r.get("event") != "point"]
    assert any("throughput" in r for r in metrics)


def test_run_submission_quarantines_bad_point_and_completes():
    import dataclasses

    sub = parse_submission(_tiny_spec_payload(progress=True))
    bad = dataclasses.replace(sub.points[1], pattern="no_such_pattern")
    mixed = dataclasses.replace(sub, points=(sub.points[0], bad))
    rows = []
    result = serve_runner.run_submission(mixed, max_retries=1,
                                         emit=rows.append)
    assert len(result["records"]) == 1
    (err,) = result["point_errors"]
    assert err["index"] == 1 and err["attempts"] == 2
    assert err["key"] == bad.key()
    failed = [r for r in rows if r.get("event") == "point"
              and r["status"] == "failed"]
    assert len(failed) == 1 and failed[0]["error"] == err["error"]


def test_run_submission_all_points_failed_raises_original():
    import dataclasses

    sub = parse_submission(_tiny_spec_payload())
    poisoned = tuple(dataclasses.replace(p, pattern="no_such_pattern")
                     for p in sub.points)
    with pytest.raises(Exception, match="no_such_pattern"):
        serve_runner.run_submission(dataclasses.replace(sub, points=poisoned))


def test_run_submission_cancellation_is_never_retried():
    cancelled = threading.Event()
    cancelled.set()
    with pytest.raises(serve_runner.JobCancelled):
        serve_runner.run_submission(parse_submission(_tiny_spec_payload()),
                                    cancelled=cancelled, max_retries=5)


def test_stats_counts_quarantined_points(monkeypatch):
    seen_retries = []

    def with_errors(submission, *, max_retries=0, **kw):
        seen_retries.append(max_retries)
        return {"records": [], "aggregated": False,
                "executed_points": 1, "cached_points": 0,
                "point_errors": [{"index": 0, "error": "ValueError"}]}

    monkeypatch.setattr(serve_runner, "run_submission", with_errors)

    @serve_test(ServeSettings(workers=1, point_retries=3))
    async def _(client, app):
        resp = await client.post("/v1/jobs", json_body=_tiny_spec_payload())
        job_id = resp.json()["job"]
        body = await wait_state(client, job_id, "done")
        assert body["result"]["point_errors"] == [
            {"index": 0, "error": "ValueError"}]
        stats = (await client.get("/v1/stats")).json()
        assert stats["quarantined_points"] == 1
        assert stats["settings"]["point_retries"] == 3
        assert seen_retries == [3]


# ------------------------------- two workers, one fabric nobody has compiled
def test_two_workers_share_one_cold_fabric():
    """Two ``auto`` jobs on one fabric, run by two worker threads at once,
    compile it between them and still answer what the facade answers."""
    from repro.facade import run_point
    from repro.metrics.hub import strict_jsonable
    from repro.network.config import SimConfig
    from repro.runplan.cache import canonical_record_json
    from repro.topology.fabric import clear_fabrics, fabric_cache_info

    config = {"h": 3, "routing": "minimal", "engine": "auto", "seed": 5}
    jobs = [{"config": config, "pattern": pattern, "load": load,
             "warmup": 80, "measure": 80}
            for pattern, load in (("uniform", 0.7), ("advg+1", 0.3))]
    offline = [canonical_record_json(strict_jsonable(run_point(
        SimConfig(**config), job["pattern"], job["load"], 80, 80)))
        for job in jobs]
    clear_fabrics()

    @serve_test(ServeSettings(workers=2, job_timeout=60))
    async def _(client, app):
        posted = await asyncio.gather(
            *(client.post("/v1/jobs", json_body=job) for job in jobs))
        assert [resp.status for resp in posted] == [202, 202]
        bodies = [await wait_state(client, resp.json()["job"], "done",
                                   "failed", timeout=60) for resp in posted]
        assert [body["state"] for body in bodies] == ["done", "done"], bodies
        served = [canonical_record_json(body["result"]["records"][0])
                  for body in bodies]
        assert served == offline

    assert fabric_cache_info().misses == 1  # one build, borrowed by both
