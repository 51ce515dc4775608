"""Serve determinism contracts, proven against real simulations.

The service is only trustworthy if going through HTTP changes nothing:

* a record computed by the service is **byte-identical** (canonical
  JSON) to the same point run through the offline facade workers, for
  every point kind;
* the live-streamed JSONL equals an offline ``MetricsHub`` export of
  the same window, byte for byte;
* N concurrent identical submissions execute the simulation exactly
  once (content-hash dedupe), and every subscriber reads the same
  bytes;
* a persistent cache directory replays records across service
  restarts without re-simulating.

Since PR 13 the service calls the offline facade workers through their
``on_row`` / ``should_cancel`` hooks instead of mirroring them, so the
first two contracts are also pinned one layer down: a hooked worker's
record equals the un-hooked one and the rows it hands out equal a plain
``MetricsHub`` export.

Sims here are tiny (h=1) but real; the fast queue-semantics tests live
in ``tests/test_serve.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.facade import run_drain, run_point, run_transient, session
from repro.metrics.hub import jsonl_line, strict_jsonable
from repro.network.config import SimConfig
from repro.runplan import execute_point
from repro.runplan.cache import canonical_record_json
from repro.serve import (JobCancelled, ServeSettings, create_app,
                         parse_submission, stream_meta)
from repro.traffic.patterns import pattern_by_name
from repro.traffic.processes import BurstTraffic
from repro.serve import runner as serve_runner
from repro.serve.testclient import Client

CONFIG = {"h": 1, "seed": 11}

STEADY = {"config": CONFIG, "pattern": "uniform", "load": 0.25,
          "warmup": 400, "measure": 600, "bucket": 150}

TRANSIENT = {"config": CONFIG, "pattern": "uniform", "kind": "transient",
             "load": 0.15, "packets_per_node": 2, "warmup": 2000,
             "measure": 1200, "bucket": 100}

DRAIN = {"config": CONFIG, "pattern": "uniform", "kind": "drain",
         "packets_per_node": 2, "max_cycles": 50_000}


def canonical(record: dict) -> str:
    return canonical_record_json(strict_jsonable(record))


def run_job(payload, settings=None):
    """Submit one job, await completion, return (status_body, stream_body)."""
    async def main():
        app = create_app(settings or ServeSettings(workers=1, bucket=150))
        async with Client(app) as client:
            resp = await client.post("/v1/jobs", json_body=payload)
            assert resp.status == 202, resp.text
            job_id = resp.json()["job"]
            stream = await client.get(f"/v1/jobs/{job_id}/stream")
            status = await client.get(f"/v1/jobs/{job_id}")
            return status.json(), stream.text
    return asyncio.run(main())


# ------------------------------------------------------- record byte-identity
def test_steady_record_matches_offline_facade():
    body, _ = run_job(STEADY)
    assert body["state"] == "done", body
    offline = run_point(SimConfig(**CONFIG), "uniform", 0.25, 400, 600)
    [served] = body["result"]["records"]
    assert canonical_record_json(served) == canonical(offline)


def test_steady_autowarmup_record_matches_offline_facade():
    body, _ = run_job({**STEADY, "steady": True})
    offline = run_point(SimConfig(**CONFIG), "uniform", 0.25, 400, 600,
                        steady=True)
    [served] = body["result"]["records"]
    assert canonical_record_json(served) == canonical(offline)


def test_transient_record_matches_offline_facade():
    body, _ = run_job(TRANSIENT)
    assert body["state"] == "done", body
    offline = run_transient(SimConfig(**CONFIG), "uniform", 0.15, 2, 2000,
                            1200, bucket=100)
    [served] = body["result"]["records"]
    assert canonical_record_json(served) == canonical(offline)


def test_drain_record_matches_offline_facade():
    body, stream = run_job(DRAIN)
    assert body["state"] == "done", body
    offline = run_drain(SimConfig(**CONFIG), "uniform", 2, 50_000)
    [served] = body["result"]["records"]
    assert canonical_record_json(served) == canonical(offline)
    # drain streams its rows at completion; the window covers the drain
    rows = [line for line in stream.splitlines() if line]
    assert rows, "drain job produced no metrics rows"


# ------------------------------------------- one path: hooked == un-hooked
def hub_export(point) -> list[dict]:
    """The point's window as a plain ``MetricsHub`` export: single
    ``run()`` calls, no hooks, the hub's batch ``records()``."""
    bucket = point.bucket or 150
    if point.kind == "drain":
        s = session(point.config, bucket=bucket)
        s.with_traffic(BurstTraffic(
            pattern_by_name(point.pattern, s.sim.topo), point.packets_per_node))
        s.drain(point.max_cycles)
        return list(s.hub.records(s.now, stream_meta(point)))
    s = session(point.config, pattern=point.pattern, load=point.load,
                bucket=bucket)
    if point.kind == "transient":
        s.warmup_until_steady(bucket=bucket, max_cycles=point.warmup)
        BurstTraffic(pattern_by_name(point.pattern, s.sim.topo),
                     point.packets_per_node).inject(s.sim, s.now)
    elif point.steady:
        s.warmup_until_steady(max_cycles=point.warmup)
    else:
        s.run(point.warmup).reset()
    return list(s.measure_series(point.measure,
                                 meta=stream_meta(point)).records)


@pytest.mark.parametrize("payload", [
    STEADY, {**STEADY, "steady": True}, TRANSIENT, DRAIN,
], ids=["steady", "steady-autowarmup", "transient", "drain"])
def test_hooked_worker_equals_unhooked_and_streams_the_hub_export(payload):
    [point] = parse_submission(payload).points
    rows = []
    hooked = execute_point(point, "flow", bucket=150, on_row=rows.append,
                           should_cancel=lambda: False,
                           meta=stream_meta(point))
    assert canonical(hooked) == canonical(execute_point(point))
    assert ([jsonl_line(r) for r in rows]
            == [jsonl_line(r) for r in hub_export(point)])


class SetAfter:
    """A cancel "event" that reads as set from its ``polls``-th poll on."""

    def __init__(self, polls: int) -> None:
        self.polls, self.seen = polls, 0

    def is_set(self) -> bool:
        self.seen += 1
        return self.seen >= self.polls


@pytest.mark.parametrize("payload", [
    {**STEADY, "steady": True, "warmup": 10_000_000},
    {**TRANSIENT, "warmup": 10_000_000},
], ids=["steady-autowarmup", "transient"])
def test_auto_warmup_is_cancelled_within_one_block(payload):
    """Satellite bug: auto-warm-up polled the cancel event only after it
    returned, so ``job_timeout`` could not stop a huge ``warmup`` cap."""
    # polls: run_submission's entry, before block 1, before block 2
    cancelled = SetAfter(3)
    rows = []
    with pytest.raises(JobCancelled):
        serve_runner.run_submission(parse_submission(payload),
                                    cancelled=cancelled, emit=rows.append)
    assert cancelled.seen == 3  # one block after the event was set
    assert rows == []  # still warming up: no window was opened


# ------------------------------------------------------- stream byte-identity
def test_streamed_jsonl_equals_offline_hub_export():
    """The live chunked stream == a batch MetricsHub export, byte for byte."""
    body, stream = run_job(STEADY)
    assert body["state"] == "done"
    [point] = parse_submission(STEADY).points
    s = session(SimConfig(**CONFIG), pattern="uniform", load=0.25, bucket=150)
    s.run(400).reset()  # one blind run; the service warms up in chunks
    sr = s.measure_series(600, meta=stream_meta(point))
    expected = "".join(jsonl_line(row) + "\n" for row in sr.records)
    assert stream == expected


# ----------------------------------------------------------------- the dedupe
def test_concurrent_identical_submissions_execute_once(monkeypatch):
    """Acceptance: N concurrent identical submissions -> ONE simulation."""
    executed = []
    real = serve_runner.execute_point_streamed

    def counting(point, emit, **kw):
        executed.append(point.key())
        return real(point, emit, **kw)

    monkeypatch.setattr(serve_runner, "execute_point_streamed", counting)

    async def main():
        app = create_app(ServeSettings(workers=2, bucket=150))
        async with Client(app) as client:
            posts = await asyncio.gather(*(
                client.post("/v1/jobs", json_body=dict(STEADY))
                for _ in range(5)))
            ids = [p.json()["job"] for p in posts]
            assert len(set(ids)) == 1, "identical submissions must coalesce"
            assert sum(p.json()["deduped"] for p in posts) == 4
            # a *different* point stays independent
            other = await client.post(
                "/v1/jobs", json_body={**STEADY, "load": 0.3})
            assert other.json()["job"] not in ids
            streams = await asyncio.gather(*(
                client.get(f"/v1/jobs/{ids[0]}/stream") for _ in range(5)))
            status = (await client.get(f"/v1/jobs/{ids[0]}")).json()
            # a stream request returns only once its job finished
            await client.get(f"/v1/jobs/{other.json()['job']}/stream")
            other_status = (await client.get(
                f"/v1/jobs/{other.json()['job']}")).json()
            return streams, status, other_status

    streams, status, other_status = asyncio.run(main())
    bodies = {s.body for s in streams}
    assert len(bodies) == 1, "every subscriber must read the same bytes"
    assert status["state"] == "done"
    assert status["result"]["executed_points"] == 1
    assert other_status["state"] == "done"
    # exactly two distinct simulations ran in total: the shared one + other
    assert len(executed) == 2 and len(set(executed)) == 2


def test_auto_engine_job_equals_and_dedupes_onto_the_wheel_job():
    """Engine choice is excluded from point identity, over HTTP too.

    A saturated minimal-routing point — the one kind the array core
    takes — served under both engine spellings: same record, same
    stream bytes, and on one queue the two submissions are ONE job.
    """
    def payload(engine):
        return {"config": {"h": 2, "routing": "minimal", "seed": 13,
                           "engine": engine},
                "pattern": "uniform", "load": 0.9,
                "warmup": 200, "measure": 400, "bucket": 100}

    served = {}
    for engine in ("wheel", "auto"):
        body, stream = run_job(payload(engine))
        assert body["state"] == "done", body
        [record] = body["result"]["records"]
        served[engine] = (canonical_record_json(record), stream)
    assert served["auto"] == served["wheel"]

    async def main():
        async with Client(create_app(ServeSettings(workers=1))) as client:
            posts = [await client.post("/v1/jobs", json_body=payload(e))
                     for e in ("wheel", "auto")]
            return [p.json() for p in posts]

    first, second = asyncio.run(main())
    assert second["job"] == first["job"] and second["deduped"]


def test_persistent_cache_replays_across_restarts(tmp_path):
    """Same cache dir, fresh service: the record replays, nothing re-runs."""
    cache_dir = str(tmp_path / "cache")
    first, _ = run_job(STEADY, ServeSettings(workers=1, cache_dir=cache_dir))
    assert first["result"]["executed_points"] == 1
    second, stream = run_job(
        STEADY, ServeSettings(workers=1, cache_dir=cache_dir))
    assert second["result"]["executed_points"] == 0
    assert second["result"]["cached_points"] == 1
    assert (canonical_record_json(second["result"]["records"][0])
            == canonical_record_json(first["result"]["records"][0]))
    assert stream == ""  # replayed records stream no new rows


def test_results_endpoint_serves_cache_hits_without_queue(tmp_path):
    async def main():
        settings = ServeSettings(workers=1,
                                 cache_dir=str(tmp_path / "cache"))
        app = create_app(settings)
        [point] = parse_submission(STEADY).points
        async with Client(app) as client:
            job = (await client.post(
                "/v1/jobs", json_body=STEADY)).json()["job"]
            while (await client.get(f"/v1/jobs/{job}")).json()["state"] != "done":
                await asyncio.sleep(0.01)
            hit = await client.get(f"/v1/results/{point.key()}")
            jobs_before = (await client.get("/v1/stats")).json()["jobs_total"]
            assert hit.status == 200
            assert hit.json()["record"]["seed"] == 11
            jobs_after = (await client.get("/v1/stats")).json()["jobs_total"]
            assert jobs_after == jobs_before  # no job was created
    asyncio.run(main())


def test_flow_conservation_gate_fails_job_on_real_sim(monkeypatch):
    """Force the hub's verify() to report a violation: the job must fail."""
    from repro.metrics import hub as hub_mod

    real_verify = hub_mod.MetricsHub.verify

    def lying_verify(self, full=False):
        report = real_verify(self, full=full)
        report["ok"] = False
        report["injected"] += 1  # simulate a lost packet
        return report

    monkeypatch.setattr(hub_mod.MetricsHub, "verify", lying_verify)
    body, _ = run_job(STEADY)
    assert body["state"] == "failed"
    assert body["error"]["type"] == "flow_conservation"
    assert "flow conservation violated" in body["error"]["message"]
