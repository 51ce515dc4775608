"""The benchmark's workloads: frozen sizes, one *pass* of fixed work each.

A workload is a fixed list of operations (an *operation* is one run
point computed, or one served job reaching ``done``).  A pass runs the
list once — the *cold* phase — and then asks for the same results again
a fixed number of times — the *warm* phase, answered from whatever cache
that path has.  The runner repeats whole passes until ``--seconds`` is
used up and takes each operation at its fastest over the passes, so a
faster program runs more passes of the *same* work instead of different
work — sizes here are
constants, never calibrated at run time.  ``--seed`` offsets every
``SimConfig.seed``; nothing else varies.

Each workload drives the repo only through public functions and keeps
its scratch files under ``bench_e2e/out/``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.experiments import Scale, run_experiment
from repro.experiments.presets import preset_config
from repro.experiments.registry import clear_cache
from repro.facade import run_point
from repro.metrics.hub import strict_jsonable
from repro.network.config import SimConfig, paper_vct_config, paper_wh_config
from repro.runplan import (
    ResultCache,
    RunSpec,
    canonical_record_json,
    execute,
    execute_point,
    expand_specs,
    replica_seeds,
)
from repro.serve import ServeSettings, create_app
from repro.serve.testclient import Client

#: The benchmark's clock: CPU seconds of this process (user + system, all
#: threads).  The program computes on one thread at a time and never
#: blocks, so undisturbed these are wall seconds; unlike wall seconds
#: they leave out the time the host runs a neighbour instead of us.
clock = time.process_time


@dataclass
class PassResult:
    """What one pass of a workload did and how long each part took."""

    #: seconds of the cold phase
    wall: float
    #: the cold phase as lanes of consecutive stretches: a lane's
    #: stretches add up to the time its thread of control was busy, and
    #: the longest lane is ``wall`` (offline: one lane, a stretch up to
    #: each result and one for each call's tail; serve: one per caller,
    #: a stretch per operation)
    lanes: list[list[float]]
    #: per-operation completion time, seconds (offline: gap between
    #: successive ``on_result`` callbacks; serve: POST sent -> status read)
    done: list[float]
    #: call started -> first result visible, one sample per top-level call
    first: list[float]
    sim_cycles: int
    failed: int
    records: list[dict]
    #: warm phase: seconds of each round, and the points one round replays
    warm: list[float] = field(default_factory=list)
    warm_points: int = 0
    #: workload-specific per-layer samples (serve route timings, counts)
    extra: dict = field(default_factory=dict)
    #: non-empty when a record check inside the pass failed
    problem: str = ""

    @property
    def ops(self) -> int:
        return len(self.done)


class _ColdPhase:
    """Times a cold phase made of top-level calls that report each
    point through ``on_result``; the clock runs from construction."""

    def __init__(self, keep_point_records: bool) -> None:
        self.done: list[float] = []
        self.first: list[float] = []
        self.stretches: list[float] = []
        self.cycles = 0
        self.failed = 0
        self.keep_point_records = keep_point_records
        self.records: list[dict] = []
        self._first_pending = False
        self.begin = self._mark = clock()

    def _stretch(self) -> float:
        now = clock()
        gap = now - self._mark
        self._mark = now
        self.stretches.append(gap)
        return gap

    def on_result(self, outcome) -> None:
        gap = self._stretch()
        self.done.append(gap)
        if self._first_pending:
            self.first.append(gap)
            self._first_pending = False
        record = outcome.record
        if record is None:
            self.failed += 1
            return
        self.cycles += record["end_cycle"]
        if self.keep_point_records:
            self.records.append(record)

    def call(self, fn, *args, **kwargs):
        """``fn(*args, on_result=..., **kwargs)``, timed; returns its value."""
        self._first_pending = True
        returned = fn(*args, on_result=self.on_result, **kwargs)
        self._stretch()
        return returned

    def result(self, **more) -> PassResult:
        return PassResult(self._mark - self.begin, [self.stretches], self.done,
                          self.first, self.cycles, self.failed, self.records,
                          **more)


class Workload:
    """Base: ``prepare`` (set-up, timed by the probe), ``run_pass``
    (timed), ``verify`` (untimed record checks), ``close``."""

    name = ""

    def __init__(self, seed: int, smoke: bool, out_dir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self._temp_dirs: list[str] = []

    def temp_dir(self) -> str:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.out_dir)
        self._temp_dirs.append(path)
        return path

    def drop_temp_dir(self, path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)
        self._temp_dirs.remove(path)

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def verify(self, first_pass: PassResult) -> list[str]:
        """Independent record checks, outside the timed region."""
        return []

    def close(self) -> None:
        for path in list(self._temp_dirs):
            self.drop_temp_dir(path)


def _canonical(record: dict) -> str:
    """Canonical JSON with NaN -> null, so served (JSON-decoded) and
    offline records compare byte for byte."""
    return canonical_record_json(strict_jsonable(record))


def _same_record(a: dict, b: dict) -> bool:
    return _canonical(a) == _canonical(b)


def records_sha(records) -> str:
    """sha256 over the canonical JSON of ``records``, in order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(_canonical(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# --------------------------------------------------------------- figures
class FigsAdaptiveWheel(Workload):
    """`repro run all` in miniature: six figure runners on the wheel.

    Warm phase: the same six runners asked for again, as `run all` does
    for the throughput twin of every latency figure (fig5a after fig4a)
    — answered by the experiment registry's in-process memo."""

    name = "figs_adaptive_wheel"

    #: (experiment id, twin id sharing its runner, extra runner kwargs)
    FIGURES = (
        ("fig4a", "fig5a", {}),
        ("fig4b", "fig5b", {}),
        ("fig7a", "fig8a", {}),
        ("fig6b", "fig6b", {"percentages": (0, 100)}),
        ("fig9b", "fig9b", {"percentages": (0, 100)}),
        ("trans1", "trans1", {}),
    )
    #: warm rounds per pass, and memo replays of all six runners per round
    WARM_ROUNDS = 30
    WARM_REPLAYS = 20

    def prepare(self) -> None:
        if self.smoke:
            self.scale = Scale(
                name="bench-smoke", h=2, warmup=60, measure=60,
                loads_uniform=(0.5,), loads_adversarial=(0.3,),
                burst_vct=2, burst_wh=1, trans_bursts=(2,),
                trans_measure=250, trans_bucket=125)
        else:
            self.scale = Scale(
                name="bench", h=2, warmup=100, measure=100,
                loads_uniform=(0.6,), loads_adversarial=(0.3,),
                burst_vct=2, burst_wh=1, trans_bursts=(2,),
                trans_measure=200, trans_bucket=100)

    def run_pass(self) -> PassResult:
        clear_cache()
        cold = _ColdPhase(keep_point_records=True)
        figures = [cold.call(run_experiment, exp_id, scale=self.scale,
                             seed=self.seed, **kwargs)
                   for exp_id, _, kwargs in self.FIGURES]
        rounds, replays = (2, 2) if self.smoke else (self.WARM_ROUNDS, self.WARM_REPLAYS)
        warm = []
        for _ in range(rounds):
            start = clock()
            for _ in range(replays):
                replayed = [run_experiment(twin, scale=self.scale, seed=self.seed, **kwargs)
                            for _, twin, kwargs in self.FIGURES]
            warm.append(clock() - start)
        # a twin differs from its figure only in what the registry stamps on
        stamped = ("id", "metric", "description")
        same = all({k: v for k, v in a.items() if k not in stamped}
                   == {k: v for k, v in b.items() if k not in stamped}
                   for a, b in zip(figures, replayed))
        problem = "" if same else "memo replay differs from the computed figures"
        return cold.result(warm=warm, warm_points=len(cold.records) * replays,
                           problem=problem)

    def verify(self, first_pass: PassResult) -> list[str]:
        """Sampled steady points recomputed on the frozen seed engine."""
        steady = [r for r in first_pass.records if r["kind"] == "measure"]
        rng = random.Random(self.seed)
        problems = []
        for rec in rng.sample(steady, min(3, len(steady))):
            cfg = preset_config(rec["flow_control"], scale=self.scale,
                                routing=rec["routing"], seed=rec["seed"]
                                ).with_(engine="reference")
            again = run_point(cfg, rec["pattern"], rec["load"],
                              self.scale.warmup, self.scale.measure)
            again["series"] = rec["series"]
            if not _same_record(rec, again):
                problems.append(
                    f"figure record {rec['routing']}/{rec['pattern']}/"
                    f"{rec['load']} differs from the reference engine")
        return problems


# ------------------------------------------------------------ run plans
class _PlanWorkload(Workload):
    """A workload made of ``execute()`` calls over fixed spec groups.

    One group is one call — what one ``repro sweep`` invocation runs —
    so a pass yields one first-result sample per group.  Warm phase:
    every group again, ``WARM_ROUNDS`` times, against a result cache
    that holds every point (``expand`` + ``key`` + ``get`` + aggregate
    per point, nothing simulated)."""

    WARM_ROUNDS = 10
    #: replays of the whole plan in one warm round
    WARM_REPLAYS = 1

    def build_groups(self) -> list[list[RunSpec]]:
        raise NotImplementedError

    def prepare(self) -> None:
        self.groups = self.build_groups()
        self.points = expand_specs(spec for group in self.groups for spec in group)
        self.keys = [point.key() for point in self.points]

    def _execute_groups(self, cache, keep_point_records: bool) -> PassResult:
        """Every group once; ``records`` are the calls' returned records
        unless the raw per-point ones are asked for."""
        phase = _ColdPhase(keep_point_records)
        for group in self.groups:
            returned = phase.call(execute, group, cache=cache)
            if not keep_point_records:
                phase.records.extend(returned)
        return phase.result()

    def _replay(self, cold: PassResult, cache_dir: str, keep_point_records: bool) -> None:
        """The warm phase of ``cold``'s pass, from the full ``cache_dir``."""
        for _ in range(2 if self.smoke else self.WARM_ROUNDS):
            seconds = 0.0
            for _ in range(self.WARM_REPLAYS):
                warm = self._execute_groups(cache_dir, keep_point_records)
                seconds += warm.wall
                if warm.sim_cycles != cold.sim_cycles:
                    cold.problem = "warm replay simulated different cycles"
            cold.warm.append(seconds)
        # every round read the same files: compare the last (NaN-safe, unlike ==)
        if records_sha(warm.records) != records_sha(cold.records):
            cold.problem = "warm replay differs from the cold records"
        cold.warm_points = len(self.points) * self.WARM_REPLAYS


class SweepMinimalArray(_PlanWorkload):
    """`repro sweep`'s default path: minimal routing on the array core.

    The cold phase runs without a cache, as `repro sweep` does; its
    records are then stored (untimed) for the warm phase, which is what
    a `repro sweep --cache DIR` rerun costs."""

    name = "sweep_minimal_array"

    WARM_REPLAYS = 8  # 11 points a replay: 88 a round, about the grid's 84

    def build_groups(self) -> list[list[RunSpec]]:
        seed = self.seed

        def vct(h):
            return paper_vct_config(h=h, routing="minimal", seed=seed).with_(engine="auto")

        def wh(h):
            return paper_wh_config(h=h, routing="minimal", seed=seed).with_(engine="auto")

        if self.smoke:
            specs = [
                RunSpec(config=vct(2), pattern="uniform", loads=(0.3, 0.9),
                        warmup=60, measure=60, series="h2-vct-un"),
                RunSpec(config=wh(2), pattern="advg+1", loads=(0.1,),
                        warmup=60, measure=60, series="h2-wh-adv"),
                RunSpec(config=vct(2), pattern="advg+1", kind="drain",
                        packets_per_node=2, max_cycles=100_000,
                        series="h2-drain"),
            ]
        else:
            specs = [
                RunSpec(config=vct(3), pattern="uniform",
                        loads=(0.2, 0.4, 0.6, 0.8, 1.0),
                        warmup=120, measure=120, series="h3-vct-un"),
                RunSpec(config=vct(4), pattern="uniform", loads=(0.3, 0.7),
                        warmup=80, measure=80, series="h4-vct-un"),
                RunSpec(config=wh(3), pattern="advg+1", loads=(0.1, 0.3),
                        warmup=120, measure=120, series="h3-wh-adv"),
                RunSpec(config=vct(3), pattern="advg+1", kind="drain",
                        packets_per_node=3, max_cycles=100_000,
                        series="h3-drain"),
                RunSpec(config=vct(4), pattern="advg+1", kind="drain",
                        packets_per_node=1, max_cycles=100_000,
                        series="h4-drain"),
            ]
        return [[spec] for spec in specs]

    def run_pass(self) -> PassResult:
        cold = self._execute_groups(None, keep_point_records=True)
        cache_dir = self.temp_dir()
        cache = ResultCache(cache_dir)
        start = clock()
        for point, record in zip(self.points, cold.records):
            labels = {"series", *point.coords}  # the runner caches unlabelled records
            cache.put(point, {k: v for k, v in record.items() if k not in labels})
        # in no phase, but a traced run sees these puts: the closure check needs them
        cold.extra["untimed_s"] = clock() - start
        self._replay(cold, cache_dir, keep_point_records=True)
        self.drop_temp_dir(cache_dir)
        return cold

    def verify(self, first_pass: PassResult) -> list[str]:
        """Sampled points recomputed on the object wheel."""
        rng = random.Random(self.seed)
        problems = []
        for i in rng.sample(range(len(self.points)), min(3, len(self.points))):
            point = self.points[i]
            again = execute_point(replace(
                point, config=point.config.with_(engine="wheel")))
            again["series"] = point.series
            if not _same_record(first_pass.records[i], again):
                problems.append(f"sweep point {i} ({point.series}) differs "
                                "between the array core and the wheel")
        return problems


GRID_ROUTINGS = ("minimal", "valiant", "olm", "rlm", "par62", "ofar", "pb")


class GridColdWarm(_PlanWorkload):
    """Many tiny points into an empty cache, then replayed from it.

    In the cold phase per-point fixed cost (builds, keying, cache
    writes, aggregation) weighs as much as it ever will; the warm phase
    reads back what the cold phase wrote, so the same ``runplan`` layer
    is measured as writes and as reads."""

    name = "grid_cold_warm"

    WARM_REPLAYS = 3  # 28 points a replay: 84 a round

    def build_groups(self) -> list[list[RunSpec]]:
        # heaviest point first: a call's first result is then ~0.1 s of
        # work, long enough for first_row_p50_s to be more than timer noise
        hs, loads, cycles, seeds = (((2,), (0.1,), 40, 2) if self.smoke else
                                    ((3, 2), (0.15,), 150, 2))
        return [
            [RunSpec(config=paper_vct_config(h=h, routing=routing, seed=self.seed
                                             ).with_(engine="auto"),
                     pattern="uniform", loads=loads, warmup=cycles,
                     measure=cycles, seeds=replica_seeds(self.seed, seeds),
                     series=routing)
             for h in hs]
            for routing in GRID_ROUTINGS
        ]

    def run_pass(self) -> PassResult:
        cache_dir = self.temp_dir()
        cold = self._execute_groups(cache_dir, keep_point_records=False)
        cache = ResultCache(cache_dir)
        if len(cache) != len(set(self.keys)):
            cold.problem = "cache entries != distinct point keys"
        cold.extra["cache_bytes"] = cache.total_bytes()
        self._replay(cold, cache_dir, keep_point_records=False)
        self.drop_temp_dir(cache_dir)
        return cold


# ------------------------------------------------------------------- serve
@dataclass(frozen=True)
class ServeOp:
    """One closed-loop operation: ``fresh`` executes a new point,
    ``pair`` POSTs a new payload twice back to back (must coalesce),
    ``replay`` re-submits an earlier point under a new job key (must be
    answered from the result cache without executing)."""

    kind: str
    payload: dict
    source: int | None = None


#: closed-loop callers; operation *i* is caller ``i % SERVE_CLIENTS``'s
SERVE_CLIENTS = 2
SERVE_ROUTINGS = ("olm", "minimal", "rlm", "par62")
SERVE_PATTERNS = ("uniform", "advg+1")


def serve_ops(seed: int, smoke: bool) -> list[ServeOp]:
    """The operation list (identical for every pass of a run).

    Operation *i* belongs to caller ``i % SERVE_CLIENTS``.  The list's shape —
    kinds, their order, each replay's source — is frozen; ``seed`` sets
    every job's ``SimConfig.seed``.  Shuffling the order by seed as well
    moved ``wall_s`` by ±6 % between seeds: with two callers and one
    worker, where the quick replays fall decides which caller's jobs
    queue behind which."""
    fresh, pairs, replays, gap = (5, 1, 1, 3) if smoke else (13, 2, 5, 4)
    warmup, measure, bucket = (40, 80, 40) if smoke else (200, 400, 100)
    rng = random.Random(0)
    kinds = ["fresh"] * fresh + ["pair"] * pairs
    rng.shuffle(kinds)
    # a replay's source must have finished, so it is an earlier operation
    # of the same caller; the first `gap` operations give each caller one
    tail = kinds[gap:] + ["replay"] * replays
    rng.shuffle(tail)
    kinds = kinds[:gap] + tail
    ops: list[ServeOp] = []
    executing = 0  # routing/pattern cycle over the executing operations
    for i, kind in enumerate(kinds):
        if kind == "replay":
            candidates = [j for j in range(i % SERVE_CLIENTS, i, SERVE_CLIENTS)
                          if ops[j].kind != "replay"]
            source = rng.choice(candidates)
            payload = {**ops[source].payload, "progress": True}
            ops.append(ServeOp("replay", payload, source))
            continue
        config = paper_vct_config(
            h=2, routing=SERVE_ROUTINGS[executing % 4],
            seed=seed * 1000 + i).to_dict()
        ops.append(ServeOp(kind, {
            "config": config, "pattern": SERVE_PATTERNS[executing // 4 % 2],
            "load": 0.3, "warmup": warmup, "measure": measure,
            "bucket": bucket}))
        executing += 1
    return ops


async def asgi_call(app, method: str, path: str, payload=None):
    """One request through the ASGI app.

    Returns ``(status, body, first_chunk_at)``; ``first_chunk_at`` is the
    ``clock`` reading when the first non-empty body chunk was sent.
    """
    body = b"" if payload is None else json.dumps(payload).encode()
    scope = {
        "type": "http", "asgi": {"version": "3.0"}, "http_version": "1.1",
        "method": method, "scheme": "http", "path": path,
        "raw_path": path.encode(), "query_string": b"",
        "headers": [(b"content-type", b"application/json"),
                    (b"content-length", str(len(body)).encode())],
        "server": ("bench", 80), "client": ("bench", 1),
    }
    pending = [{"type": "http.request", "body": body, "more_body": False}]

    async def receive():
        if pending:
            return pending.pop()
        await asyncio.Event().wait()  # the client stays connected

    status = 0
    chunks: list[bytes] = []
    first_chunk_at = None

    async def send(message) -> None:
        nonlocal status, first_chunk_at
        if message["type"] == "http.response.start":
            status = message["status"]
        elif message["type"] == "http.response.body":
            chunk = message.get("body", b"")
            if chunk and first_chunk_at is None:
                first_chunk_at = clock()
            chunks.append(chunk)

    await app(scope, receive, send)
    return status, b"".join(chunks), first_chunk_at


class ServeClosedLoop(Workload):
    """The HTTP service under two closed-loop callers and one worker.

    Warm phase: the service restarted over the cache the cold phase
    filled, every executed payload submitted again by the same two
    callers — each answered from the result cache, nothing simulated."""

    name = "serve_closed_loop"

    WARM_ROUNDS = 8

    def prepare(self) -> None:
        self.ops = serve_ops(self.seed, self.smoke)
        # one lifespan start + stop, so set-up time includes what a
        # service pays before its first request
        asyncio.run(self._lifespan_once())

    async def _lifespan_once(self) -> None:
        cache_dir = self.temp_dir()
        async with Client(create_app(ServeSettings(workers=1, cache_dir=cache_dir))):
            pass
        self.drop_temp_dir(cache_dir)

    def run_pass(self) -> PassResult:
        return asyncio.run(self._pass())

    async def _closed_loop(self, cache_dir: str, ops: list[ServeOp]):
        """``ops`` through a fresh app, caller *k* doing operations *k*,
        *k* + ``SERVE_CLIENTS``, ... one after another; returns ``(seconds,
        per-operation results in order, /v1/stats)``.

        The callers take turns by position, not from a shared queue, so
        that every pass gives each caller the same operations and an
        operation's time can be compared between passes."""
        app = create_app(ServeSettings(workers=1, cache_dir=cache_dir))
        results: list = [None] * len(ops)

        async def caller(first: int) -> None:
            for index in range(first, len(ops), SERVE_CLIENTS):
                results[index] = await self._operate(app, ops[index])

        async with Client(app):
            begin = clock()
            await asyncio.gather(*(caller(k) for k in range(SERVE_CLIENTS)))
            wall = clock() - begin
            _, body, _ = await asgi_call(app, "GET", "/v1/stats")
        return wall, results, json.loads(body)

    async def _pass(self) -> PassResult:
        cache_dir = self.temp_dir()
        wall, ordered, stats = await self._closed_loop(cache_dir, self.ops)
        cache_bytes = ResultCache(cache_dir).total_bytes()
        executed = [i for i, op in enumerate(self.ops) if op.kind != "replay"]
        again = [ServeOp("replay", self.ops[i].payload, i) for i in executed]
        warm = []
        problem = next((r["problem"] for r in ordered if r["problem"]), "")
        for _ in range(1 if self.smoke else self.WARM_ROUNDS):
            seconds, replayed, _ = await self._closed_loop(cache_dir, again)
            warm.append(seconds)
            for i, result in zip(executed, replayed):
                if result["problem"] or result["record"] != ordered[i]["record"]:
                    problem = problem or (
                        f"warm replay of operation {i}: "
                        + (result["problem"] or "record differs from the cold one"))
        self.drop_temp_dir(cache_dir)
        extra = {"ops": ordered, "stats": stats, "cache_bytes": cache_bytes}
        return PassResult(
            wall,
            lanes=[[r["done"] for r in ordered[k::SERVE_CLIENTS]]
                   for k in range(SERVE_CLIENTS)],
            done=[r["done"] for r in ordered],
            first=[r["first"] for r in ordered],
            sim_cycles=sum(r["cycles"] for r in ordered),
            failed=sum(1 for r in ordered if r["problem"]),
            records=[r["record"] for r in ordered],
            warm=warm, warm_points=len(again),
            extra=extra, problem=problem)

    async def _operate(self, app, op: ServeOp) -> dict:
        sent = clock()
        status, body, _ = await asgi_call(app, "POST", "/v1/jobs", op.payload)
        posted = clock()
        problem = "" if status == 202 else f"POST answered {status}"
        accepted = json.loads(body)
        job = accepted.get("job")
        if op.kind == "pair" and not problem:
            status, body, _ = await asgi_call(app, "POST", "/v1/jobs", op.payload)
            twin = json.loads(body)
            if status != 202 or not twin.get("deduped") or twin.get("job") != job:
                problem = "identical back-to-back POSTs did not coalesce"
        out = {"kind": op.kind, "post": posted - sent, "rejected": status == 429,
               "deduped": op.kind == "pair" and not problem,
               "done": 0.0, "first": 0.0, "cycles": 0, "record": None,
               "rows": 0, "executed": 0, "cached": 0, "problem": problem}
        if job is None:
            out["done"] = out["first"] = clock() - sent
            return out
        _, stream, first_chunk_at = await asgi_call(app, "GET", f"/v1/jobs/{job}/stream")
        closed = clock()
        closed_wall = time.time()
        _, body, _ = await asgi_call(app, "GET", f"/v1/jobs/{job}")
        read = clock()
        state = json.loads(body)
        out.update(done=read - sent, first=(first_chunk_at or closed) - sent,
                   status=read - closed, rows=stream.count(b"\n"))
        result = state.get("result") or {}
        if state.get("state") != "done" or len(result.get("records", ())) != 1:
            out["problem"] = problem or f"job ended {state.get('state')!r}"
            return out
        out.update(
            record=result["records"][0],
            executed=result["executed_points"], cached=result["cached_points"],
            queue_wait=state["started_at"] - state["created"],
            execute=state["finished_at"] - state["started_at"],
            stream_lag=closed_wall - state["finished_at"])
        expected = (0, 1) if op.kind == "replay" else (1, 0)
        if (out["executed"], out["cached"]) != expected:
            out["problem"] = problem or (
                f"{op.kind} operation executed {out['executed']} and "
                f"replayed {out['cached']} points, expected {expected}")
        elif out["executed"]:
            out["cycles"] = out["record"]["end_cycle"]
        return out

    def verify(self, first_pass: PassResult) -> list[str]:
        """Sampled served records must equal a direct facade run."""
        rng = random.Random(self.seed)
        executed = [i for i, op in enumerate(self.ops) if op.kind != "replay"]
        problems = []
        for i in rng.sample(executed, min(8, len(executed))):
            payload = self.ops[i].payload
            offline = run_point(SimConfig.from_dict(payload["config"]),
                                payload["pattern"], payload["load"],
                                payload["warmup"], payload["measure"])
            served = first_pass.records[i]
            if served is None or not _same_record(served, offline):
                problems.append(f"served record of operation {i} differs "
                                "from facade.run_point")
        for i, op in enumerate(self.ops):
            if op.kind == "replay" and (
                    first_pass.records[i] != first_pass.records[op.source]):
                problems.append(f"replayed record of operation {i} differs "
                                f"from operation {op.source}")
        return problems


WORKLOADS = {cls.name: cls for cls in (
    FigsAdaptiveWheel, SweepMinimalArray, GridColdWarm, ServeClosedLoop)}
