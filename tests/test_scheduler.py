"""Streaming scheduler: retry, worker-death resume, sharding, crash resume.

The elastic-execution acceptance criteria live here:

* a SIGKILL-ed pool worker mid-plan never loses the plan — the pool is
  respawned, only the lost attempts are resubmitted, everything
  completes;
* a killed *run* resumes from the cache with zero recomputation;
* points that keep failing are quarantined as structured
  :class:`PointError` records after every other point completed;
* records are byte-identical (canonical JSON) between a serial run, a
  process-pool run, a resumed run and the union of shard runs.
"""

import os
import signal

import pytest

from repro.network.config import paper_vct_config
from repro.runplan import (
    PlanExecutionError,
    PointError,
    PoolScheduler,
    ResultCache,
    RunSpec,
    SerialScheduler,
    canonical_record_json,
    execute,
    execute_points,
    expand_specs,
    in_shard,
    parse_shard,
    replica_seeds,
    shard_points,
)

WARMUP = MEASURE = 250


def tiny_points(loads=(0.1, 0.2, 0.3), routing="minimal", seed=3, seeds=1):
    spec = RunSpec(config=paper_vct_config(h=2, routing=routing, seed=seed),
                   pattern="uniform", loads=loads, warmup=WARMUP,
                   measure=MEASURE, seeds=replica_seeds(seed, seeds))
    return expand_specs([spec])


# --------------------------------------------------- picklable pool workers
def square(x):
    return x * x


def kill_once(arg):
    """SIGKILL this worker process the first time it sees ``arg``.

    The marker file (under the test's tmp dir) records that the kill
    already happened, so the retried attempt — in the respawned pool —
    succeeds: a deterministic one-shot worker death.
    """
    value, marker = arg
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def always_die(arg):
    os.kill(os.getpid(), signal.SIGKILL)


def fail_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x * x


# ----------------------------------------------------------- serial contract
def test_serial_scheduler_streams_in_order():
    s = SerialScheduler()
    assert list(s.run(square, [1, 2, 3])) == [(0, 1), (1, 4), (2, 9)]
    assert s.attempt_counts == {0: 1, 1: 1, 2: 1}


def test_serial_scheduler_retries_transient_failure():
    failures = {"left": 2}

    def flaky(x):
        if failures["left"]:
            failures["left"] -= 1
            raise RuntimeError("transient")
        return x

    s = SerialScheduler(max_retries=2)
    assert list(s.run(flaky, ["ok"])) == [(0, "ok")]
    assert s.attempt_counts[0] == 3


def test_serial_scheduler_quarantines_after_max_retries():
    s = SerialScheduler(max_retries=1)
    results = dict(s.run(fail_odd, [2, 3, 4]))
    assert results[0] == 4 and results[2] == 16
    err = results[1]
    assert isinstance(err, PointError)
    assert err.error == "ValueError" and err.attempts == 2
    assert not err.worker_death
    assert isinstance(err.exception, ValueError)


def test_serial_scheduler_fatal_never_retried():
    calls = []

    def boom(x):
        calls.append(x)
        raise KeyboardInterrupt

    s = SerialScheduler(max_retries=5, fatal=(KeyboardInterrupt,))
    with pytest.raises(KeyboardInterrupt):
        list(s.run(boom, [1]))
    assert calls == [1]


# ------------------------------------------------------------- pool contract
def test_pool_scheduler_completes_all_points():
    s = PoolScheduler(jobs=2)
    results = dict(s.run(square, list(range(8))))
    assert results == {i: i * i for i in range(8)}
    assert s.respawns == 0


def test_pool_survives_worker_sigkill(tmp_path):
    """Acceptance: SIGKILL a pool worker mid-plan; the plan completes."""
    marker = str(tmp_path / "killed")
    items = [(i, marker if i == 3 else None) for i in range(8)]
    s = PoolScheduler(jobs=2, max_retries=2, backoff=0.01)
    results = dict(s.run(kill_once, items))
    assert results == {i: i * i for i in range(8)}
    assert s.respawns >= 1
    assert os.path.exists(marker)
    # the killed point needed more than one attempt; innocents at most
    # jobs-bounded blame, and nothing exceeded the retry budget
    assert s.attempt_counts[3] >= 2
    assert all(n <= 3 for n in s.attempt_counts.values())


def test_pool_quarantines_poison_points():
    """Points that kill every worker they touch are quarantined as
    structured worker-death records (all-poison, so no innocent
    in-flight neighbour can be blamed into quarantine by the broken
    pool — innocents are covered by the kill-once test above)."""
    s = PoolScheduler(jobs=2, max_retries=1, backoff=0.01)
    results = dict(s.run(always_die, ["a", "b"]))
    assert set(results) == {0, 1}
    for err in results.values():
        assert isinstance(err, PointError)
        assert err.worker_death and err.error == "WorkerDeath"
        assert err.attempts == 2  # 1 + max_retries, never more


def test_pool_scheduler_rejects_bad_jobs():
    with pytest.raises(ValueError, match="jobs >= 1"):
        PoolScheduler(jobs=0)


# ------------------------------------------------------------------ sharding
def test_parse_shard_grammar():
    assert parse_shard("0/2") == (0, 2)
    assert parse_shard("3/8") == (3, 8)
    assert parse_shard((1, 2)) == (1, 2)  # the pair spelling normalises too
    for bad in ("", "2", "2/2", "-1/2", "a/b", "1/0", "1/2/3",
                (2, 2), (0,), (0, 1, 2), None, 3):
        with pytest.raises(ValueError):
            parse_shard(bad)


def test_shard_points_partition_is_exact():
    points = tiny_points(loads=(0.1, 0.2, 0.3, 0.4), seeds=3)
    count = 3
    shards = [shard_points(points, i, count) for i in range(count)]
    # disjoint, union = whole plan, plan order preserved
    seen = [p.key() for shard in shards for p in shard]
    assert sorted(seen) == sorted(p.key() for p in points)
    assert len(set(seen)) == len(points)
    for shard in shards:
        keys = [p.key() for p in shard]
        plan_order = [p.key() for p in points if p.key() in set(keys)]
        assert keys == plan_order
    # membership is content-addressed: independent of list order
    for p in points:
        assert sum(in_shard(p, i, count) for i in range(count)) == 1
    assert shard_points(points, 0, 1) == list(points)


def test_shard_union_byte_identical_to_serial(tmp_path):
    """Acceptance: shard caches union to the serial run, byte for byte."""
    # seed 1 gives a 3/3 split across the two shards (content-hash
    # partition: which shard a point lands in is luck of the hash)
    points = tiny_points(loads=(0.1, 0.2, 0.3), seed=1, seeds=2)
    serial_cache = ResultCache(tmp_path / "serial")
    serial = execute_points(points, cache=serial_cache)

    shard_cache = ResultCache(tmp_path / "shards")  # shared by both shards
    part0 = execute_points(points, cache=shard_cache, shard="0/2")
    part1 = execute_points(points, cache=shard_cache, shard=(1, 2))
    assert len(part0) + len(part1) == len(serial)
    assert 0 < len(part0) < len(serial)  # the split is real

    union = {canonical_record_json(r) for r in part0 + part1}
    assert union == {canonical_record_json(r) for r in serial}

    # cache directories byte-identical: same keys, same file contents
    serial_entries = dict(serial_cache.iter_entries())
    shard_entries = dict(shard_cache.iter_entries())
    assert sorted(serial_entries) == sorted(shard_entries)
    for key, path in serial_entries.items():
        assert path.read_bytes() == shard_entries[key].read_bytes()


# ------------------------------------------------------- crash/resume + cache
def test_killed_run_resumes_with_zero_recomputation(tmp_path):
    """Acceptance: a run killed mid-plan replays every completed point."""
    points = tiny_points(loads=(0.1, 0.2, 0.3, 0.4))
    cache = ResultCache(tmp_path / "c")
    completed_before_kill = 2

    def die_after(outcome):
        if outcome.completed >= completed_before_kill:
            raise KeyboardInterrupt  # the "kill" lands after checkpointing

    with pytest.raises(KeyboardInterrupt):
        execute_points(points, cache=cache, on_result=die_after)
    assert len(cache) == completed_before_kill

    resumed_cache = ResultCache(tmp_path / "c")
    statuses = []
    resumed = execute_points(points, cache=resumed_cache,
                             on_result=lambda o: statuses.append(o.status))
    assert statuses.count("cached") == completed_before_kill
    assert statuses.count("computed") == len(points) - completed_before_kill
    assert resumed_cache.hits == completed_before_kill

    # resumed == serial == process, byte for byte
    serial = execute_points(points)
    process = execute_points(points, jobs=2,
                             cache=ResultCache(tmp_path / "p"))
    for a, b, c in zip(serial, resumed, process):
        assert canonical_record_json(a) == canonical_record_json(b)
        assert canonical_record_json(a) == canonical_record_json(c)


def test_cache_checkpoint_happens_before_failure_surfaces(tmp_path, monkeypatch):
    """Quarantine is complete-then-raise: every good point is cached and
    labelled before PlanExecutionError surfaces, so the rerun only
    recomputes the quarantined point."""
    points = tiny_points(loads=(0.1, 0.2, 0.3))
    import repro.runplan.runner as runner_mod

    real = runner_mod.execute_point
    bad_key = points[1].key()

    def sabotaged(point):
        if point.key() == bad_key:
            raise RuntimeError("sabotaged point")
        return real(point)

    monkeypatch.setattr(runner_mod, "execute_point", sabotaged)
    cache = ResultCache(tmp_path / "c")
    with pytest.raises(PlanExecutionError) as ei:
        execute_points(points, cache=cache)
    assert len(cache) == len(points) - 1  # everything else checkpointed
    (err,) = ei.value.errors
    assert err.key == bad_key and err.error == "RuntimeError"
    assert err.index == 1  # plan index, not submission order

    # errors="skip" drops the quarantined slot instead of raising
    skipped = execute_points(points, cache=ResultCache(tmp_path / "s"),
                             errors="skip")
    assert len(skipped) == len(points) - 1

    # with the saboteur gone, the rerun replays the good points and only
    # computes the one that was quarantined
    monkeypatch.setattr(runner_mod, "execute_point", real)
    cache2 = ResultCache(tmp_path / "c")
    full = execute_points(points, cache=cache2)
    assert cache2.hits == len(points) - 1 and cache2.misses == 1
    assert [canonical_record_json(r) for r in full] == [
        canonical_record_json(r) for r in execute_points(points)]


def test_on_result_reports_progress_counters(tmp_path):
    points = tiny_points(loads=(0.1, 0.2))
    outcomes = []
    execute_points(points, cache=ResultCache(tmp_path / "c"),
                   on_result=outcomes.append)
    assert [o.completed for o in outcomes] == [1, 2]
    assert all(o.total == 2 for o in outcomes)
    assert {o.status for o in outcomes} == {"computed"}
    assert all(o.record is not None and o.error is None for o in outcomes)
    assert all(o.point.key() for o in outcomes)


def test_plan_execution_error_message_and_describe():
    err = PointError(index=4, attempts=3, error="ValueError",
                     message="boom", key="abc123")
    exc = PlanExecutionError([err])
    assert "1 of the plan's points failed" in str(exc)
    assert "ValueError" in str(exc) and "boom" in str(exc)
    d = err.describe()
    assert d == {"index": 4, "key": "abc123", "error": "ValueError",
                 "message": "boom", "attempts": 3, "worker_death": False}


def test_an_all_hit_library_replay_writes_nothing(tmp_path):
    """Replaying cached plans through ``execute`` opens entries and
    nothing else: every path under the cache root keeps its inode and
    mtime, no sidecar and no temp file appear."""
    root = tmp_path / "c"
    small = RunSpec(config=paper_vct_config(h=2, routing="minimal", seed=3),
                    pattern="uniform", loads=(0.1,), warmup=WARMUP,
                    measure=MEASURE)
    large = small.with_(loads=(0.2, 0.3, 0.4))
    first = [execute(spec, cache=root) for spec in (small, large)]

    def snapshot():
        return {path: (path.stat().st_ino, path.stat().st_mtime_ns)
                for path in root.rglob("*")}

    before = snapshot()
    for _ in range(2):  # alternate plan sizes: 1/0 then 3/0 hits/misses
        assert [execute(spec, cache=root) for spec in (small, large)] == first
    assert snapshot() == before
    assert not list(root.rglob("*.tmp"))
    assert not (root / ResultCache.RUN_STATS_NAME).exists()


# ------------------------------------------------------------- cache pruning
def test_prune_requires_a_criterion(tmp_path):
    with pytest.raises(ValueError, match="refusing to prune"):
        ResultCache(tmp_path).prune()


def test_prune_by_age_spares_young_entries(tmp_path):
    points = tiny_points(loads=(0.1, 0.2))
    cache = ResultCache(tmp_path / "c")
    execute_points(points, cache=cache)
    now = max(p.stat().st_mtime for _, p in cache.iter_entries())
    summary = cache.prune(older_than=3600, now=now)
    assert summary["removed"] == 0 and summary["kept"] == 2
    summary = cache.prune(older_than=0, now=now + 10, dry_run=True)
    assert summary["removed"] == 2 and len(cache) == 2  # dry run: intact
    summary = cache.prune(older_than=0, now=now + 10)
    assert summary["removed"] == 2 and len(cache) == 0


def test_prune_keep_keys_protects_live_plan(tmp_path):
    from repro.runplan import plan_keys

    live = tiny_points(loads=(0.1, 0.2))
    stale = tiny_points(loads=(0.3, 0.4), seed=9)
    cache = ResultCache(tmp_path / "c")
    execute_points(live + stale, cache=cache)
    summary = cache.prune(older_than=0, keep=plan_keys(live),
                          now=os.path.getmtime(
                              next(cache.iter_entries())[1]) + 10)
    assert summary["protected"] == 2 and summary["removed"] == 2
    # prune-safety: every live-plan point is still a hit
    cache2 = ResultCache(tmp_path / "c")
    execute_points(live, cache=cache2)
    assert cache2.hits == 2 and cache2.misses == 0
