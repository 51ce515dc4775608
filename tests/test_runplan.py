"""Run-plan subsystem: specs, scheduling, caching, replica aggregation.

The determinism contract is the headline: the same plan produces
byte-identical records (canonical JSON) run inline, on a process pool
and from a cache replay.
"""

import json
import math
import os

import pytest

from repro.metrics.statistics import mean_ci, t_quantile_975
from repro.network.config import SimConfig, paper_vct_config
from repro.runplan import (
    ResultCache,
    RunPoint,
    RunSpec,
    aggregate_replicas,
    canonical_record_json,
    execute,
    execute_points,
    expand_specs,
    replica_seeds,
    series_map,
)

WARMUP = MEASURE = 250


def tiny_spec(routing="minimal", seed=3, loads=(0.1, 0.2), seeds=1, **kw):
    return RunSpec(config=paper_vct_config(h=2, routing=routing, seed=seed),
                   pattern="uniform", loads=loads, warmup=WARMUP,
                   measure=MEASURE, seeds=replica_seeds(seed, seeds), **kw)


# ---------------------------------------------------------------- spec layer
def test_runspec_expands_loads_times_seeds():
    spec = tiny_spec(loads=(0.1, 0.2, 0.3), seeds=2, series="minimal")
    points = spec.expand()
    assert len(points) == 6
    assert sorted({p.config.seed for p in points}) == [3, 4]
    assert {p.load for p in points} == {0.1, 0.2, 0.3}
    assert all(p.series == "minimal" and p.kind == "steady" for p in points)


def test_drain_spec_expands_per_seed():
    spec = RunSpec(config=SimConfig(h=2, routing="olm"), pattern="mixed:50",
                   kind="drain", packets_per_node=4, max_cycles=10_000,
                   seeds=(1, 2, 3))
    points = spec.expand()
    assert len(points) == 3
    assert all(p.kind == "drain" and p.packets_per_node == 4 for p in points)


def test_runpoint_validation():
    cfg = SimConfig(h=2)
    with pytest.raises(ValueError, match="offered load"):
        RunPoint(config=cfg, pattern="uniform")
    with pytest.raises(ValueError, match="packets_per_node"):
        RunPoint(config=cfg, pattern="uniform", kind="drain")
    with pytest.raises(ValueError, match="kind"):
        RunPoint(config=cfg, pattern="uniform", kind="warp", load=0.1)


def test_point_key_content_addressed():
    a = tiny_spec().expand()[0]
    b = tiny_spec().expand()[0]
    assert a.key() == b.key()  # equal content, equal address
    c = tiny_spec(seed=4).expand()[0]
    d = tiny_spec(loads=(0.15, 0.2)).expand()[0]
    assert len({a.key(), c.key(), d.key()}) == 3
    # display labels are not content: relabelled plans share cache keys
    e = tiny_spec(series="fig4a", coords=(("threshold", 0.3),)).expand()[0]
    assert e.key() == a.key()


def test_cache_shared_across_labels(tmp_path):
    cache = ResultCache(tmp_path / "c")
    labelled = execute(tiny_spec(loads=(0.1,), series="olm-curve",
                                 coords=(("threshold", 0.45),)),
                       cache=cache, aggregate=False)
    assert labelled[0]["series"] == "olm-curve"
    assert labelled[0]["threshold"] == 0.45
    bare = execute(tiny_spec(loads=(0.1,)), cache=cache, aggregate=False)
    assert cache.hits == 1  # same measurement, different labels: replayed
    assert "series" not in bare[0] and "threshold" not in bare[0]
    assert bare[0]["throughput"] == labelled[0]["throughput"]


def test_config_canonical_hash_stable_and_sensitive():
    cfg = SimConfig(h=2, routing="olm")
    assert cfg.content_hash() == SimConfig(h=2, routing="olm").content_hash()
    assert cfg.content_hash() != cfg.with_(seed=9).content_hash()
    # canonical encoding is key-sorted, so dict order can't leak in
    rt = SimConfig.from_dict(json.loads(cfg.canonical_json()))
    assert rt.content_hash() == cfg.content_hash()


def test_replica_seeds():
    assert replica_seeds(5, 3) == (5, 6, 7)
    with pytest.raises(ValueError):
        replica_seeds(5, 0)


def test_transient_spec_expands_loads_times_seeds():
    spec = RunSpec(config=SimConfig(h=2, routing="olm"), pattern="uniform",
                   kind="transient", loads=(0.3,), warmup=5000, measure=2000,
                   packets_per_node=8, bucket=250, seeds=(1, 2),
                   coords=(("burst", 8),))
    points = spec.expand()
    assert len(points) == 2
    assert all(p.kind == "transient" and p.bucket == 250 and p.load == 0.3
               for p in points)
    with pytest.raises(ValueError, match="offered load"):
        RunPoint(config=SimConfig(h=2), pattern="uniform", kind="transient",
                 packets_per_node=8)
    with pytest.raises(ValueError, match="packets_per_node"):
        RunPoint(config=SimConfig(h=2), pattern="uniform", kind="transient",
                 load=0.3)


def test_steady_flag_is_part_of_the_cache_key():
    base = tiny_spec(loads=(0.1,)).expand()[0]
    auto = tiny_spec(loads=(0.1,), steady=True).expand()[0]
    assert base.key() != auto.key()  # different warm-up rule, different record


#: literal cache addresses: a change to ``SimConfig.to_dict``, to
#: ``RunPoint.describe`` or to the key encoding that moves any of these
#: would silently orphan every existing cache (bump
#: ``POINT_SCHEMA_VERSION`` and re-pin on purpose instead)
PINNED_KEYS = {
    "steady": (
        RunPoint(config=SimConfig(h=2, routing="olm", seed=3),
                 pattern="uniform", load=0.3, warmup=200, measure=400),
        "ef5f1b80bac37e8c2d50f79c3d319c8d33d4c898a3d0b77de0e6bc189e4e3f1c"),
    "drain": (
        RunPoint(config=SimConfig(h=2, routing="minimal", flow_control="wh",
                                  packet_phits=80),
                 pattern="adversarial", kind="drain", packets_per_node=4,
                 max_cycles=20000),
        "27f0964c45a3046317d56d64c16719d9023718d18488515beea562ed1ddaaf5e"),
    "transient": (
        RunPoint(config=SimConfig(h=2, routing="rlm"), pattern="uniform",
                 kind="transient", load=0.2, warmup=300, measure=600,
                 packets_per_node=2, bucket=50),
        "b06ed8857237521690f11f45c15f0b521fb0cf3b3b1364d4f5a64e620469eae5"),
    "pb-period-auto": (
        RunPoint(config=SimConfig(h=2, routing="pb", local_latency=20),
                 pattern="uniform", load=0.1, warmup=100, measure=100),
        "0130b441d056d40e60700f85bd69974946a18ea99a633ed797f8abcad2970380"),
    "pb-period-explicit": (
        RunPoint(config=SimConfig(h=2, routing="pb", local_latency=20,
                                  pb_update_period=20),
                 pattern="uniform", load=0.1, warmup=100, measure=100),
        "c37202837b6b43724a1629ddee528f5b4a53cdfed08825fafea05404530d9498"),
}


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_point_key_digests_are_pinned(name):
    point, digest = PINNED_KEYS[name]
    assert point.key() == digest


# ------------------------------------------------------------- determinism
def test_serial_process_and_cache_replay_identical(tmp_path):
    """The satellite contract: serial == process == cache replay, byte-wise."""
    spec = tiny_spec(seeds=2)
    serial = execute(spec, aggregate=False)
    parallel = execute(spec, jobs=2, aggregate=False)
    cache_dir = tmp_path / "runcache"
    first = execute(spec, cache=cache_dir, aggregate=False)
    replay = execute(spec, cache=cache_dir, aggregate=False)
    blobs = [[canonical_record_json(r) for r in records]
             for records in (serial, parallel, first, replay)]
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]


def test_transient_series_identical_across_executors_and_cache(tmp_path):
    """Observability determinism (satellite): the transient records —
    including their embedded time series — are byte-identical run
    inline, on the process pool and from a cache replay."""
    spec = RunSpec(config=paper_vct_config(h=2, routing="olm", seed=5),
                   pattern="uniform", kind="transient", loads=(0.3,),
                   warmup=8000, measure=2000, packets_per_node=6, bucket=250,
                   seeds=(5, 6), series="olm")
    serial = execute(spec, aggregate=False)
    parallel = execute(spec, jobs=2, aggregate=False)
    cache_dir = tmp_path / "c"
    first = execute(spec, cache=cache_dir, aggregate=False)
    replay = execute(spec, cache=cache_dir, aggregate=False)
    blobs = [[canonical_record_json(r) for r in records]
             for records in (serial, parallel, first, replay)]
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    assert len(serial[0]["throughput_series"]) == 2000 // 250
    # multi-seed aggregation: recovery_cycles gets mean ± CI, the
    # per-seed series (seed-specific lists) are dropped from the merge
    agg = execute(spec, cache=cache_dir)
    assert len(agg) == 1
    assert agg[0]["replicas"] == 2 and "recovery_cycles_ci" in agg[0]
    assert "throughput_series" not in agg[0]


def test_steady_points_identical_across_executors():
    spec = tiny_spec(loads=(0.2, 0.4), steady=True)
    serial = execute(spec, aggregate=False)
    parallel = execute(spec, jobs=2, aggregate=False)
    assert ([canonical_record_json(r) for r in serial]
            == [canonical_record_json(r) for r in parallel])
    assert all("warmup_cycles" in r and "warmup_steady" in r for r in serial)


def test_cache_replay_skips_execution(tmp_path):
    class Exploding:
        def run(self, fn, items):
            raise AssertionError("cache should have satisfied every point")

    spec = tiny_spec()
    cache = ResultCache(tmp_path / "c")
    execute(spec, cache=cache, aggregate=False)
    assert len(cache) == len(spec.expand())
    replay = execute(spec, scheduler=Exploding(), cache=cache, aggregate=False)
    assert [r["load"] for r in replay] == [0.1, 0.2]
    assert cache.stats()["hits"] == len(spec.expand())


def test_cache_partial_hit_mixes_replay_and_fresh(tmp_path):
    cache = ResultCache(tmp_path / "c")
    execute(tiny_spec(loads=(0.1,)), cache=cache, aggregate=False)
    records = execute(tiny_spec(loads=(0.1, 0.2)), cache=cache, aggregate=False)
    assert [r["load"] for r in records] == [0.1, 0.2]
    assert cache.hits == 1 and len(cache) == 2


def worker_pid(point):
    """Module-level (picklable) worker: which process ran this point?"""
    return {"pid": os.getpid()}


def test_jobs_means_a_pool_on_any_host():
    """``jobs=2`` over two points really leaves this process — on a
    1-CPU host too (no machine-sized default can shrink the pool to an
    inline run)."""
    from repro.runplan.runner import iter_outcomes

    points = tiny_spec().expand()
    inline = [o.record["pid"] for o in iter_outcomes(points, worker_pid)]
    pooled = [o.record["pid"] for o in iter_outcomes(points, worker_pid, jobs=2)]
    assert set(inline) == {os.getpid()}
    assert len(pooled) == 2 and os.getpid() not in pooled


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_an_error_naming_the_value(jobs, tmp_path):
    """``jobs`` < 1 is an actionable error, never a silent inline run —
    even when a warm cache leaves nothing to schedule."""
    spec = tiny_spec(loads=(0.1,))
    with pytest.raises(ValueError, match=f"jobs must be >= 1.*got {jobs}"):
        execute(spec, jobs=jobs)
    execute(spec, cache=tmp_path)
    with pytest.raises(ValueError, match=f"got {jobs}"):
        execute_points(spec.expand(), jobs=jobs, cache=tmp_path)


def test_jobs_and_a_scheduler_instance_do_not_combine():
    """One pool size, one spelling: a scheduler instance brings its own
    parallelism, so ``jobs=2`` next to it is an error, not a warning."""
    from repro.runplan import SerialScheduler

    spec = tiny_spec(loads=(0.1,))
    with pytest.raises(ValueError, match="not both"):
        execute(spec, jobs=2, scheduler=SerialScheduler())
    assert len(execute(spec, jobs=1, scheduler=SerialScheduler())) == 1


# -------------------------------------------------------------- aggregation
def test_mean_ci_values():
    mean, half = mean_ci([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert half == pytest.approx(t_quantile_975(2) * 1.0 / math.sqrt(3))
    assert mean_ci([4.2]) == (4.2, 0.0)
    assert all(math.isnan(v) for v in mean_ci([1.0, math.nan]))
    with pytest.raises(ValueError):
        mean_ci([])


def test_aggregate_replicas_mean_and_ci():
    records = [
        {"routing": "olm", "pattern": "uniform", "load": 0.1,
         "throughput": t, "seed": s}
        for s, t in ((1, 0.10), (2, 0.12), (3, 0.14))
    ] + [
        {"routing": "olm", "pattern": "uniform", "load": 0.2,
         "throughput": 0.2, "seed": 1},
    ]
    agg = aggregate_replicas(records)
    assert len(agg) == 2
    first = agg[0]
    assert first["load"] == 0.1
    assert first["throughput"] == pytest.approx(0.12)
    assert first["throughput_ci"] > 0
    assert first["replicas"] == 3 and first["seeds"] == [1, 2, 3]
    assert agg[1]["throughput_ci"] == 0.0 and agg[1]["replicas"] == 1
    assert "seed" not in first


def test_multi_seed_execute_aggregates_by_default():
    spec = tiny_spec(loads=(0.1,), seeds=3)
    agg = execute(spec)
    assert len(agg) == 1
    rec = agg[0]
    assert rec["replicas"] == 3 and rec["seeds"] == [3, 4, 5]
    assert rec["throughput"] > 0 and rec["throughput_ci"] >= 0
    raws = execute(spec, aggregate=False)
    assert rec["throughput"] == pytest.approx(
        sum(r["throughput"] for r in raws) / 3)


# ------------------------------------------------------------ plumbing bits
def test_expand_specs_and_series_map():
    specs = [tiny_spec(routing=r, series=r, loads=(0.1,)) for r in ("minimal", "olm")]
    points = expand_specs(specs)
    assert [p.series for p in points] == ["minimal", "olm"]
    records = execute_points(points)
    grouped = series_map(records, ("minimal", "olm"))
    assert list(grouped) == ["minimal", "olm"]
    assert all(len(v) == 1 for v in grouped.values())


def test_drain_point_record_shape():
    point = RunPoint(config=paper_vct_config(h=2, routing="olm", seed=1),
                     pattern="mixed:50", kind="drain", packets_per_node=3,
                     max_cycles=500_000, coords=(("global_pct", 50),))
    rec = execute_points([point])[0]
    assert rec["kind"] == "drain"
    assert rec["drain_cycles"] > 0
    assert rec["delivered"] == 3 * 72  # h=2: 72 nodes
    assert rec["global_pct"] == 50 and rec["seed"] == 1


def test_figure_runner_multi_seed_reports_ci():
    from repro.experiments import run_experiment

    res = run_experiment("fig4a", scale="smoke", loads=(0.2,), seed=7, seeds=2)
    assert res["seeds"] == 2
    for pts in res["series"].values():
        assert len(pts) == 1
        assert pts[0]["replicas"] == 2 and pts[0]["seeds"] == [7, 8]
        assert "throughput_ci" in pts[0]
