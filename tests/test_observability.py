"""Observability: MetricsHub, the escape-ring counters, auto steady state.

The two contracts under test:

* **free when not attached / invisible when attached** — no hub, no
  cost (the hot path stays on the fast-forward path); with a hub, the
  simulated records are byte-identical to an uninstrumented run;
* **deterministic** — series and JSONL records depend only on the
  config/seed, never on wall clock, executor or attach bookkeeping.
"""

import json
import math
from pathlib import Path

import pytest

import repro
from repro import MetricsHub, SimConfig
from repro.facade import Session, run_transient, session
from repro.metrics.hub import jsonl_line
from repro.metrics.statistics import recovery_time
from repro.network.simulator import Simulator
from repro.topology.base import PortKind
from repro.traffic.patterns import UniformRandom, pattern_by_name
from repro.traffic.processes import BernoulliTraffic, BurstTraffic

GOLDENS = Path(__file__).parent / "data" / "engine_goldens.json"


def _sim(routing="olm", load=0.4, seed=7, pattern="uniform", cls=Simulator,
         **over):
    cfg = SimConfig(h=2, routing=routing, seed=seed, **over)
    sim = cls(cfg)
    sim.traffic = BernoulliTraffic(pattern_by_name(pattern, sim.topo), load)
    return sim


# ---------------------------------------------------------- escape ring
def _is_ring_hop(hop):
    kind, _, vc = hop
    return (kind, vc) in ((int(PortKind.LOCAL), 3), (int(PortKind.GLOBAL), 2))


def test_ring_counters_count_escape_vc_head_hops_in_the_hop_logs():
    sim = _sim(routing="ofar", load=0.5, pattern="advg+1", record_hops=True)
    logs = []
    sim.add_delivery_observer(lambda pkt, cycle: logs.append(pkt.hops_log))
    sim.run(1200)
    sim.traffic = None
    sim.run_until_drained(50_000)
    assert len(logs) == sim.delivered
    hops = entries = 0
    for log in logs:
        on_ring = False
        for hop in log:
            ring = _is_ring_hop(hop)
            hops += ring
            entries += ring and not on_ring
            if hop[0] != int(PortKind.EJECT):
                on_ring = ring
    assert sim.algo.ring_hops == hops > sim.algo.ring_entries == entries > 0


def test_ring_entries_of_a_window_do_not_depend_on_the_hub_history():
    """A hub reset at the window's open and one attached there agree:
    an entry is a fact about the hop, not about what the hub saw."""
    sim = _sim(routing="ofar", load=0.3, pattern="advg+1", seed=1)
    old = MetricsHub(sim, bucket=250)
    sim.run(1000)
    old.reset()
    fresh = MetricsHub(sim, bucket=250)
    sim.run(1000)
    assert old.ring_entries == fresh.ring_entries > 0
    assert old.ring_hops == fresh.ring_hops > old.ring_entries
    assert old.summary_row() == fresh.summary_row()


def test_taps_do_not_change_simulated_records():
    """Acceptance: with a hub attached, delivery records are unchanged."""
    def run(with_hub):
        sim = _sim(seed=13)
        hub = MetricsHub(sim, bucket=100) if with_hub else None
        sim.run(1500)
        return sim.ledger(), hub

    bare, _ = run(False)
    tapped, hub = run(True)
    assert bare == tapped
    assert hub.delivered == tapped.delivered
    assert hub.injected == tapped.generated


def test_golden_record_unchanged_with_hub_attached():
    """The pinned seed-engine goldens survive instrumentation, byte for byte."""
    from repro.facade import point_record
    from repro.runplan import canonical_record_json

    entry = next(e for e in json.loads(GOLDENS.read_text())["entries"]
                 if e["kind"] == "point")
    cfg = SimConfig.from_dict(entry["config"])
    s = Session(sim=Simulator(cfg))
    MetricsHub(s.sim, bucket=250)
    result = (s.bernoulli(entry["pattern"], entry["load"])
              .warmup(entry["warmup"]).measure(entry["measure"]))
    record = point_record(result, cfg, pattern=entry["pattern"],
                          load=entry["load"])
    assert canonical_record_json(record) == entry["record"]


# ------------------------------------------------------------------- the hub
def test_hub_series_totals_match_the_ledger():
    sim = _sim(seed=9)
    hub = MetricsHub(sim, bucket=300)
    sim.run(3000)
    s = hub.series()
    assert len(s["throughput"]) == 10
    # deliveries are stamped at tail-ejection *completion* (t + size), so
    # packets completing just past the window end fall into the next
    # bucket: series totals trail the ledger by at most one in-flight
    # serialization worth of packets
    spill = sim.delivered - sum(s["delivered"])
    assert 0 <= spill <= sim.topo.num_nodes
    assert sum(b * 72 * 300 for b in s["throughput"]) == pytest.approx(
        (sim.delivered - spill) * sim.config.packet_phits)
    assert sum(s["injected"]) == sim.ledger().generated
    # percentile series present and ordered where the bucket delivered
    for p50, p99, mx in zip(s["latency_p50"], s["latency_p99"], s["latency_max"]):
        if not math.isnan(p50):
            assert p50 <= p99 <= mx


def test_hub_occupancy_tracks_credit_ledger():
    sim = _sim(seed=3)
    hub = MetricsHub(sim, bucket=250)
    sim.run(1500)
    # the hub ledger must equal the engine's credit view at any instant
    expected = {}
    for router in sim.routers:
        for out in router.outputs:
            if out.kind is PortKind.EJECT:
                continue
            for vc, credits in enumerate(out.credits):
                key = (int(out.kind), vc)
                expected[key] = expected.get(key, 0) + (out.capacity - credits)
    assert hub._sample()[1] == expected
    assert hub._marks[-1][1] == expected  # cycle 1500 is a boundary
    assert all(v >= 0 for v in expected.values())


def test_hub_buckets_fill_fast_forward_gaps_with_zeros():
    """Series length == elapsed/bucket even when the engine skipped cycles."""
    cfg = SimConfig(h=2, routing="olm", seed=5)
    sim = Simulator(cfg)
    pattern = pattern_by_name("uniform", sim.topo)
    sim.traffic = BurstTraffic(pattern, 2)
    hub = MetricsHub(sim, bucket=100)
    sim.run_until_drained(100_000)
    sim.run(1000)  # pure idle tail: fast-forwarded, event-free
    series = hub.series()["throughput"]
    assert len(series) == (sim.now - hub.start_cycle) // 100
    assert series[-1] == 0.0 and series[-5] == 0.0


def test_an_idle_jump_takes_one_sample_for_every_boundary_it_crosses():
    """The boundaries one fast-forward jump crosses read the same state,
    so the hub samples it once per jump, not once per boundary."""
    sim = Simulator(SimConfig(h=2, routing="olm", seed=5))
    sim.traffic = BurstTraffic(pattern_by_name("uniform", sim.topo), 2)
    sim.run_until_drained(100_000)
    hub = MetricsHub(sim, bucket=100)
    sampled = []
    occupancy = sim.vc_occupancy
    sim.vc_occupancy = lambda: sampled.append(sim.now) or occupancy()
    for _ in range(3):
        sim.run(1000)  # pure idle: one jump across 10 boundaries each
    assert sampled == [hub.start_cycle + 1000, hub.start_cycle + 2000,
                       hub.start_cycle + 3000]
    assert hub.series()["delivered"] == [0] * 30


def test_hub_jsonl_deterministic_and_strict(tmp_path):
    def produce(path):
        sim = _sim(seed=21)
        hub = MetricsHub(sim, bucket=200)
        sim.run(1200)
        return hub.write_jsonl(path, meta={"label": "x"})

    a = produce(tmp_path / "a.jsonl").read_bytes()
    b = produce(tmp_path / "b.jsonl").read_bytes()
    assert a == b  # byte-identical across runs
    rows = [json.loads(line) for line in a.decode().splitlines()]
    assert rows[0]["type"] == "meta" and rows[0]["label"] == "x"
    assert rows[-1]["type"] == "summary"
    assert all(r["type"] == "bucket" for r in rows[1:-1])
    json.loads(a.decode().splitlines()[1], parse_constant=pytest.fail)  # strict


def test_hub_reset_restarts_window_keeps_physical_occupancy():
    sim = _sim(seed=2)
    hub = MetricsHub(sim, bucket=200)
    sim.run(1000)
    occ = hub._sample()[1]
    hub.reset()
    assert hub.delivered == 0 and hub.injected == 0 and hub._buckets == []
    assert hub.start_cycle == sim.now
    sim.run(200)
    assert hub.completed_buckets()[0].occupancy == occ


def test_hub_inflight_samples_are_the_engine_level_at_each_boundary():
    """Little's-law samples: ``packets_in_flight`` at each bucket's open
    cycle, read here by stepping cycle by cycle.  The event-fed hub
    sampled it when a delivery stamped ahead opened the bucket and
    missed the ejections granted after that."""
    from tapped_hub import TappedHub, TappedSimulator

    sim = _sim(seed=11, load=0.5, cls=TappedSimulator)
    sim.run(300)
    hub, oracle = MetricsHub(sim, bucket=7), TappedHub(sim, bucket=7)
    levels = [sim.packets_in_flight]
    for _ in range(7 * 40):
        sim.step()
        if (sim.now - hub.start_cycle) % 7 == 0:
            levels.append(sim.packets_in_flight)
    assert [b.inflight for b in hub.completed_buckets()] == levels[:-1]
    assert [b.inflight for b in oracle.completed_buckets()] != levels[:-1]


@pytest.mark.parametrize("routing", ["minimal", "olm"])
def test_a_hub_on_the_reference_engine_writes_the_wheels_rows(routing):
    """The frozen reference engine keeps the counters a hub samples and
    fires its samplers, so a point measures the same way on every
    engine: its rows are the wheel's, byte for byte."""
    from repro.network.simulator import build_simulator

    def rows(engine):
        sim = build_simulator(SimConfig(h=2, routing=routing, seed=8,
                                        engine=engine),
                              BernoulliTraffic(UniformRandom(), 0.4))
        sim.run(150)
        hub = MetricsHub(sim, bucket=40)
        sim.run(330)
        assert hub.grants and hub.credit_phits
        return [jsonl_line(row) for row in hub.records()]

    assert rows("reference") == rows("wheel")


# ------------------------------------------------------- fast-forward
def test_attached_hub_does_not_suppress_fast_forward():
    """Regression: the polling-era probe disabled idle fast-forward by
    stepping cycle-by-cycle; the event-driven hub must not."""
    cfg = SimConfig(h=2, routing="olm", seed=5)

    def drain_steps(attach_probe):
        sim = Simulator(cfg)
        sim.traffic = BurstTraffic(pattern_by_name("uniform", sim.topo), 3)
        if attach_probe:
            MetricsHub(sim, bucket=100)
        steps = 0
        orig = sim.step

        def counting():
            nonlocal steps
            steps += 1
            orig()

        sim.step = counting  # type: ignore[method-assign]
        drained = sim.run_until_drained(100_000)
        return steps, drained

    bare_steps, bare_drained = drain_steps(False)
    probed_steps, probed_drained = drain_steps(True)
    assert probed_drained == bare_drained  # identical simulation
    assert probed_steps == bare_steps < bare_drained  # gaps still skipped


# ------------------------------------------------------- auto steady state
def test_warmup_until_steady_detects_and_resets():
    s = session(SimConfig(h=2, routing="olm", seed=6),
                pattern="uniform", load=0.3)
    s.warmup_until_steady(bucket=250, max_cycles=20_000)
    info = s.auto_warmup
    assert info["steady"] is True
    assert 0 < info["cycles"] < 20_000
    assert info["cycles"] % 250 == 0
    assert info["steady_throughput"] == pytest.approx(0.3, rel=0.15)
    assert s.measure(0).start_cycle == s.now  # window reset


def test_warmup_until_steady_zero_load_short_circuits():
    s = session(SimConfig(h=2, routing="minimal", seed=1),
                pattern="uniform", load=0.0)
    s.warmup_until_steady(bucket=100, window=5, max_cycles=50_000)
    assert s.auto_warmup["steady"] is True
    assert s.auto_warmup["cycles"] == 500  # window * bucket, all-zero rule


def test_warmup_until_steady_respects_cap():
    s = session(SimConfig(h=2, routing="minimal", seed=1),
                pattern="uniform", load=0.2)
    s.warmup_until_steady(bucket=300, window=50, max_cycles=1000)
    assert s.auto_warmup["steady"] is False
    assert s.auto_warmup["cycles"] == 1000
    with pytest.raises(ValueError, match="bucket"):
        s.warmup_until_steady(bucket=0)


def test_measure_series_pairs_result_and_series():
    s = session(SimConfig(h=2, routing="rlm", seed=8),
                pattern="advg+1", load=0.2, bucket=500).warmup(1000)
    sr = s.measure_series(2000)
    assert sr.result.kind == "measure"
    assert sr.result.window_cycles == 2000
    assert len(sr.series["throughput"]) == 4
    assert 0 <= sr.result.delivered - sum(sr.series["delivered"]) <= 72
    assert sr.records[0]["type"] == "meta"
    assert sr.records[-1]["type"] == "summary"
    # the series is a snapshot: later runs don't grow it
    s.run(1000)
    assert len(sr.series["throughput"]) == 4
    # records are JSONL-encodable (strict)
    for row in sr.records:
        jsonl_line(row)


def test_hub_verify_flow_conservation_holds():
    sim = Simulator(SimConfig(h=2, routing="olm", seed=4),
                    BernoulliTraffic(UniformRandom(), 0.3))
    sim.run(700)  # attach mid-flight: the window baseline is non-zero
    hub = MetricsHub(sim, bucket=100)
    assert hub._inflight_at_window_start == sim.packets_in_flight
    sim.run(1500)
    report = hub.verify()
    assert report["ok"], report
    assert report["in_flight"] == (report["in_flight_at_window_start"]
                                   + report["injected"] - report["delivered"])
    assert report["injected"] > 0 and report["delivered"] > 0


def test_hub_verify_detects_imbalance():
    sim = Simulator(SimConfig(h=2, routing="olm", seed=4),
                    BernoulliTraffic(UniformRandom(), 0.3))
    hub = MetricsHub(sim, bucket=100)
    sim.run(800)
    sim._next_pid += 1  # an injection counted but never queued: a lost packet
    report = hub.verify()
    assert not report["ok"]
    assert report["expected_in_flight"] == report["in_flight"] + 1


def test_measure_series_emit_streams_the_exact_records():
    """Rows pushed live through ``emit`` == the batch records, in order,
    and the result carries the window's conservation report."""
    def run(emit):
        s = session(SimConfig(h=2, routing="olm", seed=6),
                    pattern="uniform", load=0.25, bucket=250).warmup(600)
        return s.measure_series(1000, emit=emit, meta={"tag": "live"})

    streamed: list[dict] = []
    sr = run(streamed.append)
    assert streamed == list(sr.records)
    assert streamed[0]["tag"] == "live"
    assert [r["type"] for r in streamed] == ["meta"] + ["bucket"] * 4 + ["summary"]
    assert sr.verify is not None and sr.verify["ok"]
    # emit raising aborts the window (the serve layer cancels this way)
    def bomb(row):
        raise RuntimeError("cancelled")
    with pytest.raises(RuntimeError, match="cancelled"):
        run(bomb)


def test_session_latency_recorder_is_its_hub():
    s = session(SimConfig(h=2, routing="minimal", seed=3),
                pattern="uniform", load=0.2)
    assert isinstance(s.hub, MetricsHub)
    result = s.warmup(500).measure(500)
    assert result.latency_p50 <= result.latency_p99
    assert result.max_latency == max(s.hub.latencies())


# ------------------------------------------------------------ recovery rule
def test_recovery_time_rule():
    base = 0.3
    series = [0.8, 0.6, 0.45, 0.31, 0.30, 0.29, 0.30]
    assert recovery_time(series, base, bucket=100, hold=3) == 300
    assert recovery_time([0.8] * 5, base, bucket=100) is None
    assert recovery_time([0.0, 0.0, 0.0], 0.0, bucket=50, hold=2) == 0
    with pytest.raises(ValueError):
        recovery_time(series, base, bucket=100, hold=0)


def test_run_transient_record_shape():
    cfg = repro.SimConfig(h=2, routing="olm", seed=3)
    rec = run_transient(cfg, "uniform", 0.3, 8, warmup=10_000, measure=3000,
                        bucket=250)
    assert rec["kind"] == "transient"
    assert rec["warmup_steady"] is True
    assert rec["recovered"] is True
    assert 0 <= rec["recovery_cycles"] <= 3000
    assert rec["baseline_throughput"] == pytest.approx(0.3, rel=0.2)
    assert len(rec["throughput_series"]) == 12
    # the step is visible: the first bucket outruns the baseline
    assert rec["throughput_series"][0] > rec["baseline_throughput"] * 1.2


# ------------------------------------ auto-warmup reproduces a paper figure
def test_auto_warmup_reproduces_fig5a_shape():
    """Acceptance: warmup_until_steady() reproduces an existing figure.

    Fig 5a (UN/VCT accepted-vs-offered) at smoke scale, with every
    point's warm-up auto-detected instead of the blind scale preset;
    the figure's registered shape checks must still pass.
    """
    from repro.experiments.figures import VCT_UN_MECHS
    from repro.experiments.presets import get_scale, preset_config
    from repro.experiments.verify import check_vct_uniform
    from repro.runplan import RunSpec, execute, series_map

    scale = get_scale("smoke")
    specs = [
        RunSpec(config=preset_config("vct", scale=scale, routing=mech, seed=1),
                pattern="uniform", loads=scale.loads_uniform,
                warmup=4 * scale.warmup, measure=scale.measure,
                steady=True, series=mech)
        for mech in VCT_UN_MECHS
    ]
    records = execute(specs)
    # at mid load the rule fires well before the cap (low-load buckets
    # are too noisy for the 5% band, where the cap applies instead)
    assert all(rec["warmup_steady"] for rec in records if rec["load"] == 0.5)
    assert all(rec["warmup_cycles"] <= 4 * scale.warmup for rec in records)
    result = {"series": series_map(records, VCT_UN_MECHS)}
    claims = check_vct_uniform(result)
    assert all(c.ok for c in claims), [c.check for c in claims if not c.ok]
