"""Golden-record determinism: the timing-wheel engine vs. the seed engine.

``tests/data/engine_goldens.json`` holds canonical record JSON strings
captured from the seed (pre-timing-wheel) engine over a pinned matrix
of routing x pattern x load x VCT/WH steady-state points plus
burst-drain points (``tools/make_engine_goldens.py``).  The suite
asserts, byte for byte:

* the live engine reproduces every golden record (the tentpole
  contract of the PR-3 hot-path rewrite);
* the frozen :class:`ReferenceSimulator` reproduces a spot-check subset
  (so the benchmark baseline demonstrably still *is* the seed engine);
* the idle fast-forward machinery actually engaged on a drain scenario
  (the speedup is real, not a disabled code path).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.facade import Session, point_record
from repro.network.config import SimConfig
from repro.network.reference import ReferenceSimulator
from repro.network.simulator import Simulator, build_simulator
from repro.runplan import canonical_record_json
from repro.traffic.patterns import pattern_by_name
from repro.traffic.processes import BurstTraffic

GOLDENS = Path(__file__).parent / "data" / "engine_goldens.json"
ENTRIES = json.loads(GOLDENS.read_text())["entries"]


def _entry_id(entry: dict) -> str:
    cfg = entry["config"]
    topo = cfg.get("topology", "dragonfly")
    tail = (f"load{entry['load']}" if entry["kind"] == "point"
            else f"burst{entry['packets_per_node']}")
    parts = [topo, cfg["flow_control"], cfg["routing"], entry["pattern"], tail]
    if cfg.get("arbitration", "rr") != "rr":
        parts.append(cfg["arbitration"])
    if cfg.get("record_hops"):
        parts.append("hops")
    return "-".join(parts)


def replay(entry: dict, engine: str) -> dict:
    """One golden scenario through the Session workflow on ``engine``."""
    cfg = SimConfig.from_dict(entry["config"])
    s = Session(sim=build_simulator(cfg.with_(engine=engine)))
    if entry["kind"] == "point":
        result = (s.bernoulli(entry["pattern"], entry["load"])
                  .warmup(entry["warmup"]).measure(entry["measure"]))
        return point_record(result, cfg, pattern=entry["pattern"],
                            load=entry["load"])
    pattern = pattern_by_name(entry["pattern"], s.sim.topo)
    s.with_traffic(BurstTraffic(pattern, entry["packets_per_node"]))
    result = s.drain(entry["max_cycles"])
    return point_record(result, cfg, pattern=entry["pattern"],
                        packets_per_node=entry["packets_per_node"])


@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
def test_timing_wheel_engine_matches_seed_goldens(entry):
    assert canonical_record_json(replay(entry, "wheel")) == entry["record"]


# Spot-check the frozen baseline on a cheap cross-section (first/last
# steady-state points of each flow control plus every drain golden):
# if this drifts, BENCH_engine.json compares against nothing.
_SUBSET = [e for e in ENTRIES if e["kind"] == "drain"]
_SUBSET += [next(e for e in ENTRIES if e["config"]["flow_control"] == fc)
            for fc in ("vct", "wh")]


@pytest.mark.parametrize("entry", _SUBSET, ids=_entry_id)
def test_reference_simulator_is_still_the_seed_engine(entry):
    assert canonical_record_json(replay(entry, "reference")) == entry["record"]


# ``auto`` must be byte-identical on the FULL golden matrix, both ways
# its rule can send a point.  Pinned to the core, the minimal entries run
# on the array core (the selection table in tests/test_engine_selection.py
# pins that they really do); under the real rule the goldens' h=2 fabrics
# go to the wheel at the first step, through the undecided stand-in.
# Everything that is not minimal is a wheel run under another name.
@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
def test_auto_engine_matches_seed_goldens(entry):
    assert canonical_record_json(replay(entry, "auto")) == entry["record"]


@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
def test_auto_engine_pinned_to_the_core_matches_seed_goldens(
        entry, core_wins_everywhere):
    assert canonical_record_json(replay(entry, "auto")) == entry["record"]


def test_auto_engine_keeps_the_core_under_a_metrics_hub_with_the_same_bytes(
        core_wins_everywhere):
    """``engine="auto"`` picks per point, and a ``MetricsHub`` does not
    change the pick: a saturated minimal-routing point stays on the
    array core with a hub attached before its first step, and the
    record bytes — and the hub's own rows — are the wheel's."""
    from repro.metrics.hub import MetricsHub, jsonl_line

    cfg = SimConfig(h=2, routing="minimal", seed=11)

    def run(engine, hubbed):
        s = Session(sim=build_simulator(cfg.with_(engine=engine)))
        hub = MetricsHub(s.sim, bucket=100) if hubbed else None
        result = s.bernoulli("uniform", 0.9).warmup(200).measure(200)
        record = point_record(result, cfg, pattern="uniform", load=0.9)
        rows = None if hub is None else [jsonl_line(r) for r in hub.records()]
        return canonical_record_json(record), rows, s.sim.engine_path

    bare, _, path = run("auto", hubbed=False)
    assert path == "core"
    hubbed, rows, path = run("auto", hubbed=True)
    assert path == "core"
    assert hubbed == bare
    wheel, wheel_rows, path = run("wheel", hubbed=True)
    assert path == "wheel" and len(rows) == 6
    assert (wheel, wheel_rows) == (bare, rows)


def test_unknown_engine_fails_with_suggestion():
    with pytest.raises(ValueError, match="unknown engine.*did you mean 'auto'"):
        SimConfig(engine="aut")
    # the retired name is as unknown as a typo
    with pytest.raises(ValueError, match="unknown engine 'array'"):
        SimConfig(engine="array")


def test_engine_choice_does_not_change_point_identity():
    """Cache keys and canonical config JSON are engine-invariant.

    A point computed on the array core must hit the cache entry the
    wheel engine wrote (and vice versa); the engine is an execution
    choice, not a physics knob.
    """
    from repro.runplan.spec import RunPoint

    cfgs = [SimConfig(h=2, routing="minimal", engine=e)
            for e in ("wheel", "auto", "reference")]
    assert len({cfg.canonical_json() for cfg in cfgs}) == 1
    points = [RunPoint(config=cfg, pattern="uniform", load=0.4,
                       warmup=100, measure=100) for cfg in cfgs]
    assert len({p.key() for p in points}) == 1
    assert "engine" not in points[0].describe()["config"]
    # ...but the full to_dict round-trip keeps the field
    assert SimConfig.from_dict(cfgs[1].to_dict()).engine == "auto"


def test_fast_forward_engages_on_drain():
    """The drain goldens must exercise real idle-gap jumps, not 1-cycle steps."""
    entry = next(e for e in ENTRIES
                 if e["kind"] == "drain" and e["config"]["routing"] == "olm")
    cfg = SimConfig.from_dict(entry["config"])
    sim = Simulator(cfg)
    sim.traffic = BurstTraffic(pattern_by_name(entry["pattern"], sim.topo),
                               entry["packets_per_node"])
    steps = 0
    orig_step = sim.step

    def counting_step():
        nonlocal steps
        steps += 1
        orig_step()

    sim.step = counting_step  # type: ignore[method-assign]
    drained = sim.run_until_drained(entry["max_cycles"])
    assert steps < drained, (steps, drained)  # some cycles were skipped


def test_fast_forward_gated_off_for_per_cycle_routing():
    """Piggybacking broadcasts every cycle: the engine must not skip any."""
    sim = Simulator(SimConfig(h=2, routing="pb", seed=3))
    assert sim._per_cycle is not None
    assert sim._fast_forward_target(sim.now + 100) is None
    sim_min = Simulator(SimConfig(h=2, routing="minimal", seed=3))
    assert sim_min._per_cycle is None
    assert sim_min._fast_forward_target(sim_min.now + 100) == sim_min.now + 100


def test_fast_forward_follows_trace_injections():
    """A sparse trace must be replayed identically, gaps skipped or not."""
    from repro.traffic.extra import TraceReplay

    def run(sim_cls):
        cfg = SimConfig(h=2, routing="olm", seed=13, record_hops=True)
        sim = sim_cls(cfg)
        n = sim.topo.num_nodes
        records = [(i * 97, (i * 5) % n, (i * 11 + 3) % n) for i in range(40)]
        sim.traffic = TraceReplay([r for r in records if r[1] != r[2]])
        delivered = []
        sim.add_delivery_observer(lambda pkt, now: delivered.append(
            (pkt.pid, pkt.src, pkt.dst, pkt.birth, now, tuple(pkt.hops_log))))
        drained = sim.run_until_drained(100_000)
        return drained, delivered, sim.ledger()

    assert run(Simulator) == run(ReferenceSimulator)
