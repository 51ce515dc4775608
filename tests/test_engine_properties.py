"""Property-based engine tests: random configurations, fixed invariants."""

import pytest
from helpers import assert_core_ledgers, pin_core_wins
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facade import point_record, run_point, session
from repro.metrics.hub import MetricsHub
from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.runplan.cache import canonical_record_json
from repro.topology.fabric import clear_fabrics
from repro.traffic.patterns import (
    AdversarialGlobal,
    AdversarialLocal,
    UniformRandom,
    pattern_by_name,
)
from repro.traffic.processes import BernoulliTraffic, BurstTraffic

PATTERNS = [UniformRandom(), AdversarialGlobal(1), AdversarialLocal(1)]


@given(
    routing=st.sampled_from(["minimal", "valiant", "pb", "par62", "rlm", "olm", "ofar"]),
    pattern=st.sampled_from(PATTERNS),
    load=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**16),
    threshold=st.sampled_from([0.3, 0.45, 0.6]),
)
@settings(max_examples=12, deadline=None)
def test_random_vct_runs_conserve_packets(routing, pattern, load, seed, threshold):
    cfg = SimConfig(h=2, routing=routing, seed=seed, threshold=threshold)
    sim = Simulator(cfg, BernoulliTraffic(pattern, load))
    sim.run(400)
    sim.traffic = None
    sim.run_until_drained(300000)
    assert sim.delivered == sim.ledger().generated
    assert sim.packets_in_flight == 0
    assert sim.total_buffered_flits() == 0
    for router in sim.routers:
        for out in router.outputs:
            for c in out.credits:
                assert 0 <= c <= max(out.capacity, 1)


@given(
    routing=st.sampled_from(["minimal", "valiant", "pb", "par62", "rlm"]),
    flit=st.sampled_from([4, 8, 10]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=8, deadline=None)
def test_random_wh_runs_conserve_packets(routing, flit, seed):
    cfg = SimConfig(h=2, routing=routing, flow_control="wh",
                    packet_phits=4 * flit, flit_phits=flit, seed=seed)
    sim = Simulator(cfg, BernoulliTraffic(UniformRandom(), 0.3))
    sim.run(400)
    sim.traffic = None
    sim.run_until_drained(300000)
    assert sim.delivered == sim.ledger().generated
    assert sim.total_buffered_flits() == 0


# ------------------------------------------- wheel == reference (differential)
_WH = dict(flow_control="wh", packet_phits=40, flit_phits=10)
#: SimConfig fragments: every shipped mechanism under VCT, and under
#: Wormhole where the mechanism is deadlock-free there (OLM and OFAR
#: rely on whole-packet reservation), on the paper fabric at h=2 ...
_DRAGONFLY_CASES = (
    [dict(routing=r) for r in ("olm", "rlm", "par62", "pb", "valiant", "ofar")]
    + [dict(routing=r, **_WH) for r in ("rlm", "par62", "pb", "valiant")]
)
#: ... and the fabric-agnostic ones on the two other shipped fabrics
_FLAT_CASES = [
    dict(routing=r, **fabric)
    for r in ("ofar", "valiant")
    for fabric in (dict(topology="torus", torus_rows=4, torus_cols=4, p=2),
                   dict(topology="flattened_butterfly", fb_routers=8, p=4))
]
@given(
    # (config fragment, pattern, load up to which the fabric delivers what
    # it is offered: ADVG+1 over Valiant-length paths saturates first on
    # the Dragonfly, at 0.5; Valiant on the 4x4 torus near 0.28)
    case=st.one_of(
        st.tuples(st.sampled_from(_DRAGONFLY_CASES),
                  st.sampled_from(["uniform", "advg+1", "advl+1"]), st.just(0.3)),
        st.tuples(st.sampled_from(_FLAT_CASES), st.just("uniform"), st.just(0.15)),
    ),
    load=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_wheel_records_equal_the_reference_engine(case, load, seed):
    """The wheel's stall skip and router sleep never change a record.

    The frozen seed engine re-decides every buffered head every cycle,
    so byte-equal records mean no skipped ``decide`` call mattered.  The
    wheel run is instrumented and must pass the live invariants: flow
    conservation at any load, the full set (Little's law, occupancy,
    capacity, latency floors) where the window can be stationary —
    past saturation the source queues grow and ``L = lambda * W`` over
    delivered packets does not apply.
    """
    fragment, pattern, stationary_load = case
    config = SimConfig(h=2, seed=seed, **fragment)
    verify = "full" if load <= stationary_load else "flow"
    wheel = run_point(config.with_(engine="wheel"), pattern, load, 300, 600,
                      verify=verify, bucket=75)
    reference = run_point(config.with_(engine="reference"), pattern, load, 300, 600)
    assert canonical_record_json(wheel) == canonical_record_json(reference)


# ------------------------------ shared fabric == private fabric (metamorphic)
_SHARED_FABRICS = [
    dict(h=2),
    dict(topology="torus", torus_rows=3, torus_cols=4, p=2),
    dict(topology="flattened_butterfly", fb_routers=6, p=2),
]
_WARMUP = _MEASURE = 60
_core_point = st.fixed_dictionaries(dict(
    pattern=st.sampled_from(["uniform", "advg+1", "advl+1"]),
    load=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
    wh=st.booleans(),
    record_hops=st.booleans(),
    arbitration=st.sampled_from(["rr", "age"]),
    #: cycle at which the run leaves its core, if it does, and how
    #: ("hub" leaves nothing: a hub watches the rest on the core)
    leave_at=st.none() | st.integers(0, _WARMUP + _MEASURE - 1),
    leave_by=st.sampled_from(["hub", "routers", "arrivals_due"]),
    #: a burst drain instead of a steady window
    burst=st.booleans(),
))


def _run_core_point(fabric: dict, point: dict, engine: str) -> tuple:
    """Record bytes and, with ``record_hops``, the per-packet delivery log."""
    cfg = SimConfig(routing="minimal", engine=engine, seed=point["seed"],
                    arbitration=point["arbitration"],
                    record_hops=point["record_hops"],
                    **(_WH if point["wh"] else {}), **fabric)
    s = session(cfg)
    sim = s.sim
    pattern = pattern_by_name(point["pattern"], sim.topo)
    s.with_traffic(BurstTraffic(pattern, 2) if point["burst"]
                   else BernoulliTraffic(pattern, point["load"]))
    log = []
    if point["record_hops"]:  # a scalar observer: every packet gets built
        sim.add_delivery_observer(lambda pkt, cycle: log.append(
            (pkt.pid, cycle, tuple(pkt.hops_log), pkt.g_hops,
             pkt.local_hops_group, pkt.local_hops_total, pkt.prev_local_type,
             pkt.last_local_vc)))
    assert (sim._core is not None) == (engine == "auto")
    hubs = []

    def leave() -> None:
        """End the core, if the run has one, in the way the point drew —
        or attach a hub, which keeps it."""
        if sim._core is None:
            return
        if point["leave_by"] == "hub":
            hubs.append(MetricsHub(sim, bucket=20))
            assert sim._core is not None
            return
        if point["leave_by"] == "routers":
            assert sim.routers[0].rid == 0
        else:
            sim.arrivals_due(sim.now)
        assert sim._core is None

    leave_at = point["leave_at"]
    first = _WARMUP if leave_at is None else min(leave_at, _WARMUP)
    s.run(first)
    if leave_at is not None and leave_at <= _WARMUP:
        leave()
    s.warmup(_WARMUP - first)
    if leave_at is not None and leave_at > _WARMUP:
        s.run(leave_at - _WARMUP)
        leave()
    result = (s.drain(200_000) if point["burst"]
              else s.measure(_WARMUP + _MEASURE - max(leave_at or 0, _WARMUP)))
    left = leave_at is not None and point["leave_by"] != "hub"
    assert (sim._core is None) == (engine != "auto" or left)
    for hub in hubs:
        # the full live set but Little's law, which wants a stationary
        # window: these runs go to load 1.0, into drains, and the hub's
        # window opens mid-run
        failed = [check for check in hub.verify(full=True)["checks"]
                  if not check["ok"] and check["check"] != "little_law"]
        assert not failed, failed
    return canonical_record_json(point_record(result, cfg)), log


@given(fabric=st.sampled_from(_SHARED_FABRICS),
       points=st.lists(_core_point, min_size=2, max_size=5))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
def test_a_record_does_not_know_what_ran_before_it(fabric, points):
    """Points on one compiled fabric equal the same points run alone.

    Everything a process keeps between points (topology, array layout,
    route table — ``repro.topology.fabric``) must be a pure function of
    the fabric: a sequence sharing one warm fabric, each point again on
    a fabric nobody has used, the wheel and the frozen seed engine all
    give the same bytes — whichever way a run leaves its core, and with
    the live invariants holding on the runs a hub watched from some
    cycle on, which stay on their core.
    The fabrics are tiny, so the offered-load rule is pinned to the core
    (inside the body: hypothesis re-runs it, a fixture would not be).
    """
    with pytest.MonkeyPatch.context() as patch:
        pin_core_wins(patch)
        clear_fabrics()
        shared = [_run_core_point(fabric, point, "auto") for point in points]
        for point, outcome in zip(points, shared):
            clear_fabrics()
            assert outcome == _run_core_point(fabric, point, "auto")
            assert outcome == _run_core_point(fabric, point, "wheel")
            assert outcome == _run_core_point(fabric, point, "reference")


# ------------------------------------ hand injections: core == wheel (differential)
#: per cycle, the ``inject_packet`` calls made before its ``step``: (source
#: — four nodes, so they repeat —, destination offset, cycles back-dated)
_hand_script = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 11), st.integers(0, 3)),
             max_size=6),
    min_size=1, max_size=8)


def _run_hand_script(fabric, script, engine, *, wh, arbitration, record_hops,
                     load, observe, seed) -> tuple:
    cfg = SimConfig(routing="minimal", engine=engine, seed=seed,
                    arbitration=arbitration, record_hops=record_hops,
                    **(_WH if wh else {}), **fabric)
    sim = Simulator(cfg)
    n = sim.topo.num_nodes
    if load:  # a Bernoulli batch lands in the same cycles, after the hand's
        sim.traffic = BernoulliTraffic(UniformRandom(), load)
    log = []
    if observe:  # a scalar observer: every delivered packet gets built
        sim.add_delivery_observer(lambda pkt, cycle: log.append(
            (pkt.pid, cycle, pkt.src, pkt.dst, pkt.birth, pkt.hops_log,
             pkt.g_hops, pkt.local_hops_total, pkt.last_local_vc)))
    mine = []
    for calls in script:
        for src, offset, back in calls:
            mine.append(sim.inject_packet(src, (src + offset) % n,
                                          now=max(0, sim.now - back)))
        sim.step()
        if engine == "auto" and calls:
            assert_core_ledgers(sim._core)
    sim.traffic = None
    sim.run_until_drained(100_000)
    assert (sim._core is not None) == (engine == "auto")
    return (log, [(pkt.pid, pkt.birth, pkt.delivered_cycle, pkt.hops_log)
                  for pkt in mine],
            sim.ledger())


@given(fabric=st.sampled_from(_SHARED_FABRICS), script=_hand_script,
       wh=st.booleans(), arbitration=st.sampled_from(["rr", "age"]),
       record_hops=st.booleans(), load=st.sampled_from([0.0, 0.6]),
       observe=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_hand_injections_enter_the_core_as_they_enter_the_wheel(
        fabric, script, **point):
    """Any mix of ``inject_packet`` calls — repeated sources, several
    packets a node a cycle, back-dated births, a Bernoulli batch behind
    them — gives the wheel's per-packet delivery log, and the very
    objects the caller got back end up as the wheel's do."""
    with pytest.MonkeyPatch.context() as patch:
        pin_core_wins(patch)
        assert (_run_hand_script(fabric, script, "auto", **point)
                == _run_hand_script(fabric, script, "wheel", **point))


@given(seed=st.integers(0, 2**16))
@settings(max_examples=6, deadline=None)
def test_hop_logs_always_terminate_with_ejection(seed):
    cfg = SimConfig(h=2, routing="olm", seed=seed, record_hops=True)
    sim = Simulator(cfg)
    delivered = []
    sim.add_delivery_observer(lambda p, t: delivered.append(p))
    rng_dsts = [(i, (i * 7 + 3) % sim.topo.num_nodes) for i in range(0, 60, 3)]
    for s, d in rng_dsts:
        if s != d:
            sim.inject_packet(s, d)
    sim.run_until_drained(100000)
    from repro.topology import PortKind

    for p in delivered:
        assert p.hops_log[-1][0] == int(PortKind.EJECT)
        assert all(entry[0] != int(PortKind.EJECT) for entry in p.hops_log[:-1])


def test_output_arbitration_roughly_fair():
    """Two saturated injectors sharing one local link get similar service."""
    cfg = SimConfig(h=2, routing="minimal", seed=2)
    sim = Simulator(cfg)
    topo = sim.topo
    dst_router = topo.router_id(0, 1)
    counts = {0: 0, 1: 0}
    sim.add_delivery_observer(lambda p, t: counts.__setitem__(
        topo.node_index(p.src), counts[topo.node_index(p.src)] + 1
    ))
    # both nodes of router 0 flood node 0 of router 1 through one local link
    for _ in range(120):
        sim.inject_packet(topo.node_id(0, 0), topo.node_id(dst_router, 0))
        sim.inject_packet(topo.node_id(0, 1), topo.node_id(dst_router, 1))
    sim.run_until_drained(500000)
    total = counts[0] + counts[1]
    assert total == 240
    assert abs(counts[0] - counts[1]) <= 0.1 * total
