"""Property-based engine tests: random configurations, fixed invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.traffic.patterns import AdversarialGlobal, AdversarialLocal, UniformRandom
from repro.traffic.processes import BernoulliTraffic

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
    assert sim.stats.delivered == sim.stats.generated
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
    assert sim.stats.delivered == sim.stats.generated
    assert sim.total_buffered_flits() == 0


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
    from repro.topology.dragonfly import PortKind

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
