"""Output arbitration policies and router pipeline latency."""

import pytest

from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.traffic.patterns import UniformRandom
from repro.traffic.processes import BernoulliTraffic


def test_config_validates_policies():
    SimConfig(arbitration="rr")
    SimConfig(arbitration="random")
    SimConfig(arbitration="age")
    with pytest.raises(ValueError):
        SimConfig(arbitration="lottery")
    with pytest.raises(ValueError):
        SimConfig(router_latency=-1)


def test_age_arbitration_prefers_older_packet():
    sim = Simulator(SimConfig(h=2, routing="minimal", arbitration="age", seed=1))
    topo = sim.topo
    dst_a = topo.node_id(topo.router_id(0, 1), 0)
    dst_b = topo.node_id(topo.router_id(0, 1), 1)
    # node 0's packet is *younger* (birth 10) than node 1's (birth 0); both
    # need the same local output of router 0
    young = sim.inject_packet(topo.node_id(0, 0), dst_a, now=10)
    old = sim.inject_packet(topo.node_id(0, 1), dst_b, now=0)
    sim.step()  # t=0: one grant on the contended local port
    r0 = sim.routers[0]
    assert r0.inputs[1].total_flits() == 0, "older packet must win"
    assert r0.inputs[0].total_flits() == 1
    sim.run_until_drained(20000)
    assert old.delivered_cycle < young.delivered_cycle


def test_rr_arbitration_would_pick_port_zero_instead():
    sim = Simulator(SimConfig(h=2, routing="minimal", arbitration="rr", seed=1))
    topo = sim.topo
    sim.inject_packet(topo.node_id(0, 0), topo.node_id(topo.router_id(0, 1), 0), now=10)
    sim.inject_packet(topo.node_id(0, 1), topo.node_id(topo.router_id(0, 1), 1), now=0)
    sim.step()
    r0 = sim.routers[0]
    assert r0.inputs[0].total_flits() == 0, "round-robin starts at port 0"


@pytest.mark.parametrize("policy", ["rr", "random", "age"])
def test_policies_conserve_and_are_deterministic(policy):
    def run():
        cfg = SimConfig(h=2, routing="olm", arbitration=policy, seed=9)
        sim = Simulator(cfg, BernoulliTraffic(UniformRandom(), 0.6))
        sim.run(900)
        sim.traffic = None
        sim.run_until_drained(150000)
        return (sim.delivered, sim.latency_sum)

    first, second = run(), run()
    assert first == second
    assert first[0] > 0


def test_router_latency_adds_per_hop_delay():
    def delivery(router_latency):
        cfg = SimConfig(h=2, routing="minimal", router_latency=router_latency, seed=1)
        sim = Simulator(cfg)
        dst = sim.topo.node_id(1, 0)  # one local hop
        pkt = sim.inject_packet(0, dst)
        sim.run_until_drained(20000)
        return pkt.delivered_cycle

    base = delivery(0)
    assert delivery(3) == base + 3  # single link hop -> one extra traversal
    assert delivery(10) == base + 10
