"""Wormhole-specific engine behaviour: flit ordering, VC ownership, HOLB."""

import pytest

from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.topology import PortKind
from repro.traffic.patterns import UniformRandom
from repro.traffic.processes import BernoulliTraffic

from tests.helpers import EJECT, LOCAL, replay_path


def wh_sim(**over):
    defaults = dict(h=2, routing="rlm", flow_control="wh",
                    packet_phits=40, flit_phits=10, record_hops=True, seed=3)
    defaults.update(over)
    return Simulator(SimConfig(**defaults))


def test_single_packet_multiflit_delivery():
    sim = wh_sim()
    dst = sim.topo.node_id(1, 0)
    pkt = sim.inject_packet(0, dst)
    sim.run_until_drained(20000)
    path = replay_path(sim, pkt)
    assert [k for k, *_ in path] == [LOCAL, EJECT]
    # head flit: grant t=0, store-and-forward arrival 0+10+10, eject grant
    # waits for the 4 flits to stream; tail consumed at 20+3*10(+10 eject)... at
    # minimum the serialization of 40 phits must appear end-to-end:
    assert pkt.delivered_cycle >= 40 + 10


def test_flits_arrive_in_order_single_vc():
    """Per input VC, flit indices of one packet must be consecutive."""
    sim = wh_sim()
    sim.traffic = BernoulliTraffic(UniformRandom(), 0.3)
    seen: dict[tuple, list] = {}
    for _ in range(2500):
        for router, port_idx, vc_idx, flit in sim.arrivals_due(sim.now):
            key = (router.rid, port_idx, vc_idx, flit.packet.pid)
            seen.setdefault(key, []).append(flit.index)
        sim.step()
    assert seen, "no arrivals observed"
    for key, indices in seen.items():
        assert indices == sorted(indices), key
        # contiguity: each packet's flits on one VC are consecutive
        assert indices == list(range(indices[0], indices[0] + len(indices))), key


def test_vc_ownership_exclusive():
    """While a packet owns a downstream VC, no other packet's flit enters it."""
    sim = wh_sim()
    sim.traffic = BernoulliTraffic(UniformRandom(), 0.5)
    violations = []
    orig_grant = sim._grant

    def checked_grant(router, out, sel, t):
        ip, vcb, flit, oidx, ovc, dec = sel
        if out.kind != PortKind.EJECT:
            owner = out.owner[ovc]
            if owner is not None and owner != flit.packet.pid:
                violations.append((t, owner, flit.packet.pid))
        orig_grant(router, out, sel, t)

    sim._grant = checked_grant  # type: ignore[method-assign]
    sim.run(2000)
    assert not violations


def test_wh_packet_streams_across_routers():
    """A blocked wormhole packet occupies buffers in more than one router."""
    cfg = SimConfig(h=2, routing="rlm", flow_control="wh",
                    packet_phits=40, flit_phits=10,
                    local_buffer_phits=10, global_buffer_phits=20, seed=3)
    sim = Simulator(cfg)
    # one long packet to a remote group: with 10-phit buffers a 4-flit packet
    # can never sit in a single router
    tg = sim.topo.target_group_of(0, 0)
    dst = sim.topo.node_id(sim.topo.router_id(tg, 0), 0)
    sim.inject_packet(0, dst)
    spread = 0
    for _ in range(400):
        sim.step()
        holding = sum(
            1
            for r in sim.routers
            for ip in r.inputs
            if not ip.is_injection and ip.total_flits()
        )
        spread = max(spread, holding)
    assert spread >= 1
    sim.run_until_drained(20000)


def test_vct_vs_wh_base_latency():
    """Store-and-forward flits make WH slower per hop at zero load."""
    lat = {}
    for fcname, pkt_phits in (("vct", 40), ("wh", 40)):
        cfg = SimConfig(h=2, routing="minimal", flow_control=fcname,
                        packet_phits=pkt_phits, flit_phits=10,
                        local_buffer_phits=64, global_buffer_phits=256, seed=1)
        sim = Simulator(cfg)
        tg = sim.topo.target_group_of(0, 0)
        dst = sim.topo.node_id(sim.topo.router_id(tg, 0), 0)
        p = sim.inject_packet(0, dst)
        sim.run_until_drained(10000)
        lat[fcname] = p.delivered_cycle
    assert lat["wh"] > lat["vct"]


def test_flow_control_unit_must_fit_buffers():
    with pytest.raises(ValueError, match="does not fit"):
        Simulator(SimConfig(h=2, routing="minimal", flow_control="vct",
                            packet_phits=80, local_buffer_phits=32))
    with pytest.raises(ValueError, match="does not fit"):
        Simulator(SimConfig(h=2, routing="rlm", flow_control="wh",
                            packet_phits=80, flit_phits=40, local_buffer_phits=32))
