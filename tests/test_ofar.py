"""OFAR baseline: ring embedding, bubble escape, qualitative weaknesses."""

import pytest

from repro.facade import Session
from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.topology import Dragonfly
from repro.topology import PortKind
from repro.topology.ring import hamiltonian_ring, validate_ring
from repro.traffic.patterns import AdversarialGlobal, AdversarialLocal, UniformRandom
from repro.traffic.processes import BernoulliTraffic

from tests.helpers import collect_delivered


@pytest.mark.parametrize("h", [1, 2, 3])
def test_hamiltonian_ring_valid(h):
    topo = Dragonfly(h)
    succ = hamiltonian_ring(topo)
    validate_ring(topo, succ)


def test_ring_uses_one_global_hop_per_group():
    topo = Dragonfly(2)
    succ = hamiltonian_ring(topo)
    global_hops = [r for r, (_, kind, _) in succ.items() if kind == PortKind.GLOBAL]
    assert len(global_hops) == topo.num_groups
    assert len({topo.group_of(r) for r in global_hops}) == topo.num_groups


def ofar_sim(pattern, load, **over):
    defaults = dict(h=2, routing="ofar", record_hops=True, seed=3)
    defaults.update(over)
    sim = Simulator(SimConfig(**defaults))
    sim.traffic = BernoulliTraffic(pattern, load)
    return sim


def test_ofar_vc_budget():
    sim = ofar_sim(UniformRandom(), 0.1)
    assert sim.local_vcs == 4 and sim.global_vcs == 3


def test_ofar_rejected_under_wormhole():
    with pytest.raises(ValueError, match="requires VCT"):
        Simulator(SimConfig(h=2, routing="ofar", flow_control="wh",
                            packet_phits=80, flit_phits=10))


@pytest.mark.parametrize("pattern", [UniformRandom(), AdversarialGlobal(2),
                                     AdversarialLocal(1)])
def test_ofar_delivers_and_drains(pattern):
    sim = ofar_sim(pattern, 0.6)
    sim.run(1500)
    sim.traffic = None
    sim.run_until_drained(300000)
    assert sim.delivered == sim.ledger().generated


def test_ofar_uses_escape_under_congestion():
    sim = ofar_sim(AdversarialGlobal(2), 0.9)
    pkts = collect_delivered(sim, 400)
    escape_hops = sum(
        1
        for p in pkts
        for kind, _, vc in p.hops_log
        if (kind == int(PortKind.LOCAL) and vc == 3)
        or (kind == int(PortKind.GLOBAL) and vc == 2)
    )
    assert escape_hops > 0, "congested OFAR must exercise the escape ring"


def test_ofar_escape_rare_at_low_load():
    sim = ofar_sim(UniformRandom(), 0.05)
    pkts = collect_delivered(sim, 150)
    total_hops = sum(len(p.hops_log) for p in pkts)
    escape_hops = sum(
        1
        for p in pkts
        for kind, _, vc in p.hops_log
        if (kind == int(PortKind.LOCAL) and vc == 3)
        or (kind == int(PortKind.GLOBAL) and vc == 2)
    )
    assert escape_hops <= 0.01 * total_hops


def test_ofar_no_deadlock_tight_buffers():
    cfg = SimConfig(h=2, routing="ofar", packet_phits=8,
                    local_buffer_phits=16, global_buffer_phits=64,
                    seed=11, deadlock_window=4000)
    sim = Simulator(cfg, BernoulliTraffic(AdversarialGlobal(2), 1.0))
    sim.run(2000)
    sim.traffic = None
    sim.run_until_drained(600000)
    assert sim.delivered == sim.ledger().generated


def test_paper_claim_olm_beats_ofar_when_congested():
    """§II: the escape ring's poor capacity hurts in congested scenarios."""

    def saturation(routing):
        cfg = SimConfig(h=2, routing=routing, seed=7)
        sim = Simulator(cfg, BernoulliTraffic(AdversarialGlobal(2), 0.8))
        sim.run(2500)
        return Session(sim=sim).measure(2500).throughput

    assert saturation("olm") >= 0.95 * saturation("ofar")
