"""Piggybacking behaviour: flags, staleness, injection-time decisions."""

from repro.facade import Session
from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.traffic.patterns import AdversarialGlobal, AdversarialLocal, UniformRandom
from repro.traffic.processes import BernoulliTraffic

from tests.helpers import collect_delivered


def pb_sim(**over):
    defaults = dict(h=2, routing="pb", record_hops=True, seed=3)
    defaults.update(over)
    return Simulator(SimConfig(**defaults))


def test_low_load_stays_minimal():
    sim = pb_sim()
    sim.traffic = BernoulliTraffic(UniformRandom(), 0.05)
    pkts = collect_delivered(sim, 100)
    val = sum(p.mode == "val" for p in pkts)
    assert val <= len(pkts) * 0.05  # essentially everything minimal
    assert all(p.mode in ("min", "val") for p in pkts)


def test_advg_flags_divert_to_valiant():
    sim = pb_sim()
    sim.traffic = BernoulliTraffic(AdversarialGlobal(1), 0.6)
    sim.run(3000)
    assert Session(sim=sim).measure(1500).global_misroute_fraction > 0.3


def test_flags_update_periodically():
    sim = pb_sim()
    algo = sim.algo
    # force an occupied global link of router 0 and verify the flag appears
    out = sim.routers[0].outputs[sim.routers[0].out_global(0)]
    for v in range(len(out.credits)):
        out.credits[v] = 0  # fully occupied
    assert not algo._flags[0][0]
    sim.step()  # per_cycle runs at t=0 (0 % period == 0)
    link = sim.topo.global_link_index(0, 0)
    assert algo._flags[0][link]


def test_own_link_read_live_even_between_broadcasts():
    sim = pb_sim()
    sim.run(1)  # past the t=0 broadcast
    router = sim.routers[0]
    out = router.outputs[router.out_global(0)]
    for v in range(len(out.credits)):
        out.credits[v] = 0
    link = sim.topo.global_link_index(0, 0)
    # broadcast table still stale ...
    assert not sim.algo._flags[0][link]
    # ... but the owner router sees its own congestion immediately
    assert sim.algo._link_flag(router, 0, link)
    other = sim.routers[1]
    assert not sim.algo._link_flag(other, 0, link)


def test_local_traffic_uses_valiant_under_backlog():
    sim = pb_sim(h=3)
    sim.traffic = BernoulliTraffic(AdversarialLocal(1), 0.8)
    sim.run(2500)
    result = Session(sim=sim).measure(2000)
    # minimal-only bound is 1/h = 1/3; PB must beat it via Valiant detours
    assert result.global_misroute_fraction > 0.5
    assert result.throughput > 0.34


def test_mode_decided_once_and_committed():
    sim = pb_sim()
    sim.traffic = BernoulliTraffic(AdversarialGlobal(1), 0.5)
    pkts = collect_delivered(sim, 200)
    for p in pkts:
        if p.mode == "val" and p.dst_group != p.src_group:
            assert p.g_hops == 2  # full Valiant path, never re-decided
        elif p.mode == "min":
            assert p.g_hops <= 1
        assert p.local_misroutes == 0  # PB never misroutes locally
