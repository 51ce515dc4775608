"""Decision-level unit tests: crafted packets against a quiet network.

These pin down the exact outputs and VCs each mechanism picks in
unambiguous situations, complementing the statistical discipline tests.
"""


from repro.core.base import Decision
from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.topology import PortKind


def quiet_sim(routing="minimal", **over):
    defaults = dict(h=2, routing=routing, seed=1)
    defaults.update(over)
    return Simulator(SimConfig(**defaults))


def head_flit(sim, src, dst):
    pkt = sim.inject_packet(src, dst)
    router = sim.routers[pkt.src_router]
    vcb = router.inputs[sim.topo.node_index(src)].vcs[0]
    return pkt, vcb.head(), router


def test_minimal_eject_decision():
    sim = quiet_sim()
    pkt, flit, router = head_flit(sim, 0, 1)  # same router
    dec = sim.algo.decide(router, pkt, 0, flit)
    assert isinstance(dec, Decision)
    out = router.outputs[dec.out]
    assert out.kind == PortKind.EJECT
    assert out.index == 1  # node port of destination


def test_minimal_local_then_global_vcs():
    sim = quiet_sim()
    topo = sim.topo
    # destination in another group whose exit is not router 0
    for tg in range(1, topo.num_groups):
        exit_idx, gport = topo.exit_port(0, tg)
        if exit_idx != 0:
            break
    dst = topo.node_id(topo.router_id(tg, exit_idx), 0)
    pkt, flit, router = head_flit(sim, 0, dst)
    dec = sim.algo.decide(router, pkt, 0, flit)
    out = router.outputs[dec.out]
    assert out.kind == PortKind.LOCAL and dec.vc == 0  # lVC1
    # pretend the hop was granted; now at the exit router
    sim.algo.on_hop(router, pkt, dec)
    assert pkt.local_hops_group == 1 and pkt.g_hops == 0
    exit_router = sim.routers[topo.router_id(0, exit_idx)]
    dec2 = sim.algo.decide(exit_router, pkt, 0, flit)
    out2 = exit_router.outputs[dec2.out]
    assert out2.kind == PortKind.GLOBAL and dec2.vc == 0  # gVC1


def test_minimal_blocked_returns_none():
    sim = quiet_sim()
    pkt, flit, router = head_flit(sim, 0, 1)
    router.outputs[router.out_eject(1)].busy_until = 10**9  # freeze eject port 1
    assert sim.algo.decide(router, pkt, 0, flit) is None


def test_valiant_decision_sets_group():
    sim = quiet_sim("valiant")
    dst = sim.topo.node_id(sim.topo.router_id(3, 0), 0)
    pkt, flit, router = head_flit(sim, 0, dst)
    dec = sim.algo.decide(router, pkt, 0, flit)
    assert dec.valiant_group is not None
    assert dec.valiant_group not in (pkt.src_group, pkt.dst_group)
    sim.algo.on_hop(router, pkt, dec)
    assert pkt.committed and pkt.global_misrouted


def test_adaptive_minimal_first_on_quiet_network():
    """With empty queues every adaptive mechanism routes minimally."""
    for routing in ("par62", "rlm", "olm", "ofar"):
        sim = quiet_sim(routing)
        dst = sim.topo.node_id(sim.topo.router_id(4, 1), 0)
        pkt, flit, router = head_flit(sim, 0, dst)
        dec = sim.algo.decide(router, pkt, 0, flit)
        mout = sim.algo.minimal_hop(router, pkt)[0]
        assert dec.out == mout, routing
        assert not dec.is_local_misroute
        assert dec.valiant_group is None


def test_adaptive_misroutes_when_minimal_congested():
    """Freeze the minimal output with nonzero occupancy: the trigger fires."""
    sim = quiet_sim("olm", threshold=0.9)
    topo = sim.topo
    dst = topo.node_id(topo.router_id(0, 1), 0)  # intra-group, router 0 -> 1
    pkt, flit, router = head_flit(sim, 0, dst)
    mout = sim.algo.minimal_hop(router, pkt)[0]
    out = router.outputs[mout]
    out.credits[0] = 0  # minimal local VC full: occupancy = capacity
    dec = None
    for _ in range(50):  # candidate sampling is randomized
        dec = sim.algo.decide(router, pkt, 0, flit)
        if dec is not None:
            break
    assert dec is not None
    assert dec.is_local_misroute or dec.valiant_group is not None


def test_trigger_denies_when_candidates_as_full():
    sim = quiet_sim("olm", threshold=0.45)
    topo = sim.topo
    dst = topo.node_id(topo.router_id(0, 1), 0)
    pkt, flit, router = head_flit(sim, 0, dst)
    # every output as full as the minimal one: nothing passes the trigger
    for out in router.outputs:
        if out.kind != PortKind.EJECT:
            for v in range(len(out.credits)):
                out.credits[v] = 0
    assert sim.algo.decide(router, pkt, 0, flit) is None


def test_rlm_divert_respects_pair_restriction():
    from repro.core.paritysign import link_type, pair_allowed

    sim = quiet_sim("rlm")
    algo = sim.algo
    dst = sim.topo.node_id(sim.topo.router_id(5, 0), 0)
    pkt, flit, router = head_flit(sim, 0, dst)
    pkt.prev_local_type = link_type(2, 0)  # pretend we arrived 2 -> 0
    for via in range(1, sim.topo.a):
        expected = pair_allowed(link_type(2, 0), link_type(0, via))
        assert algo.divert_valid(router, pkt, via) == expected


def test_olm_misroute_vc_levels():
    sim = quiet_sim("olm")
    pkt, flit, router = head_flit(sim, 0, sim.topo.node_id(40, 0))
    assert sim.algo.vc_local_misroute(pkt) == 0   # source group
    pkt.g_hops = 1
    assert sim.algo.vc_local_misroute(pkt) == 0   # intermediate group
    pkt.g_hops = 2
    assert sim.algo.vc_local_misroute(pkt) == 1   # destination group (lVC2)
    assert sim.algo.vc_local_minimal(pkt) == 2    # escape lVC3


def test_par62_vc_progression():
    sim = quiet_sim("par62")
    pkt, flit, router = head_flit(sim, 0, sim.topo.node_id(40, 0))
    assert sim.algo.vc_local_minimal(pkt) == 0
    pkt.local_hops_total = 3
    assert sim.algo.vc_local_minimal(pkt) == 3
    pkt.g_hops = 1
    assert sim.algo.vc_global(pkt) == 1
