"""Router construction and inter-router wiring invariants."""

import pytest

from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.topology import PortKind


@pytest.fixture(scope="module")
def sim():
    return Simulator(SimConfig(h=2, routing="rlm", seed=1))


def test_port_layout(sim):
    topo = sim.topo
    for router in sim.routers[:8]:
        assert len(router.outputs) == topo.p + (topo.a - 1) + topo.h
        assert len(router.inputs) == topo.p + (topo.a - 1) + topo.h
        kinds = [o.kind for o in router.outputs]
        assert kinds == (
            [PortKind.EJECT] * topo.p
            + [PortKind.LOCAL] * (topo.a - 1)
            + [PortKind.GLOBAL] * topo.h
        )
        for k in range(topo.p):
            assert router.inputs[k].is_injection
            assert len(router.inputs[k].vcs) == 1
        for q in range(topo.a - 1):
            assert len(router.inputs[topo.p + q].vcs) == sim.local_vcs
        for k in range(topo.h):
            assert len(router.inputs[topo.p + topo.a - 1 + k].vcs) == sim.global_vcs


def test_output_helpers(sim):
    router = sim.routers[0]
    topo = sim.topo
    assert router.out_eject(1) == 1
    assert router.out_local(0) == topo.p
    assert router.out_global(0) == topo.p + topo.a - 1
    assert router.outputs[router.out_global(topo.h - 1)].kind == PortKind.GLOBAL


def test_wiring_bidirectional(sim):
    """Every output's (dest_router, dest_port) points back to a matching input."""
    topo = sim.topo
    for router in sim.routers:
        for out in router.outputs:
            if out.kind == PortKind.EJECT:
                assert out.dest_router is None
                continue
            dest = sim.routers[out.dest_router]
            ip = dest.inputs[out.dest_port]
            assert not ip.is_injection
            # the upstream pointer of that input must be this very output
            for vcb in ip.vcs:
                assert vcb.upstream_output is out
            if out.kind == PortKind.LOCAL:
                assert topo.group_of(dest.rid) == router.group
                assert out.latency == sim.config.local_latency
                assert out.capacity == sim.config.local_buffer_phits
            else:
                assert topo.group_of(dest.rid) != router.group
                assert out.latency == sim.config.global_latency
                assert out.capacity == sim.config.global_buffer_phits


def test_every_link_input_has_exactly_one_feeder(sim):
    feeders: dict = {}
    for router in sim.routers:
        for out in router.outputs:
            if out.kind == PortKind.EJECT:
                continue
            key = (out.dest_router, out.dest_port)
            assert key not in feeders, "two outputs feed one input port"
            feeders[key] = out
    # every non-injection input port of every router is fed
    for router in sim.routers:
        for ip in router.inputs:
            if not ip.is_injection:
                assert (router.rid, ip.index) in feeders


def test_can_accept_credit_and_busy_rules(sim):
    router = sim.routers[0]
    out_idx = router.out_local(0)
    out = router.outputs[out_idx]

    class FakeFlit:
        size = 8
        is_tail = True
        is_head = True

    flit = FakeFlit()
    assert router.can_accept(out_idx, 0, flit, now=0)
    out.busy_until = 5
    assert not router.can_accept(out_idx, 0, flit, now=4)
    assert router.can_accept(out_idx, 0, flit, now=5)
    out.credits[0] = 7
    assert not router.can_accept(out_idx, 0, flit, now=5)
    out.credits[0] = 8
    assert router.can_accept(out_idx, 0, flit, now=5)
    # restore shared fixture state
    out.busy_until = 0
    out.credits[0] = out.capacity


def test_wormhole_ownership_rules():
    sim = Simulator(SimConfig(h=2, routing="rlm", flow_control="wh",
                              packet_phits=20, flit_phits=10, seed=1))
    router = sim.routers[0]
    out_idx = router.out_local(0)
    out = router.outputs[out_idx]

    class FakePacket:
        pid = 7

    class Head:
        size = 10
        is_tail = False
        is_head = True
        packet = FakePacket()

    class Body:
        size = 10
        is_tail = True
        is_head = False
        packet = FakePacket()

    head, body = Head(), Body()
    assert router.can_accept(out_idx, 0, head, 0)
    out.owner[0] = 99  # someone else holds the VC
    assert not router.can_accept(out_idx, 0, head, 0)
    assert not router.can_accept_body(out_idx, 0, body, 0)
    out.owner[0] = 7
    assert router.can_accept_body(out_idx, 0, body, 0)


def test_eject_ports_always_creditless(sim):
    router = sim.routers[3]
    out = router.outputs[router.out_eject(0)]
    assert out.capacity == 0
    assert out.dest_router is None and out.dest_port is None
