"""The one hop transition and the one route walker (``repro.topology.route``).

The wheel's per-grant ``on_hop`` and every walker consumer — the array
core's route table and rewind, ``validate_topology`` — advance a
packet's counters through ``RouteState.take_hop``.  The pins below fix
the array core's minimal-route tables, hops and final counters, on the
shipped fabrics.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
import pytest

from repro.core.base import Decision
from repro.network import arraysim
from repro.network.config import SimConfig
from repro.network.packet import Packet
from repro.network.simulator import Simulator, build_simulator
from repro.topology import PortKind, Torus2D, wiring
from repro.topology.route import walk

#: sha256 over every router pair's route: hops (flat output port and
#: output VC) and the counters its walk leaves
ROUTE_TABLE_PINS = {
    "dragonfly": ({}, "8e2ffefb3ba834c4acad81f5f08917ba52520f39b3304ecda3c7a51952875190"),
    "flattened_butterfly": (
        {}, "4c6ece950970565cda9753a745fe51fc6c6895b833fac1a4db69dab2055079b2"),
    "torus": ({}, "33ab83387e6283d3720ccc8764e2b1d1d58dd830bda518f085b63147ee43a156"),
    "dragonfly-h3-palmtree": (
        dict(h=3), "151a149011715bfb6633988875cad6f0b0368c8e2973bb7e8d5779bf561c36da"),
    "dragonfly-h3-consecutive": (
        dict(h=3, arrangement="consecutive"),
        "920c4ae7d41fa973b5297b70ca47cecef5d4fcd24a7acf857f1aec5857495f53"),
}


@pytest.mark.parametrize("case", ROUTE_TABLE_PINS)
def test_route_tables_are_pinned(case):
    knobs, pin = ROUTE_TABLE_PINS[case]
    sim = build_simulator(SimConfig(topology=case.split("-")[0], routing="minimal",
                                    engine="auto", **knobs))
    routes = arraysim._layout_for(sim)._routes
    nr = sim.topo.num_routers
    digest = hashlib.sha256()
    for rid in routes.rids(np.arange(nr * nr)).tolist():
        off, nh = int(routes.pr_off[rid]), int(routes.pr_nh[rid])
        digest.update(repr((routes.rt_op[off:off + nh].tolist(),
                            routes.rt_fovc[off:off + nh].tolist(),
                            routes.final[rid])).encode())
    assert digest.hexdigest() == pin


@pytest.mark.parametrize("via", [None, 5])
def test_on_hop_leaves_what_the_walk_leaves(via):
    """Granting a walk's hops one by one through the wheel's ``on_hop``
    leaves the counters the walk left after each of them."""
    sim = Simulator(SimConfig(h=2, routing="valiant"))
    topo, links = sim.topo, wiring(sim.topo)
    src, dst = 1, topo.router_id(7, 2)

    def packet():
        pkt = Packet(0, topo.node_id(src, 0), topo.node_id(dst, 0), 8, 0,
                     src, topo.group_of(src), dst, topo.group_of(dst))
        pkt.valiant_group = via
        return pkt

    walked, granted = packet(), packet()
    hops = 0
    for cur, kind, port, _, vc in walk(topo, links, walked):
        if kind == PortKind.EJECT:
            break
        router = sim.routers[cur]
        target = topo.index_in_group(links[cur][port][0]) if kind == PortKind.LOCAL else None
        sim.algo.on_hop(router, granted, Decision(router.out_base[kind] + port, vc,
                                                  local_target=target))
        assert granted.counters() == walked.counters()
        hops += 1
    assert (hops, walked.g_hops) == ((5, 2) if via is not None else (3, 1))


def test_route_table_refuses_a_route_that_never_ejects():
    """A ``min_hop`` that circles a ring fails the route-table walk
    instead of hanging it."""

    class Circles(Torus2D):
        def min_hop(self, cur_router, packet):
            return (PortKind.LOCAL, 0,
                    self.local_neighbor_index(self.index_in_group(cur_router), 0), 0)

    topo = Circles(3, 4)
    nout = topo.p + topo.local_ports + topo.global_ports
    routes = arraysim._RouteTable(topo, wiring(topo), nout,
                                  [0] * (topo.num_routers * nout), threading.Lock())
    with pytest.raises(AssertionError,
                       match=r"min_hop never ejects from router 0 to router 5"):
        routes.rids(np.array([5]))
