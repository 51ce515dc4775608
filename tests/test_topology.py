"""Dragonfly geometry unit tests."""

import pytest

from repro.network.packet import Packet
from repro.topology import Dragonfly, PortKind, as_networkx, validate_topology, wiring
from repro.topology.arrangements import _ARRANGEMENTS

from tests.helpers import closed_form_min_hop


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_validate_canonical(h):
    validate_topology(Dragonfly(h))


@pytest.mark.parametrize("arrangement", ["palmtree", "consecutive"])
def test_validate_arrangements(arrangement):
    validate_topology(Dragonfly(2, arrangement=arrangement))


def test_validate_general_pa():
    # general (p, a, h) with the complete global graph constraint
    validate_topology(Dragonfly(2, p=1, a=4))
    validate_topology(Dragonfly(1, p=3, a=6))


def test_counts_paper_machine():
    t = Dragonfly(8)
    assert t.num_groups == 129
    assert t.a == 16
    assert t.num_routers == 2064
    assert t.num_nodes == 16512
    assert t.radix == 31  # 8 injection + 15 local + 8 global


def test_bad_parameters():
    with pytest.raises(ValueError):
        Dragonfly(0)
    with pytest.raises(ValueError):
        Dragonfly(2, p=0)
    with pytest.raises(ValueError):
        Dragonfly(2, a=1)


def test_id_arithmetic_roundtrip():
    t = Dragonfly(3)
    for r in range(0, t.num_routers, 7):
        g, i = t.group_of(r), t.index_in_group(r)
        assert t.router_id(g, i) == r
        for k in range(t.p):
            n = t.node_id(r, k)
            assert t.router_of_node(n) == r
            assert t.node_index(n) == k


def test_local_port_maps_inverse():
    t = Dragonfly(2)
    for i in range(t.a):
        for j in range(t.a):
            if i == j:
                continue
            q = t.local_port_to(i, j)
            assert 0 <= q < t.local_ports
            assert t.local_neighbor_index(i, q) == j


def test_local_port_to_self_rejected():
    t = Dragonfly(2)
    with pytest.raises(ValueError):
        t.local_port_to(1, 1)
    with pytest.raises(ValueError):
        t.local_neighbor_index(0, t.local_ports)


def test_local_links_stay_in_group():
    t = Dragonfly(2)
    r = t.router_id(3, 1)
    links = wiring(t)[r]
    for q in range(t.local_ports):
        n, nq = links[q]
        assert t.group_of(n) == 3
        assert n != r and nq < t.local_ports  # lands on a local port


def test_global_neighbor_symmetry():
    t = Dragonfly(3)
    for r in range(0, t.num_routers, 5):
        for k in range(t.global_ports):
            peer, pport = t.global_neighbor(r, k)
            assert t.global_neighbor(peer, pport) == (r, k)
            assert t.group_of(peer) == t.target_group_of(r, k)


def test_exit_port_reaches_target():
    t = Dragonfly(2)
    for g in range(t.num_groups):
        for tg in range(t.num_groups):
            if g == tg:
                continue
            i, k = t.exit_port(g, tg)
            assert t.target_group_of(t.router_id(g, i), k) == tg
    with pytest.raises(ValueError):
        t.exit_port(0, 0)


def test_minimal_hops():
    t = Dragonfly(2)
    assert t.minimal_hops(0, 0) == 0
    # same group: always 1
    assert t.minimal_hops(0, 1) == 1
    # different groups: 1..3 and never more
    for src in range(0, t.num_routers, 3):
        for dst in range(0, t.num_routers, 5):
            d = t.minimal_hops(src, dst)
            assert 0 <= d <= 3
            if t.group_of(src) != t.group_of(dst):
                assert d >= 1


def test_global_link_owner_roundtrip():
    t = Dragonfly(3)
    for link in range(t.links_per_group):
        i, k = t.global_link_owner(link)
        assert t.global_link_index(i, k) == link


def test_networkx_export():
    t = Dragonfly(2)
    g = as_networkx(t)
    assert g.number_of_nodes() == t.num_routers
    # each router: a-1 local + h global edges, each edge counted once
    assert g.number_of_edges() == t.num_routers * (t.a - 1 + t.h) // 2
    import networkx as nx

    assert nx.is_connected(nx.Graph(g))


@pytest.mark.parametrize("arrangement", sorted(_ARRANGEMENTS))
@pytest.mark.parametrize("h", [2, 3])
def test_compiled_min_hop_rows_equal_the_closed_form(h, arrangement):
    """Every (router, objective) the engine can ask about: destination in
    every group / at every in-group index / on every ejection port, with
    and without a Valiant intermediate, before and after global hops."""
    t = Dragonfly(h, arrangement=arrangement)
    checked = 0
    for cur in range(t.num_routers):
        for dst_group in range(t.num_groups):
            # one destination router per group is enough outside the
            # objective group; inside it every index and node port counts
            dst_routers = ([t.router_id(dst_group, i) for i in range(t.a)]
                           if dst_group == t.group_of(cur) else [t.router_id(dst_group, 1)])
            for dst_router in dst_routers:
                nodes = range(t.p) if dst_router == cur else (0,)
                for k in nodes:
                    pkt = Packet(0, 0, t.node_id(dst_router, k), 8, 0, 0, 0,
                                 dst_router, dst_group)
                    for via in (None, *range(t.num_groups)):
                        for g_hops in (0, 1, 2):
                            pkt.valiant_group, pkt.g_hops = via, g_hops
                            hop = t.min_hop(cur, pkt)
                            assert hop == closed_form_min_hop(t, cur, pkt), (
                                cur, dst_router, k, via, g_hops)
                            assert isinstance(hop[0], PortKind)
                            checked += 1
    assert checked > t.num_routers * t.num_groups


def test_compiled_min_hop_tuples_are_interned():
    """h=8 rows stay pointer-sized: hop tuples are shared, not rebuilt."""
    t = Dragonfly(3)
    distinct = {id(hop) for row in t._group_hops for hop in row if hop is not None}
    assert len(distinct) <= t.a * (t.a - 1) + t.h
