"""Global-link arrangement unit tests."""

import pytest

from repro.topology.arrangements import (
    ConsecutiveArrangement,
    PalmTreeArrangement,
    arrangement_by_name,
)


@pytest.mark.parametrize("cls", [PalmTreeArrangement, ConsecutiveArrangement])
@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_peer_is_involution(cls, h):
    links = 2 * h * h
    arr = cls(links + 1, links)
    for g in range(arr.num_groups):
        for j in range(links):
            pg, pj = arr.peer(g, j)
            assert arr.peer(pg, pj) == (g, j)


@pytest.mark.parametrize("cls", [PalmTreeArrangement, ConsecutiveArrangement])
def test_every_pair_joined_once(cls):
    h = 3
    links = 2 * h * h
    arr = cls(links + 1, links)
    seen = set()
    for g in range(arr.num_groups):
        targets = set()
        for j in range(links):
            tg = arr.target_group(g, j)
            assert tg != g
            targets.add(tg)
            seen.add((min(g, tg), max(g, tg)))
        assert len(targets) == links  # one link per other group
    assert len(seen) == arr.num_groups * (arr.num_groups - 1) // 2


@pytest.mark.parametrize("cls", [PalmTreeArrangement, ConsecutiveArrangement])
def test_link_to_group_inverts_target(cls):
    h = 2
    links = 2 * h * h
    arr = cls(links + 1, links)
    for g in range(arr.num_groups):
        for t in range(arr.num_groups):
            if t == g:
                continue
            j = arr.link_to_group(g, t)
            assert arr.target_group(g, j) == t


def test_link_to_self_rejected():
    arr = PalmTreeArrangement(9, 8)
    with pytest.raises(ValueError):
        arr.link_to_group(3, 3)


def test_bad_subscription_rejected():
    with pytest.raises(ValueError):
        PalmTreeArrangement(10, 8)  # g must equal a*h + 1


def test_link_index_out_of_range():
    arr = PalmTreeArrangement(9, 8)
    with pytest.raises(ValueError):
        arr.peer(0, 8)
    with pytest.raises(ValueError):
        arr.peer(0, -1)


def test_arrangement_by_name():
    assert isinstance(arrangement_by_name("palmtree", 9, 8), PalmTreeArrangement)
    assert isinstance(arrangement_by_name("consecutive", 9, 8), ConsecutiveArrangement)
    with pytest.raises(ValueError, match="unknown arrangement"):
        arrangement_by_name("nope", 9, 8)


def test_palmtree_formula():
    arr = PalmTreeArrangement(9, 8)
    assert arr.peer(0, 0) == (1, 7)
    assert arr.peer(0, 7) == (8, 0)
    assert arr.peer(4, 3) == (8, 4)


@pytest.mark.parametrize("arrangement", ["palmtree", "consecutive"])
@pytest.mark.parametrize("h", [2, 3])
def test_global_neighbor_table_equals_the_arrangement_formula(arrangement, h):
    """``Dragonfly.global_neighbor`` is a lookup; the table it reads is
    the arrangement's ``peer`` composed with the link-ownership maps,
    for every (router, global port) of the fabric."""
    from repro.topology import Dragonfly

    topo = Dragonfly(h, arrangement=arrangement)
    for router in range(topo.num_routers):
        group, index = topo.group_of(router), topo.index_in_group(router)
        for gport in range(topo.h):
            peer_group, peer_link = topo.arrangement.peer(
                group, topo.global_link_index(index, gport))
            peer_index, peer_port = topo.global_link_owner(peer_link)
            assert (topo.global_neighbor(router, gport)
                    == (topo.router_id(peer_group, peer_index), peer_port))
            assert topo.target_group_of(router, gport) == peer_group
