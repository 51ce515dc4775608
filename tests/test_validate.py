"""``validate_topology``: one validator over the wiring table, each check
shown to fail on its own corruption.

Every fake below is a shipped fabric with one map broken; the validator
must refuse it with a message naming the router and the port it caught
(the shipped fabrics themselves pass in ``test_topology.py`` and
``test_topologies.py``).
"""

from __future__ import annotations

import pytest

from repro.topology import (
    Dragonfly,
    FlattenedButterfly,
    PortKind,
    Torus2D,
    validate_topology,
)


def _exit(topo, group: int, target: int) -> tuple[int, int]:
    """``(router, global port)`` of ``group``'s link to ``target``."""
    i, k = topo.exit_port(group, target)
    return topo.router_id(group, i), k


def _rewired(end_a: tuple[int, int], end_b: tuple[int, int]) -> Dragonfly:
    """Dragonfly(2) with global ports ``end_a`` and ``end_b`` joined, and
    their old partners joined to each other — still a symmetric matching."""
    base = Dragonfly(2)
    far_a, far_b = base.global_neighbor(*end_a), base.global_neighbor(*end_b)
    swap = {end_a: end_b, end_b: end_a, far_a: far_b, far_b: far_a}

    class Rewired(Dragonfly):
        def global_neighbor(self, router, gport):
            return swap.get((router, gport)) or super().global_neighbor(router, gport)

    return Rewired(2)


class AsymmetricGlobal(Dragonfly):
    """Router 0's global port 0 lands on the wrong port of its peer."""

    def global_neighbor(self, router, gport):
        peer, peer_port = super().global_neighbor(router, gport)
        if (router, gport) == (0, 0):
            return peer, (peer_port + 1) % self.h
        return peer, peer_port


class LocalLeavesGroup(Dragonfly):
    """Local port 0 of every index-0 router names an index past the group."""

    def local_neighbor_index(self, src_index, port):
        if (src_index, port) == (0, 0):
            return self.a
        return super().local_neighbor_index(src_index, port)


class SelfLink(Dragonfly):
    """Router 0's global port 0 is wired back into itself."""

    def global_neighbor(self, router, gport):
        if (router, gport) == (0, 0):
            return 0, 0
        return super().global_neighbor(router, gport)


class PortToNotInverse(Dragonfly):
    """``local_port_to`` swaps the ports index 0 uses for indices 1 and 2."""

    def local_port_to(self, src_index, dst_index):
        if src_index == 0 and dst_index in (1, 2):
            return {1: 1, 2: 0}[dst_index]
        return super().local_port_to(src_index, dst_index)


class ExitDisagrees(Dragonfly):
    """``exit_port(0, 1)`` names the link to group 2."""

    def exit_port(self, group, target_group):
        if (group, target_group) == (0, 1):
            target_group = 2
        return super().exit_port(group, target_group)


class WalkTooLong(Dragonfly):
    """``minimal_hops`` undercounts every inter-group pair by one."""

    def minimal_hops(self, src_router, dst_router):
        hops = super().minimal_hops(src_router, dst_router)
        return hops - 1 if self.group_of(src_router) != self.group_of(dst_router) else hops


class TorusWalkTooLong(Torus2D):
    """A fabric without caps still gets the walk check."""

    def minimal_hops(self, src_router, dst_router):
        return max(0, super().minimal_hops(src_router, dst_router) - 1)


class ValiantVcOverflow(Dragonfly):
    """Every hop of a Valiant route rides a VC five past the minimal one."""

    def min_hop(self, cur_router, packet):
        kind, port, target, vc = super().min_hop(cur_router, packet)
        if packet.valiant_group is not None and kind != PortKind.EJECT:
            vc += 5
        return kind, port, target, vc


class ValiantNeverLeaves(Torus2D):
    """Once at the Valiant intermediate, the route circles its X ring."""

    def min_hop(self, cur_router, packet):
        if packet.valiant_group is not None and packet.via_done:
            return (PortKind.LOCAL, 0,
                    self.local_neighbor_index(self.index_in_group(cur_router), 0), 0)
        return super().min_hop(cur_router, packet)


class WrongTargetAfterGlobal(Dragonfly):
    """A local hop in the destination group names the wrong next router."""

    def min_hop(self, cur_router, packet):
        kind, port, target, vc = super().min_hop(cur_router, packet)
        if kind == PortKind.LOCAL and packet.g_hops:
            target = (target + 1) % self.a
        return kind, port, target, vc


class ValiantWrongTarget(Dragonfly):
    """Every local hop of a Valiant route names the wrong next router."""

    def min_hop(self, cur_router, packet):
        kind, port, target, vc = super().min_hop(cur_router, packet)
        if kind == PortKind.LOCAL and packet.valiant_group is not None:
            target = (target + 1) % self.a
        return kind, port, target, vc


class TargetIsItself(Dragonfly):
    """A local hop in the destination group names its own router."""

    def min_hop(self, cur_router, packet):
        kind, port, target, vc = super().min_hop(cur_router, packet)
        if kind == PortKind.LOCAL and packet.g_hops:
            target = self.index_in_group(cur_router)
        return kind, port, target, vc


D2 = Dragonfly(2)


@pytest.mark.parametrize("topo,message", [
    (AsymmetricGlobal(2),
     r"router 0 global port 0 lands on router \d+ global port \d+, whose link "
     r"leads to router \d+ global port \d+, not back"),
    (LocalLeavesGroup(2),
     r"router 0 local port 0 leaves group 0 for router 4 in group 1"),
    (SelfLink(2), r"router 0 global port 0 is a link to itself"),
    (PortToNotInverse(2),
     r"router 0 local port 0 reaches index 1, but local_port_to\(0, 1\) is 1"),
    (_rewired(_exit(D2, 0, 1), _exit(D2, 3, 2)),
     r"group 0 has 0 global links to group 1 \(exit_port names router \d+ "
     r"global port \d+\), not one"),
    (_rewired(_exit(D2, 0, 5), _exit(D2, 1, 2)),
     r"group 0 has 2 global links to group 1 \(router \d+ global port \d+, "
     r"router \d+ global port \d+\), not one"),
    (ExitDisagrees(2),
     r"exit_port\(0, 1\) names router \d+ global port \d+, which reaches group 2"),
    (WalkTooLong(2),
     r"min_hop walk from router \d+ to router \d+ takes router \d+ "
     r"(local|global) port \d+ as hop \d+; minimal_hops says \d+"),
    (TorusWalkTooLong(4, 5),
     r"min_hop walk from router \d+ to router \d+ takes router \d+ "
     r"(local|global) port \d+ as hop \d+; minimal_hops says \d+"),
    (ValiantVcOverflow(2),
     r"min_hop walk from router \d+ to router \d+ via \d+ takes router \d+ "
     r"(local|global) port \d+ on VC \d+; route_(local|global)_vcs is [23]"),
    (ValiantNeverLeaves(4, 5),
     r"min_hop walk from router \d+ to router \d+ via \d+ takes router \d+ "
     r"local port 0 as hop 9; twice the diameter is 8"),
    (WrongTargetAfterGlobal(2),
     r"min_hop walk from router \d+ to router \d+ takes router \d+ local port \d+ "
     r"to in-group index \d+, but min_hop names target \d+"),
    (ValiantWrongTarget(2),
     r"min_hop walk from router \d+ to router \d+ via \d+ takes router \d+ "
     r"local port \d+ to in-group index \d+, but min_hop names target \d+"),
    (TargetIsItself(2),
     r"min_hop walk from router \d+ to router \d+ fails at router \d+: "
     r"no local hop from a router to itself"),
], ids=["asymmetric-global", "local-leaves-group", "self-link",
        "local-port-to-not-inverse", "group-pair-without-link",
        "group-pair-with-two-links", "exit-port-disagrees", "walk-too-long",
        "walk-too-long-without-caps", "valiant-vc-over-budget",
        "valiant-walk-too-long", "local-target-after-global",
        "valiant-local-target", "local-target-is-itself"])
def test_each_check_fails_on_its_own_corruption(topo, message):
    with pytest.raises(AssertionError, match=message):
        validate_topology(topo)


def test_a_fabric_gets_the_checks_its_caps_claim():
    """A ring-local fabric is not held to ``local-complete``; claiming the
    flag makes the validator check it, and the ring fails it."""
    validate_topology(Torus2D(4, 5))

    class ClaimsComplete(Torus2D):
        caps = frozenset({"local-complete"})

    with pytest.raises(AssertionError,
                       match=r"router 0's local ports reach in-group indices "
                             r"\[1, 4\], not every other router once"):
        validate_topology(ClaimsComplete(4, 5))


def test_the_walk_carries_every_counter_the_engine_keeps():
    """A ``min_hop`` may read any routing counter an engine packet has."""

    class CountsLocalHops(FlattenedButterfly):
        def min_hop(self, cur_router, packet):
            kind, port, target, vc = super().min_hop(cur_router, packet)
            assert packet.local_hops_total <= 2, "a route is at most two hops"
            return kind, port, target, vc

    validate_topology(CountsLocalHops(8))
