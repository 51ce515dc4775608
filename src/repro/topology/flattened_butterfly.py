"""1-D flattened butterfly: one group, complete graph over all routers.

The flattened butterfly (Kim, Dally & Abts, ISCA'07) collapses each
column of a conventional butterfly into a single high-radix router;
its 1-D instance is simply a complete graph of ``R`` routers with
``p`` nodes each.  Presented against the hierarchical
:class:`~repro.topology.base.Topology` protocol it is a *single group*
of ``a = R`` routers: every inter-router link is an intra-dimension
LOCAL port (exactly like a Dragonfly group's local network) and there
are no GLOBAL ports at all (``h = 0``).

Minimal paths are one hop, Valiant paths two; the VC discipline
ascends per hop (``lVC1`` then ``lVC2``), which keeps the channel
dependency graph acyclic with two local VCs.  The Valiant intermediate
token is a *router* id — with one group, the Dragonfly's
group-granular Valiant would be a no-op.
"""

from __future__ import annotations

from repro.registry import TOPOLOGY_REGISTRY
from repro.topology.base import (
    CAP_LOCAL_COMPLETE,
    PortKind,
    UnsupportedTopologyError,
)


@TOPOLOGY_REGISTRY.register(
    "flattened_butterfly",
    description="1-D flattened butterfly: complete graph of routers, one group (Kim et al.)")
class FlattenedButterfly:
    """A 1-D flattened butterfly: ``routers`` fully-connected routers.

    Parameters
    ----------
    routers:
        Number of routers (>= 2); they form one complete graph.
    p:
        Nodes per router (concentration), default 2.
    """

    #: the local network is a complete graph, so local misrouting works;
    #: there are no group exits and paths are not Dragonfly-shaped
    caps = frozenset({CAP_LOCAL_COMPLETE})
    #: ascending per-hop discipline: lVC1 for the first hop, lVC2 for
    #: the (Valiant) second
    route_local_vcs = 2
    route_global_vcs = 1  # no global ports; one VC keeps sizing well-defined
    #: the ``SimConfig`` fields :meth:`from_config` reads (the memo key)
    config_fields = ("fb_routers", "p")

    def __init__(self, routers: int, *, p: int = 2) -> None:
        if routers < 2:
            raise ValueError(
                f"a flattened butterfly needs at least 2 routers, got {routers}"
            )
        if p < 1:
            raise ValueError(f"need p >= 1 nodes per router, got {p}")
        self.a = routers
        self.p = p
        self.h = 0
        self.num_groups = 1
        self.num_routers = routers
        self.num_nodes = routers * p
        self.local_ports = routers - 1
        self.global_ports = 0
        self.radix = p + self.local_ports

    @classmethod
    def from_config(cls, config) -> "FlattenedButterfly":
        """Build the fabric from ``SimConfig.fb_routers`` / ``p``."""
        return cls(config.fb_routers, p=2 if config.p is None else config.p)

    # ------------------------------------------------------------------ ids
    def group_of(self, router: int) -> int:
        """Always group 0: the whole fabric is one group."""
        return 0

    def index_in_group(self, router: int) -> int:
        """Router id and index-in-group coincide (single group)."""
        return router

    def router_id(self, group: int, index: int) -> int:
        return index

    def router_of_node(self, node: int) -> int:
        return node // self.p

    def node_index(self, node: int) -> int:
        return node % self.p

    def node_id(self, router: int, k: int) -> int:
        return router * self.p + k

    # ----------------------------------------------------------- local ports
    def local_port_to(self, src_index: int, dst_index: int) -> int:
        """Local output port of ``src_index`` reaching ``dst_index``
        (complete graph: defined for every ordered pair)."""
        if src_index == dst_index:
            raise ValueError("no local link from a router to itself")
        return dst_index if dst_index < src_index else dst_index - 1

    def local_neighbor_index(self, src_index: int, port: int) -> int:
        if not 0 <= port < self.local_ports:
            raise ValueError(f"local port {port} out of range")
        return port if port < src_index else port + 1

    # ---------------------------------------------------------- global ports
    def global_neighbor(self, router: int, gport: int) -> tuple[int, int]:
        raise UnsupportedTopologyError(
            "the 1-D flattened butterfly has no global ports "
            "(every link is LOCAL inside its single group)"
        )

    # ------------------------------------------------------------- route maps
    def exit_port(self, group: int, target_group: int) -> tuple[int, int]:
        raise UnsupportedTopologyError(
            "the 1-D flattened butterfly is a single group; there are no "
            "group-to-group exit ports"
        )

    def target_group_of(self, router: int, gport: int) -> int:
        raise UnsupportedTopologyError(
            "the 1-D flattened butterfly has no global ports"
        )

    def minimal_hops(self, src_router: int, dst_router: int) -> int:
        """0 or 1: every router pair is directly connected."""
        return 0 if src_router == dst_router else 1

    # --------------------------------------------------------- routing oracle
    def min_hop(self, cur_router: int, packet) -> tuple[PortKind, int, int, int]:
        """(kind, port, target, vc): direct hop, or via the Valiant router.

        VC ascends per hop: the first hop (minimal, or toward the
        Valiant intermediate) rides ``lVC1`` (index 0), the hop leaving
        the intermediate rides ``lVC2`` (index 1) — an acyclic channel
        ordering, so 2 local VCs make the fabric deadlock-free.
        """
        via = packet.valiant_group
        if via is not None and not packet.via_done:
            if cur_router == via:
                packet.via_done = True
            else:
                return (PortKind.LOCAL, self.local_port_to(cur_router, via),
                        via, 0)
        if cur_router == packet.dst_router:
            k = self.node_index(packet.dst)
            return PortKind.EJECT, k, k, 0
        vc = 1 if via is not None and packet.via_done else 0
        return (PortKind.LOCAL, self.local_port_to(cur_router, packet.dst_router),
                packet.dst_router, vc)

    def pick_via(self, rng, packet) -> int:
        """Random Valiant intermediate *router*, excluding source and
        destination routers."""
        if self.a < 3:
            raise UnsupportedTopologyError(
                "Valiant routing on a flattened butterfly needs at least 3 "
                f"routers (got {self.a}): no intermediate router exists"
            )
        while True:
            cand = rng.randrange(self.a)
            if cand == packet.src_router or cand == packet.dst_router:
                continue
            return cand

    def escape_ring(self):
        """Trivial Hamiltonian ring ``0 -> 1 -> ... -> R-1 -> 0`` over
        local links (the local network is complete)."""
        return {
            r: (
                (r + 1) % self.a,
                PortKind.LOCAL,
                self.local_port_to(r, (r + 1) % self.a),
            )
            for r in range(self.a)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlattenedButterfly(routers={self.a}, p={self.p}, "
            f"nodes={self.num_nodes}, radix={self.radix})"
        )
