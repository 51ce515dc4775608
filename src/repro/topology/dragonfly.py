"""Dragonfly geometry: id arithmetic, port maps, minimal-route helpers.

All lookup tables are precomputed at construction so the simulator's hot
loop only does list indexing.
"""

from __future__ import annotations

from repro.registry import TOPOLOGY_REGISTRY
from repro.topology.arrangements import GlobalArrangement, arrangement_by_name
from repro.topology.base import DRAGONFLY_CAPS, PortKind


@TOPOLOGY_REGISTRY.register(
    "dragonfly",
    description="Dragonfly: complete-graph local and global networks (Kim et al.)")
class Dragonfly:
    """A Dragonfly topology with complete-graph local and global networks.

    Provides the full routing-oracle surface of the
    :class:`~repro.topology.base.Topology` protocol: minimal paths are
    ``l-g-l`` shaped, the VC discipline ascends with the global-hop
    count (3 local / 2 global VCs suffice for any Valiant path), and
    the Valiant intermediate token is a *group* id, as in the paper.
    All capability flags are set — every routing mechanism runs here.

    Parameters
    ----------
    h:
        Global ports per router.  With only ``h`` given, the canonical
        well-balanced machine is built: ``p = h`` nodes per router,
        ``a = 2h`` routers per group, ``g = 2h^2 + 1`` groups.
    p, a:
        Override nodes-per-router / routers-per-group.  The global
        network must remain a fully-subscribed complete graph, i.e. the
        group count is always ``a*h + 1``.
    arrangement:
        Name of the global link arrangement (``"palmtree"`` default).
    """

    caps = DRAGONFLY_CAPS
    #: ascending VC discipline: local VC == global hops taken (0..2 on a
    #: Valiant path), global VC == global hops taken (0..1)
    route_local_vcs = 3
    route_global_vcs = 2
    #: the ``SimConfig`` fields :meth:`from_config` reads — the fabric's
    #: memo key (see :mod:`repro.topology.fabric`)
    config_fields = ("h", "p", "a", "arrangement")

    def __init__(self, h: int, *, p: int | None = None, a: int | None = None,
                 arrangement: str = "palmtree") -> None:
        if h < 1:
            raise ValueError("h must be >= 1")
        self.h = h
        self.p = h if p is None else p
        self.a = 2 * h if a is None else a
        if self.p < 1 or self.a < 2:
            raise ValueError("need p >= 1 and a >= 2")
        self.num_groups = self.a * self.h + 1
        self.links_per_group = self.a * self.h
        self.num_routers = self.num_groups * self.a
        self.num_nodes = self.num_routers * self.p
        self.local_ports = self.a - 1
        self.global_ports = self.h
        self.radix = self.p + self.local_ports + self.global_ports
        self.arrangement: GlobalArrangement = arrangement_by_name(
            arrangement, self.num_groups, self.links_per_group
        )
        #: router-id shift mapping the fabric onto itself (0: none)
        self.rotation = self.a if self.arrangement.group_shift_invariant else 0
        self._build_tables()

    @classmethod
    def from_config(cls, config) -> "Dragonfly":
        """Build the fabric selected by ``SimConfig.topology`` knobs."""
        return cls(config.h, p=config.p, a=config.a, arrangement=config.arrangement)

    # ------------------------------------------------------------------ ids
    def group_of(self, router: int) -> int:
        """Group id of a router (global router id)."""
        return router // self.a

    def index_in_group(self, router: int) -> int:
        """Router index inside its group, ``0 .. a-1``."""
        return router % self.a

    def router_id(self, group: int, index: int) -> int:
        """Global router id from (group, index-in-group)."""
        return group * self.a + index

    def router_of_node(self, node: int) -> int:
        """Router a compute node is attached to."""
        return node // self.p

    def node_index(self, node: int) -> int:
        """Node's injection/ejection port index at its router, ``0 .. p-1``."""
        return node % self.p

    def node_id(self, router: int, k: int) -> int:
        """Global node id of the k-th node of ``router``."""
        return router * self.p + k

    # ----------------------------------------------------------- local ports
    def local_port_to(self, src_index: int, dst_index: int) -> int:
        """Local output port of router ``src_index`` reaching ``dst_index``.

        Both arguments are indices *within the group*.
        """
        if src_index == dst_index:
            raise ValueError("no local link from a router to itself")
        return dst_index if dst_index < src_index else dst_index - 1

    def local_neighbor_index(self, src_index: int, port: int) -> int:
        """Index-in-group of the router behind local ``port`` of ``src_index``."""
        if not 0 <= port < self.local_ports:
            raise ValueError(f"local port {port} out of range")
        return port if port < src_index else port + 1

    # ---------------------------------------------------------- global ports
    def global_link_index(self, router_index: int, gport: int) -> int:
        """Group-local global-link index of (router-in-group, global port)."""
        return router_index * self.h + gport

    def global_link_owner(self, link: int) -> tuple[int, int]:
        """(router-in-group, global port) owning group-local link ``link``."""
        return link // self.h, link % self.h

    def global_neighbor(self, router: int, gport: int) -> tuple[int, int]:
        """(peer router id, peer global port) across global ``gport``."""
        pg, plink = self.arrangement.peer(
            self.group_of(router), self.global_link_index(self.index_in_group(router), gport))
        pi, pport = self.global_link_owner(plink)
        return self.router_id(pg, pi), pport

    # ------------------------------------------------------------- route maps
    def _build_tables(self) -> None:
        # per group: for each target group, (router index, gport)
        self._exit = []
        for g in range(self.num_groups):
            row: list[tuple[int, int] | None] = [None] * self.num_groups
            for t in range(self.num_groups):
                if t == g:
                    continue
                row[t] = self.global_link_owner(self.arrangement.link_to_group(g, t))
            self._exit.append(row)
        self._compile_min_hops()

    def _compile_min_hops(self) -> None:
        """Compile the minimal-hop oracle into per-router lookup rows.

        The minimal hop is a pure function of (router, objective group)
        outside the objective group and of (index, destination index)
        inside it, so :meth:`min_hop` only indexes two lists.  Hop
        tuples ``(kind, port, target)`` are interned — ``a*(a-1)`` local,
        ``h`` global, ``p`` ejection — so a row costs one pointer per
        group whatever the machine size.
        """
        a = self.a
        #: in-group rows: ``_local_hops[idx][dst_idx]``, ``None`` at ``idx``
        self._local_hops = [
            [None if j == i else (PortKind.LOCAL, self.local_port_to(i, j), j)
             for j in range(a)]
            for i in range(a)
        ]
        global_hops = [(PortKind.GLOBAL, k, k) for k in range(self.h)]
        #: ejection is a complete answer, VC 0 included
        self._eject_hops = [(PortKind.EJECT, k, k, 0) for k in range(self.p)]
        #: ``_group_hops[router][objective group]``, ``None`` at the own group
        self._group_hops = []
        for g in range(self.num_groups):
            exits = self._exit[g]
            for i in range(a):
                local = self._local_hops[i]
                self._group_hops.append([
                    None if e is None
                    else global_hops[e[1]] if e[0] == i
                    else local[e[0]]
                    for e in exits
                ])

    def target_group_of(self, router: int, gport: int) -> int:
        """Group reached through global ``gport`` of ``router``."""
        return self.arrangement.target_group(
            self.group_of(router), self.global_link_index(self.index_in_group(router), gport))

    def exit_port(self, group: int, target_group: int) -> tuple[int, int]:
        """Cached (router-in-group, gport) for the group's link to ``target_group``."""
        e = self._exit[group][target_group]
        if e is None:
            raise ValueError("no global link inside a group")
        return e

    # --------------------------------------------------------- routing oracle
    def min_hop(self, cur_router: int, packet) -> tuple[PortKind, int, int, int]:
        """(kind, port, target, vc) of the minimal hop (paper discipline).

        The routing objective is the Valiant intermediate group while
        ``packet.valiant_group`` is set and no global hop has been
        taken yet, the destination group afterwards; the VC is the
        ascending ``lVC_{g+1}``/``gVC_{g+1}`` map (0-based: the hop
        after ``g`` global hops rides VC ``g``; ejection rides VC 0).
        Two lookups into the rows of :meth:`_compile_min_hops`.
        """
        g_hops = packet.g_hops
        via = packet.valiant_group
        hop = self._group_hops[cur_router][
            packet.dst_group if via is None or g_hops else via]
        if hop is None:  # inside the objective group
            hop = self._local_hops[cur_router % self.a][packet.dst_router % self.a]
            if hop is None:
                return self._eject_hops[packet.dst % self.p]
        return hop[0], hop[1], hop[2], g_hops

    def pick_via(self, rng, packet) -> int:
        """Random Valiant intermediate *group*, excluding source and
        destination groups (the paper's Valiant semantics)."""
        g = self.num_groups
        while True:
            cand = rng.randrange(g)
            if cand == packet.src_group or cand == packet.dst_group:
                continue
            return cand

    def escape_ring(self):
        """Hamiltonian escape ring: snake each group between its global
        entry and exit routers (see :mod:`repro.topology.ring`)."""
        from repro.topology.ring import dragonfly_escape_ring

        return dragonfly_escape_ring(self)

    # ------------------------------------------------------------- distances
    def minimal_hops(self, src_router: int, dst_router: int) -> int:
        """Number of link hops on the minimal path between two routers (0..3)."""
        if src_router == dst_router:
            return 0
        sg, dg = self.group_of(src_router), self.group_of(dst_router)
        if sg == dg:
            return 1
        exit_idx, _ = self.exit_port(sg, dg)
        entry_idx, _ = self.exit_port(dg, sg)
        hops = 1  # the global hop
        if self.index_in_group(src_router) != exit_idx:
            hops += 1
        if self.index_in_group(dst_router) != entry_idx:
            hops += 1
        return hops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dragonfly(h={self.h}, p={self.p}, a={self.a}, groups={self.num_groups}, "
            f"routers={self.num_routers}, nodes={self.num_nodes}, "
            f"arrangement={self.arrangement.name!r})"
        )
