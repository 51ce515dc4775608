"""2-D torus: a ring per dimension, mapped onto the LOCAL/GLOBAL split.

Routers sit on a ``rows x cols`` grid with wrap-around links in both
dimensions.  Against the hierarchical
:class:`~repro.topology.base.Topology` protocol, each *row* is a group:
the X-dimension ring inside a row rides the two LOCAL ports
(``0`` = +1, ``1`` = -1 around the row), and the Y-dimension ring
between rows rides the two GLOBAL ports (``0`` = +1 row, ``1`` = -1
row).  ``h = 2`` global ports per router, ``local_ports = 2``.

Routing is dimension-ordered (X, then Y) per Valiant phase, and the VC
discipline is the classic *date-line* scheme generalised to two
phases: within one ring traversal the VC index is ``phase + crossed``,
where ``crossed`` flips after the traversal passes the wrap-around
edge and ``phase`` is 0 before the Valiant intermediate and 1 after
it — local VCs {0,1} for minimal, {0..2} for Valiant X, global {0..2}
for Valiant Y, hence ``route_local_vcs = route_global_vcs = 3``.  The
minimal CDG is acyclic; the Valiant one has a cycle, as VC 1 carries
phase 0 past the date line and phase 1 before it (``tests/test_cdg.py``),
and deadlocks at load 1.0 with tight buffers (fix: ROADMAP.md).

The torus advertises *no* capability flags: its local network is a
ring, not a complete graph (no local misrouting), it has no per-group
exit ports (no source-group Valiant diverts), and its paths are not
``l-g-l`` shaped.  ``minimal``/``valiant`` run through the hop oracle;
OFAR runs with its escape ring but degrades to minimal-plus-ring (no
misrouting); the Dragonfly-specific mechanisms (PB, PAR-6/2, RLM, OLM)
raise :class:`~repro.topology.base.UnsupportedTopologyError`.
"""

from __future__ import annotations

from repro.registry import TOPOLOGY_REGISTRY
from repro.topology.base import PortKind, UnsupportedTopologyError


def _ring_step(cur: int, tgt: int, start: int, k: int) -> tuple[int, int]:
    """(direction port, crossed) of the next hop around a ``k``-ring.

    Direction is the shortest way from ``cur`` to ``tgt`` (ties go the
    +1 way, consistently along the whole traversal); ``crossed`` is 1
    when the traversal that began at ``start`` has already passed the
    direction's wrap-around edge — the date-line VC bump.
    """
    if (tgt - cur) % k <= (cur - tgt) % k:
        return 0, 1 if cur < start else 0
    return 1, 1 if cur > start else 0


@TOPOLOGY_REGISTRY.register(
    "torus",
    description="2-D torus: X rings on LOCAL ports per row-group, Y rings on GLOBAL ports")
class Torus2D:
    """A ``rows x cols`` 2-D torus with ``p`` nodes per router.

    Parameters
    ----------
    rows, cols:
        Ring sizes of the Y (GLOBAL) and X (LOCAL) dimensions.  Both
        must be >= 3 — a 2-ring would fold its two directed links onto
        one neighbour port pair, which the credit-per-port router model
        cannot represent.
    p:
        Nodes per router (concentration), default 2.
    """

    #: rings are neither complete local graphs nor group-exit networks,
    #: and paths are not Dragonfly-shaped: no capability flags
    caps = frozenset()
    #: date-line discipline over two Valiant phases: VC = phase + crossed
    route_local_vcs = 3
    route_global_vcs = 3
    #: the ``SimConfig`` fields :meth:`from_config` reads (the memo key)
    config_fields = ("torus_rows", "torus_cols", "p")

    def __init__(self, rows: int, cols: int, *, p: int = 2) -> None:
        for name, value in (("rows", rows), ("cols", cols)):
            if value < 3:
                raise ValueError(
                    f"torus {name} must be >= 3, got {value}: a "
                    f"{name[:-1]}-ring of fewer than 3 routers folds both "
                    "link directions onto one neighbour, which the "
                    "per-port credit model cannot represent"
                )
        if p < 1:
            raise ValueError(f"need p >= 1 nodes per router, got {p}")
        self.rows = rows
        self.cols = cols
        self.p = p
        self.a = cols
        self.h = 2
        self.num_groups = rows
        self.num_routers = rows * cols
        self.num_nodes = self.num_routers * p
        self.local_ports = 2
        self.global_ports = 2
        self.radix = p + 4

    @classmethod
    def from_config(cls, config) -> "Torus2D":
        """Build the fabric from ``SimConfig.torus_rows/torus_cols/p``."""
        return cls(config.torus_rows, config.torus_cols,
                   p=2 if config.p is None else config.p)

    # ------------------------------------------------------------------ ids
    def group_of(self, router: int) -> int:
        """Row of a router (groups are rows)."""
        return router // self.cols

    def index_in_group(self, router: int) -> int:
        """Column of a router inside its row, ``0 .. cols-1``."""
        return router % self.cols

    def router_id(self, group: int, index: int) -> int:
        return group * self.cols + index

    def router_of_node(self, node: int) -> int:
        return node // self.p

    def node_index(self, node: int) -> int:
        return node % self.p

    def node_id(self, router: int, k: int) -> int:
        return router * self.p + k

    # ----------------------------------------------------------- local ports
    def local_port_to(self, src_index: int, dst_index: int) -> int:
        """Local port of ``src_index`` reaching ``dst_index`` — defined
        only for X-ring neighbours (the local network is a ring)."""
        if dst_index == (src_index + 1) % self.cols:
            return 0
        if dst_index == (src_index - 1) % self.cols:
            return 1
        raise UnsupportedTopologyError(
            f"routers {src_index} and {dst_index} are not X-ring "
            "neighbours: the torus local network is a ring, not a "
            "complete graph (no 'local-complete' capability)"
        )

    def local_neighbor_index(self, src_index: int, port: int) -> int:
        if port == 0:
            return (src_index + 1) % self.cols
        if port == 1:
            return (src_index - 1) % self.cols
        raise ValueError(f"local port {port} out of range")

    # ---------------------------------------------------------- global ports
    def global_neighbor(self, router: int, gport: int) -> tuple[int, int]:
        """(peer router id, peer global port) across Y-ring ``gport``.

        Port 0 reaches row+1 (arriving on the peer's port 1), port 1
        reaches row-1 (arriving on the peer's port 0).
        """
        g = self.group_of(router)
        i = self.index_in_group(router)
        if gport == 0:
            return self.router_id((g + 1) % self.rows, i), 1
        if gport == 1:
            return self.router_id((g - 1) % self.rows, i), 0
        raise ValueError(f"global port {gport} out of range")

    # ------------------------------------------------------------- route maps
    def exit_port(self, group: int, target_group: int) -> tuple[int, int]:
        raise UnsupportedTopologyError(
            "a torus row has no single exit link per target row (every "
            "router has its own Y links); route through the min_hop "
            "oracle instead (no 'group-exits' capability)"
        )

    def target_group_of(self, router: int, gport: int) -> int:
        g = self.group_of(router)
        if gport == 0:
            return (g + 1) % self.rows
        if gport == 1:
            return (g - 1) % self.rows
        raise ValueError(f"global port {gport} out of range")

    def minimal_hops(self, src_router: int, dst_router: int) -> int:
        """Sum of the two ring distances (dimension-order path length)."""
        sc, dc = self.index_in_group(src_router), self.index_in_group(dst_router)
        sr, dr = self.group_of(src_router), self.group_of(dst_router)
        dx = min((dc - sc) % self.cols, (sc - dc) % self.cols)
        dy = min((dr - sr) % self.rows, (sr - dr) % self.rows)
        return dx + dy

    # --------------------------------------------------------- routing oracle
    def min_hop(self, cur_router: int, packet) -> tuple[PortKind, int, int, int]:
        """(kind, port, target, vc): dimension-ordered X-then-Y hop.

        While ``packet.valiant_group`` (a *router* token here) is
        pending, the objective is the intermediate router (phase 0);
        afterwards the destination router (phase 1 when a Valiant
        detour was taken).  The VC is ``phase + crossed`` per the
        date-line scheme (see the module docstring).
        """
        via = packet.valiant_group
        if via is not None and not packet.via_done:
            if cur_router == via:
                packet.via_done = True
            else:
                return self._hop_toward(cur_router, via, packet, 0)
        if cur_router == packet.dst_router:
            k = self.node_index(packet.dst)
            return PortKind.EJECT, k, k, 0
        phase = 1 if via is not None else 0
        return self._hop_toward(cur_router, packet.dst_router, packet, phase)

    def _hop_toward(self, cur: int, tgt: int, packet, phase: int):
        """First dimension-order hop ``cur -> tgt`` with its date-line VC."""
        cols = self.cols
        # the current traversal started at the source router in phase 0
        # and at the Valiant intermediate in phase 1
        origin = packet.src_router if phase == 0 else packet.valiant_group
        ci, ti = cur % cols, tgt % cols
        if ci != ti:  # X first (LOCAL ring inside the row)
            port, crossed = _ring_step(ci, ti, origin % cols, cols)
            vc = min(phase + crossed, self.route_local_vcs - 1)
            nxt = (ci + 1) % cols if port == 0 else (ci - 1) % cols
            return PortKind.LOCAL, port, nxt, vc
        cg, tg = cur // cols, tgt // cols
        port, crossed = _ring_step(cg, tg, origin // cols, self.rows)
        vc = min(phase + crossed, self.route_global_vcs - 1)
        return PortKind.GLOBAL, port, port, vc

    def pick_via(self, rng, packet) -> int:
        """Random Valiant intermediate *router*, excluding source and
        destination routers."""
        n = self.num_routers
        while True:
            cand = rng.randrange(n)
            if cand == packet.src_router or cand == packet.dst_router:
                continue
            return cand

    # -------------------------------------------------------------- escape
    def escape_ring(self):
        """Hamiltonian ring over the grid: a serpentine over rows.

        With an even row count the serpentine closes through the Y
        wrap-around link directly; with an odd row count, row 0 is
        covered in full and column 0 serves as the return highway (the
        last row reaches it over the X wrap-around link).  Both
        constructions only use ring-neighbour links, so they exist for
        every ``rows, cols >= 3`` torus.
        """
        succ: dict[int, tuple[int, PortKind, int]] = {}
        rid = self.router_id

        def x_step(r: int, c: int, port: int) -> None:
            nxt = (c + 1) % self.cols if port == 0 else (c - 1) % self.cols
            succ[rid(r, c)] = (rid(r, nxt), PortKind.LOCAL, port)

        def y_step(r: int, c: int, port: int) -> None:
            nr = (r + 1) % self.rows if port == 0 else (r - 1) % self.rows
            succ[rid(r, c)] = (rid(nr, c), PortKind.GLOBAL, port)

        if self.rows % 2 == 0:
            # serpentine over all columns; close via the Y wrap at col 0
            for r in range(self.rows):
                rightward = r % 2 == 0
                cols = range(self.cols - 1) if rightward else range(self.cols - 1, 0, -1)
                for c in cols:
                    x_step(r, c, 0 if rightward else 1)
                y_step(r, self.cols - 1 if rightward else 0, 0)
            return succ
        # odd row count: full row 0, serpentine rows 1.. over cols 1..,
        # X-wrap into the column-0 highway, highway back up to (0, 0)
        for c in range(self.cols - 1):
            x_step(0, c, 0)
        y_step(0, self.cols - 1, 0)
        for r in range(1, self.rows):
            leftward = r % 2 == 1
            cols = range(self.cols - 1, 1, -1) if leftward else range(1, self.cols - 1)
            for c in cols:
                x_step(r, c, 1 if leftward else 0)
            if r < self.rows - 1:
                y_step(r, 1 if leftward else self.cols - 1, 0)
        x_step(self.rows - 1, self.cols - 1, 0)  # X wrap onto the highway
        for r in range(self.rows - 1, 0, -1):
            y_step(r, 0, 1)
        return succ

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Torus2D(rows={self.rows}, cols={self.cols}, p={self.p}, "
            f"routers={self.num_routers}, nodes={self.num_nodes})"
        )
