"""The topology protocol: what the engine and routing layers require.

A registered topology (see ``repro.registry.TOPOLOGY_REGISTRY``) is any
class exposing this surface.  The engine builds it from a
:class:`~repro.network.config.SimConfig` via ``from_config`` and only
ever talks to the protocol — ``Simulator`` and ``Router`` have no
knowledge of which fabric they are driving.  It builds it *once per
process*: every point whose config agrees on the class's
``config_fields`` borrows the same instance
(:mod:`repro.topology.fabric`), so an instance must never change after
construction and ``from_config`` may read the declared fields only.  Three fabrics ship with
the package: the :class:`~repro.topology.dragonfly.Dragonfly` of the
reproduced paper, the 1-D
:class:`~repro.topology.flattened_butterfly.FlattenedButterfly` and
the 2-D :class:`~repro.topology.torus.Torus2D`; third parties register
their own fabrics without touching the engine (see
``docs/ADDING_A_TOPOLOGY.md`` for a worked guide).

The protocol is hierarchical (nodes -> routers -> groups) because the
router port model (eject/local/global) and the paper's routing
mechanisms are expressed against that structure; a flat fabric can
present itself as a single group (the flattened butterfly does), and a
multi-dimensional fabric can map one dimension onto LOCAL ports and
the rest onto GLOBAL ports (the torus does).

:class:`PortKind` and :class:`OutputPort` live here too: the router
port layout (``p`` ejection, ``local_ports`` local, ``global_ports``
global ports) is part of the protocol contract, not of any one fabric.

Routing oracle
--------------

Baseline routing (``minimal``/``valiant``) never assumes a path shape;
it asks the fabric for the next hop: :meth:`Topology.min_hop` returns
``(kind, port, target, vc)`` — the first hop of the (Valiant-
constrained) minimal route from the packet's current router, together
with the virtual channel that keeps the fabric's own deadlock-freedom
discipline intact (ascending-per-global-hop on the Dragonfly,
date-line VCs on the torus rings, ascending-per-hop on the flattened
butterfly).  :meth:`Topology.pick_via` draws the Valiant intermediate
token — a *group* on the Dragonfly (the paper's semantics), a *router*
on the flat fabrics — which the engine stores opaquely on
``packet.valiant_group``.

Capability flags
----------------

Adaptive mechanisms need structure beyond the oracle (complete local
graphs for local misrouting, one global link per group pair for
Valiant diverts, bounded ``l-g-l`` path shapes for the paper's VC
disciplines).  A fabric advertises what it has in ``caps``; mechanisms
declare ``required_caps`` and raise
:class:`UnsupportedTopologyError` at construction when the fabric
lacks them (see :class:`~repro.core.base.RoutingAlgorithm`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol, runtime_checkable


class UnsupportedTopologyError(ValueError):
    """A routing mechanism (or helper) needs structure the fabric lacks.

    Raised with an actionable message naming the mechanism, the fabric
    and the missing capability, e.g. *"routing 'rlm' requires the
    'dragonfly-paths' capability, which topology 'torus' does not
    provide"*.
    """


#: ``local_port_to`` works for *any* ordered router pair inside a group
#: (the local network is a complete graph) — required for the adaptive
#: mechanisms' local misrouting.
CAP_LOCAL_COMPLETE = "local-complete"
#: ``exit_port(group, target_group)`` is defined for every group pair
#: (the global network is a complete graph of groups) — required for
#: Valiant diverts / global misrouting inside the source group.
CAP_GROUP_EXITS = "group-exits"
#: minimal paths are Dragonfly-shaped (``l-g-l``, at most two global
#: hops on a Valiant path) — required by the paper's VC disciplines and
#: the parity-sign machinery (PB, PAR-6/2, RLM, OLM).
CAP_DRAGONFLY_PATHS = "dragonfly-paths"

#: what a pre-protocol (PR-1 era) third-party fabric implicitly claimed;
#: used as the default when a topology does not define ``caps``.
DRAGONFLY_CAPS = frozenset(
    {CAP_LOCAL_COMPLETE, CAP_GROUP_EXITS, CAP_DRAGONFLY_PATHS}
)


class PortKind(enum.IntEnum):
    """Kind of a router output port."""

    EJECT = 0
    LOCAL = 1
    GLOBAL = 2


@dataclass(frozen=True)
class OutputPort:
    """An output port of a specific router.

    ``index`` is the port number within its kind: ejection port
    ``0..p-1`` (one per attached node), local port
    ``0..local_ports-1``, global port ``0..global_ports-1``.
    """

    kind: PortKind
    index: int


@runtime_checkable
class Topology(Protocol):
    """Structural interface every registered topology must provide."""

    # ---- sizes
    p: int            #: nodes per router
    a: int            #: routers per group
    h: int            #: global ports per router
    num_nodes: int
    num_routers: int
    num_groups: int
    local_ports: int
    global_ports: int

    # ---- routing-oracle contract
    #: virtual channels the fabric's ``min_hop`` VC discipline may
    #: address on local / global ports (the engine allocates at least
    #: this many per port)
    route_local_vcs: int
    route_global_vcs: int
    #: capability flags (``CAP_*``) the fabric provides
    caps: frozenset

    @classmethod
    def from_config(cls, config) -> "Topology":
        """Build an instance from a :class:`SimConfig`.

        The class declares ``config_fields`` — a tuple naming the
        fields this method reads.  It is handed a view exposing exactly
        those, and the instance is shared by every point that agrees on
        them; the engine refuses a registered class without the
        declaration (``TypeError``).
        """
        ...

    # ---- id arithmetic
    def group_of(self, router: int) -> int: ...
    def index_in_group(self, router: int) -> int: ...
    def router_id(self, group: int, index: int) -> int: ...
    def router_of_node(self, node: int) -> int: ...
    def node_index(self, node: int) -> int: ...
    def node_id(self, router: int, k: int) -> int: ...

    # ---- port maps: the fabric's links are derived from these once, in
    # ``repro.topology.fabric.wiring``, and read from that table after
    def local_port_to(self, src_index: int, dst_index: int) -> int: ...
    def local_neighbor_index(self, src_index: int, port: int) -> int: ...
    def global_neighbor(self, router: int, gport: int) -> tuple[int, int]: ...

    # ---- route maps
    def exit_port(self, group: int, target_group: int) -> tuple[int, int]: ...
    def target_group_of(self, router: int, gport: int) -> int: ...
    def minimal_hops(self, src_router: int, dst_router: int) -> int: ...

    # ---- routing oracle
    def min_hop(self, cur_router: int, packet) -> tuple[PortKind, int, int, int]:
        """First hop of the minimal route for ``packet`` at ``cur_router``.

        Returns ``(kind, port, target, vc)``: the port kind, the port
        index within its kind, the hop target (index-in-group of the
        next router for LOCAL hops, the global port for GLOBAL hops,
        the destination's node index for EJECT) and the virtual channel
        of the fabric's deadlock-free minimal-route discipline.  When
        ``packet.valiant_group`` is set the route is constrained
        through the Valiant intermediate first (``packet.via_done``
        flips once it is reached).
        """
        ...

    def pick_via(self, rng, packet) -> int:
        """Draw a Valiant intermediate token for ``packet`` from ``rng``.

        The token is fabric-defined (a group id on the Dragonfly, a
        router id on the flat fabrics) and stored opaquely on
        ``packet.valiant_group``; only :meth:`min_hop` interprets it.
        """
        ...

    def escape_ring(self):
        """Successor map ``router -> (next_router, port_kind, port_index)``
        of a Hamiltonian ring over all routers (OFAR's escape
        subnetwork), or raise :class:`UnsupportedTopologyError` when no
        ring embedding exists for this instance.
        """
        ...


__all__ = [
    "Topology",
    "PortKind",
    "OutputPort",
    "UnsupportedTopologyError",
    "CAP_LOCAL_COMPLETE",
    "CAP_GROUP_EXITS",
    "CAP_DRAGONFLY_PATHS",
    "DRAGONFLY_CAPS",
]
