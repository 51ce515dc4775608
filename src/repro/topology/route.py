"""A packet's routing state, the one hop transition, the one route walker.

:class:`RouteState` is what a fabric's ``min_hop`` oracle may read of a
packet: endpoints, Valiant token and the per-hop counters — ``g_hops``
picks the Dragonfly's ascending VC, the parity-sign type of the last
local hop is what RLM's Table I restricts.  Only
:meth:`RouteState.take_hop` advances them: ``RoutingAlgorithm.on_hop``
per granted hop, :func:`walk` per hop it follows (the array core's route
table and rewind, ``validate_topology``).  ``network.packet.Packet``
extends the class.  No import here reaches ``repro.network`` (whose
package imports the simulator) or numpy.
"""

from __future__ import annotations

from repro.core.paritysign import link_type
from repro.topology.base import PortKind

_EJECT, _LOCAL, _GLOBAL = PortKind.EJECT, PortKind.LOCAL, PortKind.GLOBAL


class RouteState:
    """What ``min_hop`` reads of a packet, and the counters a hop advances."""

    __slots__ = ("src_router", "src_group", "dst", "dst_router", "dst_group",
                 "valiant_group", "via_done", "misrouted_group",
                 # the per-hop counters, in the order of ``counters()``
                 "g_hops", "local_hops_group", "local_hops_total",
                 "prev_local_type", "last_local_vc")

    def __init__(self, src_router: int, src_group: int, dst: int,
                 dst_router: int, dst_group: int) -> None:
        self.src_router = src_router
        self.src_group = src_group
        self.dst = dst
        self.dst_router = dst_router
        self.dst_group = dst_group
        #: the fabric-defined Valiant token (``Topology.pick_via``)
        self.valiant_group: int | None = None
        #: a router-granular token reached (flipped by ``min_hop``; the
        #: Dragonfly's group token resolves through ``g_hops`` instead)
        self.via_done = False
        self.misrouted_group = False
        self.restore()

    def counters(self) -> tuple:
        """The five per-hop counters, in the order :meth:`restore` takes."""
        return (self.g_hops, self.local_hops_group, self.local_hops_total,
                self.prev_local_type, self.last_local_vc)

    def restore(self, counters: tuple = (0, 0, 0, None, 0)) -> None:
        """Set the per-hop counters; by default to an unrouted packet's."""
        (self.g_hops, self.local_hops_group, self.local_hops_total,
         self.prev_local_type, self.last_local_vc) = counters

    def take_hop(self, kind, index: int, target, vc: int) -> None:
        """Advance the counters over one hop out of a ``kind`` port on
        ``vc``, from in-group ``index`` to in-group ``target`` (read on
        LOCAL hops).  An eject hop changes nothing."""
        if kind == _GLOBAL:
            self.g_hops += 1
            self.local_hops_group = 0
            self.misrouted_group = False
            self.prev_local_type = None
        elif kind == _LOCAL:
            self.local_hops_group += 1
            self.local_hops_total += 1
            self.last_local_vc = vc
            self.prev_local_type = link_type(index, target)


def walk(topo, links, route: RouteState):
    """Follow ``topo.min_hop`` for ``route`` from its source router over
    ``links`` (the fabric's wiring table), Valiant leg included, yielding
    ``(router, *min_hop(router, route))`` per hop, the eject hop last.

    A link hop is applied to ``route`` before it is yielded: a consumer
    that stops after ``n`` hops holds what ``n`` grants leave.  A walk
    that never ejects never ends; bound it.
    """
    min_hop, index_in_group = topo.min_hop, topo.index_in_group
    nl = topo.local_ports
    cur = route.src_router
    while True:
        kind, port, target, vc = min_hop(cur, route)
        if kind == _EJECT:
            yield cur, kind, port, target, vc
            return
        route.take_hop(kind, index_in_group(cur), target, vc)
        yield cur, kind, port, target, vc
        cur = links[cur][port if kind == _LOCAL else nl + port][0]
