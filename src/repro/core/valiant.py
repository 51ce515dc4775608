"""Valiant randomized routing: obligatory misrouting via an intermediate.

Every packet travels minimally to a random intermediate (neither
source nor destination), then minimally to its destination.  The
intermediate token is fabric-defined (``Topology.pick_via``): a
*supernode* on the Dragonfly — paths up to ``l-g-l-g-l``, VCs
``lVC1-gVC1-lVC2-gVC2-lVC3`` — and a *router* on the flattened
butterfly and the torus, where the oracle's VC discipline (ascending
per hop / date-line per phase) keeps the doubled path deadlock-free.
The baseline for adversarial-global traffic.
"""

from __future__ import annotations

from repro.core.base import RoutingAlgorithm
from repro.registry import ROUTING_REGISTRY


@ROUTING_REGISTRY.register("valiant", description="VAL: obliviously randomized Valiant routing (baseline)")
class ValiantRouting(RoutingAlgorithm):
    """Valiant: random intermediate for every packet."""

    name = "valiant"
    local_vcs = 3
    global_vcs = 2

    def decide(self, router, packet, now, flit):
        if (
            packet.valiant_group is None
            and router.rid == packet.src_router
            and packet.dst_router != packet.src_router
        ):
            # re-rolled each blocked cycle until the first hop is granted;
            # committed via Decision.valiant_group on the grant
            tg = self.topo.pick_via(self.rng, packet)
            packet.valiant_group = tg
            try:
                hop = self.minimal_hop(router, packet)
            finally:
                packet.valiant_group = None
            return self._single_output(router, packet, now, flit, hop, via=tg)
        return self._single_output(router, packet, now, flit,
                                   self.minimal_hop(router, packet))
