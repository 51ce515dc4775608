"""Minimal routing: always the shortest path.

Fabric-agnostic: the hop (and its virtual channel) comes from the
topology's ``min_hop`` oracle, so the same mechanism runs on the
Dragonfly (at most ``l-g-l``, VC ascending with the global-hop count —
Günther-style deadlock freedom for 3-hop paths), the flattened
butterfly (one hop) and the torus (dimension-ordered X-then-Y with
date-line VCs).  The baseline of the paper's uniform-traffic
comparison.
"""

from __future__ import annotations

from repro.core.base import RoutingAlgorithm
from repro.registry import ROUTING_REGISTRY


@ROUTING_REGISTRY.register("minimal", description="MIN: always the minimal path (baseline)")
class MinimalRouting(RoutingAlgorithm):
    """Deterministic minimal routing (no misrouting of any kind)."""

    name = "minimal"
    local_vcs = 3
    global_vcs = 2
    #: deterministic and oblivious: the whole path is fixed at injection,
    #: so the array core may precompute it (see arraysim.py)
    array_core = True

    def decide(self, router, packet, now, flit):
        return self._single_output(router, packet, now, flit,
                                   self.minimal_hop(router, packet))
