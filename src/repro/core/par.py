"""PAR-6/2: the naïve reference mechanism (§III-A).

Progressive Adaptive Routing extended with one local misroute per
intermediate/destination supernode.  The paper avoids deadlock with
Günther's distance classes (VCs ascending along the longest 8-hop path
``l-l-g-l-l-g-l-l``: six local, two global VCs).  This map does not:
the local VC counts local hops, so a ``g-l`` path rides lVC1 after gVC1
and the explored CDG has a cycle (``tests/test_cdg.py``; fix: ROADMAP.md).
Full routing freedom, maximum buffer cost — an upper reference only.
"""

from __future__ import annotations

from repro.core.base import AdaptiveRouting
from repro.topology.base import CAP_DRAGONFLY_PATHS
from repro.registry import ROUTING_REGISTRY


@ROUTING_REGISTRY.register("par62", description="PAR-6/2: naive progressive adaptive routing, 6 local VCs")
class Par62Routing(AdaptiveRouting):
    """PAR with local misrouting, 6 local / 2 global VCs."""

    name = "par62"
    local_vcs = 6
    global_vcs = 2
    required_caps = frozenset({CAP_DRAGONFLY_PATHS})

    def vc_local_minimal(self, packet) -> int:
        return packet.local_hops_total  # ascends along local hops only

    def vc_local_misroute(self, packet) -> int:
        return packet.local_hops_total

    def vc_global(self, packet) -> int:
        return packet.g_hops
