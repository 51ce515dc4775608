"""OFAR baseline — On-the-Fly Adaptive Routing (García et al., ICPP 2012, [12]).

The only prior mechanism with both local and global misrouting.  Its
adaptive network is completely unrestricted (cycles allowed); deadlock
is avoided by an *escape subnetwork*: a Hamiltonian ring over all
routers under bubble flow control.  The reproduced paper motivates RLM
and OLM against OFAR's weaknesses (§II): the ring's poor capacity
congests, escape hops balloon latency, very long paths are possible,
and the scheme cannot work under Wormhole.

Modelling notes:

* the ring occupies one dedicated VC (index ``local_vcs-1`` on local
  ports, ``global_vcs-1`` on global ports).  The original uses a
  VC-less physical ring; in a VC-based router model a dedicated VC is
  the standard embedding.  OFAR therefore budgets 4/3 VCs here —
  strictly more than RLM/OLM's 3/2, which only reinforces the paper's
  cost argument.
* bubble flow control: a packet *entering* the ring needs room for two
  packets in the next ring buffer, a packet already on the ring needs
  one — the classic bubble condition that keeps the ring deadlock-free.
* a packet on the ring may return to the adaptive network whenever a
  regular (minimal or misrouted) output is available; otherwise it
  follows the ring, possibly for many hops (the long-path weakness).
* VCT only, as the paper states for OFAR.
"""

from __future__ import annotations

from repro.core.base import AdaptiveRouting, Decision
from repro.topology.base import PortKind
from repro.topology.ring import hamiltonian_ring
from repro.registry import ROUTING_REGISTRY


@ROUTING_REGISTRY.register("ofar", description="OFAR: adaptive routing over a bubble escape ring (prior work [12])")
class OfarRouting(AdaptiveRouting):
    """OFAR: unrestricted misrouting + escape-ring deadlock avoidance."""

    name = "ofar"
    local_vcs = 4   # 3 adaptive + 1 escape
    global_vcs = 3  # 2 adaptive + 1 escape
    requires_vct = True

    ESCAPE_LVC = 3
    ESCAPE_GVC = 2

    def __init__(self, topo, config, trigger, rng) -> None:
        super().__init__(topo, config, trigger, rng)
        self._ring = hamiltonian_ring(topo)

    # ---- adaptive VC maps: clamped ascending (cycles are tolerated) --------
    def vc_local_minimal(self, packet) -> int:
        return min(packet.g_hops, 2)

    def vc_global(self, packet) -> int:
        return min(packet.g_hops, 1)

    def vc_local_misroute(self, packet) -> int:
        return min(packet.g_hops, 2)

    # ---- decision ----------------------------------------------------------
    def _escape(self, router, packet, now, flit, kind, min_occ) -> Decision | None:
        """Ring fallback of :meth:`AdaptiveRouting.decide`: the minimal
        output ``kind`` holding ``min_occ`` phits offered no adaptive hop."""
        if kind == PortKind.EJECT:
            return None  # ejection frees within a serialization time: wait
        if min_occ <= 0 and packet.mode != "escape":
            return None  # transient serialization block, not congestion
        nxt, ring_kind, port = self._ring[router.rid]
        out_idx = router.out_base[ring_kind] + port
        if ring_kind == PortKind.LOCAL:
            vc = self.ESCAPE_LVC
            target = self.topo.index_in_group(nxt)
        else:
            vc = self.ESCAPE_GVC
            target = None
        out = router.outputs[out_idx]
        if out.busy_until > now:
            return None
        bubbles = 1 if packet.mode == "escape" else 2
        if out.credits[vc] < bubbles * flit.size:
            return None  # bubble condition not met
        return Decision(out_idx, vc, local_target=target)

    def is_escape_hop(self, kind: PortKind, vc: int) -> bool:
        """The dedicated ring VCs are the escape resource."""
        return ((kind == PortKind.LOCAL and vc == self.ESCAPE_LVC)
                or (kind == PortKind.GLOBAL and vc == self.ESCAPE_GVC))

    def on_hop(self, router, packet, decision) -> None:
        super().on_hop(router, packet, decision)
        kind = router.outputs[decision.out].kind
        if kind == PortKind.EJECT:
            return
        if self.is_escape_hop(kind, decision.vc):
            self.ring_hops += 1
            if packet.mode != "escape":  # the previous hop was off the ring
                self.ring_entries += 1
                packet.mode = "escape"
        else:
            packet.mode = None
