"""Piggybacking (PB) — Jiang, Kim & Dally, ISCA'09.

Source-routed indirect adaptive routing: each router broadcasts the
saturation state of its global links to the other routers of its
supernode ("piggybacked" on regular traffic), and every packet chooses
**once, at injection**, between the minimal route and a Valiant route,
based on the (possibly stale) flag of its minimal global channel.

Modelling choices (documented in docs/DESIGN.md §4): a global channel is
flagged saturated when its mean downstream occupancy exceeds
``pb_threshold``; flags are re-broadcast every ``pb_update_period``
cycles (default: the local link latency).  The deciding router reads
its *own* links live.  As in the paper's §IV-A, intra-supernode traffic
may also be sent over a Valiant path when the minimal local queue is
congested — this is what lifts PB to ~0.5 phits/node/cycle under pure
ADVL traffic in Figure 6a.
"""

from __future__ import annotations

from repro.core.base import RoutingAlgorithm
from repro.topology.base import CAP_DRAGONFLY_PATHS
from repro.registry import ROUTING_REGISTRY


@ROUTING_REGISTRY.register("pb", description="PB: source-adaptive UGAL with piggybacked congestion flags [12]")
class PiggybackingRouting(RoutingAlgorithm):
    """PB: injection-time choice between minimal and Valiant per link flags."""

    name = "pb"
    local_vcs = 3
    global_vcs = 2
    required_caps = frozenset({CAP_DRAGONFLY_PATHS})

    def __init__(self, topo, config, trigger, rng) -> None:
        super().__init__(topo, config, trigger, rng)
        self._flags = [
            [False] * topo.links_per_group for _ in range(topo.num_groups)
        ]
        self._period = max(1, config.pb_update_period or 1)
        self._threshold = config.pb_threshold
        #: (router-in-group, global port) owning each group-local link
        self._owners = [topo.global_link_owner(link)
                        for link in range(topo.links_per_group)]
        #: per group, the global :class:`OutputUnit` of each link; resolved
        #: at the first broadcast, when ``sim.routers`` is known
        self._link_outputs: list[list] | None = None

    # ------------------------------------------------------------ broadcast
    def per_cycle(self, sim, now: int) -> None:
        if now % self._period:
            return
        if self._link_outputs is None:
            routers, router_id = sim.routers, self.topo.router_id
            self._link_outputs = []
            for g in range(self.topo.num_groups):
                owners = [(routers[router_id(g, ridx)], gport)
                          for ridx, gport in self._owners]
                self._link_outputs.append(
                    [router.outputs[router.out_global(gport)] for router, gport in owners])
        threshold = self._threshold
        for row, outs in zip(self._flags, self._link_outputs):
            for link, out in enumerate(outs):
                row[link] = out.mean_occupancy_fraction() > threshold

    def _link_flag(self, router, group: int, link: int) -> bool:
        """Flag of a global link; the owner router reads it live."""
        ridx, gport = self._owners[link]
        if router.group == group and router.idx == ridx:
            out = router.outputs[router.out_global(gport)]
            return out.mean_occupancy_fraction() > self._threshold
        return self._flags[group][link]

    # ------------------------------------------------------------- decision
    def _choose_mode(self, router, packet) -> None:
        topo = self.topo
        if packet.dst_router == packet.src_router:
            packet.mode = "min"
            return
        if packet.dst_group == packet.src_group:
            # Local traffic: compare against the minimal local queue.  In an
            # input-buffered router the ADVL backlog accumulates in the
            # injection queues (the saturated link drains its downstream
            # buffer fine), so the source queue depth is part of the signal —
            # this is what lets PB push local traffic onto Valiant paths
            # (paper §IV-A, Figure 6a).
            dst_idx = topo.index_in_group(packet.dst_router)
            out = router.outputs[router.out_local(topo.local_port_to(router.idx, dst_idx))]
            inj = router.inputs[topo.node_index(packet.src)].vcs[0]
            backlog = inj.occupancy >= self.config.pb_inj_backlog_packets * packet.size_phits
            congested = backlog or out.mean_occupancy_fraction() > self._threshold
        else:
            link = topo.arrangement.link_to_group(packet.src_group, packet.dst_group)
            congested = self._link_flag(router, packet.src_group, link)
        if not congested:
            packet.mode = "min"
            return
        packet.mode = "val"
        packet.global_misrouted = True
        packet.committed = True
        # prefer an intermediate group whose exit link is not flagged
        tg = None
        for _ in range(max(1, self.config.misroute_candidates)):
            cand = self.pick_valiant_group(packet)
            clink = topo.arrangement.link_to_group(packet.src_group, cand)
            tg = cand
            if not self._link_flag(router, packet.src_group, clink):
                break
        packet.valiant_group = tg

    def decide(self, router, packet, now, flit):
        if packet.mode is None:
            self._choose_mode(router, packet)
        # the oracle's VC is the paper's ascending 3/2 map: the hop after
        # ``g`` global hops rides VC ``g`` (lVC1/gVC1 == 0)
        return self._single_output(router, packet, now, flit,
                                   self.minimal_hop(router, packet))
