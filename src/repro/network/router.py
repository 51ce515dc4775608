"""Input-buffered virtual-channel router.

Port layout of a router with ``p`` nodes, ``L = topo.local_ports``
local and ``G = topo.global_ports`` global ports:

* outputs: ``0..p-1`` ejection (one per node), ``p..p+L-1`` local,
  ``p+L..p+L+G-1`` global;
* inputs: ``0..p-1`` injection queues (one per node, single unbounded
  FIFO), then local and global input ports mirroring the outputs.

Each physical input reads at most one flit per cycle (serialization =
flit phits); each output transmits at most one flit at a time.  The
allocation itself lives in :mod:`repro.network.simulator`.

The router is topology-agnostic: the port layout above is derived from
the :class:`~repro.topology.base.Topology` protocol port counts
(``p``, ``local_ports``, ``global_ports`` — ``a-1``/``h`` on the
Dragonfly, ``2``/``2`` on the torus, ``R-1``/``0`` on the flattened
butterfly) and wired from the fabric's wiring table
(:func:`repro.topology.fabric.wiring`), so any registered fabric rides
the same engine fast path.
"""

from __future__ import annotations

from repro.network.buffers import InputPort
from repro.network.ports import OutputUnit
from repro.topology.base import PortKind, Topology

#: practically-infinite capacity for injection queues (open-loop sources)
INJECTION_CAPACITY = 1 << 60


class Router:
    """One router: input VC buffers + output credit state."""

    __slots__ = ("rid", "group", "idx", "inputs", "outputs", "pending",
                 "out_base", "wake_at")

    def __init__(self, rid: int, topo: Topology, links: tuple, *, local_vcs: int,
                 global_vcs: int, local_capacity: int, global_capacity: int,
                 local_latency: int, global_latency: int) -> None:
        """``links`` is this router's row of the fabric's wiring table:
        ``(peer router, peer link port)`` per local, then global port."""
        self.rid = rid
        self.group = topo.group_of(rid)
        self.idx = topo.index_in_group(rid)
        self.pending = 0  # flits buffered across all inputs (fast skip)
        #: earliest cycle a buffered flit can move while every one of them
        #: waits on a serialising port (engine-maintained; arrivals and
        #: injections reset it to 0)
        self.wake_at = 0
        p = topo.p
        nl, ng = topo.local_ports, topo.global_ports
        #: first output index of each :class:`PortKind` (eject, local, global)
        self.out_base = (0, p, p + nl)

        inputs: list[InputPort] = []
        for k in range(p):
            inputs.append(InputPort(1, INJECTION_CAPACITY, k, is_injection=True))
        for q in range(nl):
            inputs.append(InputPort(local_vcs, local_capacity, p + q))
        for k in range(ng):
            inputs.append(InputPort(global_vcs, global_capacity, p + nl + k))
        self.inputs = inputs

        outputs: list[OutputUnit] = []
        for k in range(p):
            outputs.append(OutputUnit(PortKind.EJECT, k, 1, 0, 0, None, None))
        for q in range(nl):
            peer, peer_q = links[q]
            outputs.append(OutputUnit(PortKind.LOCAL, q, local_vcs, local_capacity,
                                      local_latency, peer, p + peer_q))
        for k in range(ng):
            peer, peer_q = links[nl + k]
            outputs.append(OutputUnit(PortKind.GLOBAL, k, global_vcs, global_capacity,
                                      global_latency, peer, p + peer_q))
        self.outputs = outputs

    # ------------------------------------------------------------ port maps
    def out_eject(self, node_index: int) -> int:
        return node_index

    def out_local(self, port: int) -> int:
        return self.out_base[PortKind.LOCAL] + port

    def out_global(self, gport: int) -> int:
        return self.out_base[PortKind.GLOBAL] + gport

    # --------------------------------------------------------- availability
    def can_accept(self, out_idx: int, vc: int, flit, now: int) -> bool:
        """Whether a *head* flit can be granted to ``(out_idx, vc)`` now."""
        o = self.outputs[out_idx]
        if o.busy_until > now:
            return False
        if o.kind == PortKind.EJECT:
            return True
        if o.credits[vc] < flit.size:
            return False
        if not flit.is_tail and o.owner[vc] is not None:
            return False  # wormhole: the downstream VC is held by another packet
        return True

    def can_accept_body(self, out_idx: int, vc: int, flit, now: int) -> bool:
        """Whether a body/tail flit following its head can be granted."""
        o = self.outputs[out_idx]
        if o.busy_until > now:
            return False
        if o.kind == PortKind.EJECT:
            return True
        if o.credits[vc] < flit.size:
            return False
        return o.owner[vc] == flit.packet.pid

    def occupancy(self, out_idx: int, vc: int) -> int:
        """Downstream occupancy in phits of output ``out_idx`` VC ``vc``."""
        return self.outputs[out_idx].occupancy(vc)

    def buffered_flits(self) -> int:
        return sum(ip.total_flits() for ip in self.inputs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Router(rid={self.rid}, group={self.group}, idx={self.idx})"
