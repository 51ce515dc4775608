"""Packets and flits.

A packet carries its routing state (Valiant commitment, hop counters,
per-group misrouting bookkeeping) so that *on-the-fly* adaptive
mechanisms can revisit the routing decision at every hop, as in the
paper; :class:`~repro.topology.route.RouteState` is the part ``min_hop``
reads and the hop transition.  Under VCT a packet is a single flit of
``size_phits`` phits; under Wormhole it is split into fixed-size flits.
"""

from __future__ import annotations

from repro.topology.route import RouteState


class Packet(RouteState):
    """A network packet plus its in-flight routing state."""

    __slots__ = ("pid", "src", "size_phits", "birth",
                 # routing state beyond what min_hop reads
                 "committed", "mode", "retry_at",
                 # instrumentation
                 "hops_log", "delivered_cycle", "local_misroutes", "global_misrouted")

    def __init__(self, pid: int, src: int, dst: int, size_phits: int, birth: int,
                 src_router: int, src_group: int, dst_router: int, dst_group: int) -> None:
        RouteState.__init__(self, src_router, src_group, dst, dst_router, dst_group)
        self.pid = pid
        self.src = src
        self.size_phits = size_phits
        self.birth = birth
        self.committed = False
        self.mode: str | None = None
        #: stall hint: a routing mechanism that refused this head without
        #: drawing a random number, because its only admissible output
        #: serialises until cycle ``c``, stores ``c`` here; the wheel
        #: engine re-decides the head no earlier (``<= now``: no stall)
        self.retry_at = 0
        self.hops_log: list | None = None
        self.delivered_cycle: int | None = None
        self.local_misroutes = 0
        self.global_misrouted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Packet({self.pid}, {self.src}->{self.dst}, g_hops={self.g_hops})"


class Flit:
    """A flow-control unit of a packet.

    ``is_head`` flits carry the routing decision; ``is_tail`` flits
    release virtual-channel ownership.  A single-flit packet (VCT) is
    both head and tail.
    """

    __slots__ = ("packet", "index", "size", "is_head", "is_tail")

    def __init__(self, packet: Packet, index: int, size: int, is_head: bool, is_tail: bool) -> None:
        self.packet = packet
        self.index = index
        self.size = size
        self.is_head = is_head
        self.is_tail = is_tail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit(p{self.packet.pid}#{self.index}{kind},{self.size}ph)"


def flitize(packet: Packet, flit_size: int) -> list[Flit]:
    """Split ``packet`` into flits of at most ``flit_size`` phits.

    The final flit absorbs any remainder so that flit sizes sum to the
    packet size exactly.
    """
    if flit_size <= 0:
        raise ValueError("flit_size must be positive")
    if flit_size >= packet.size_phits:  # VCT fast path: the packet is one flit
        return [Flit(packet, 0, packet.size_phits, True, True)]
    n = max(1, -(-packet.size_phits // flit_size))
    sizes = [flit_size] * (n - 1) + [packet.size_phits - flit_size * (n - 1)]
    flits = [
        Flit(packet, i, size, i == 0, i == n - 1)
        for i, size in enumerate(sizes)
    ]
    assert sum(f.size for f in flits) == packet.size_phits
    return flits
