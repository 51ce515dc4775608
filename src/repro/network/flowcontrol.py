"""Link-level flow control: Virtual Cut-Through and Wormhole.

The two policies share a unified flit engine.  Under VCT a packet is a
single flit, so the per-flit downstream-space requirement *is* the
whole-packet requirement Kermani & Kleinrock demand; the head can be
forwarded ``latency + 1`` cycles after it starts on the wire
(cut-through).  Under Wormhole the packet is split into small flits
which are store-and-forwarded per flit and a downstream VC only needs
room for one flit — blocked packets then sprawl over several routers,
creating the extended dependencies the paper discusses.
"""

from __future__ import annotations

import abc

from repro.network.packet import Flit, Packet, flitize
from repro.registry import FLOW_CONTROL_REGISTRY


class FlowControl(abc.ABC):
    """Strategy object for flitization and per-hop timing."""

    name: str = "abstract"
    #: whether whole-packet downstream space is guaranteed before a hop
    whole_packet_reservation: bool = False

    @classmethod
    def from_config(cls, config) -> "FlowControl":
        """Build the policy from a :class:`SimConfig` (registry hook)."""
        return cls()

    @abc.abstractmethod
    def flits_of(self, packet: Packet) -> list[Flit]:
        """Split a freshly injected packet into flits."""

    @abc.abstractmethod
    def arrival_delay(self, link_latency: int, flit: Flit) -> int:
        """Cycles after the send grant until the flit is routable downstream."""

    @abc.abstractmethod
    def required_space(self, flit: Flit) -> int:
        """Downstream free phits needed to grant this flit."""


@FLOW_CONTROL_REGISTRY.register(
    "vct", description="Virtual Cut-Through: whole-packet buffer reservation")
class VirtualCutThrough(FlowControl):
    """VCT: one flit per packet, whole-packet buffer check, cut-through timing."""

    name = "vct"
    whole_packet_reservation = True

    def flits_of(self, packet: Packet) -> list[Flit]:
        return flitize(packet, packet.size_phits)

    def arrival_delay(self, link_latency: int, flit: Flit) -> int:
        # head is routable one cycle after it lands; the body streams behind
        return link_latency + 1

    def required_space(self, flit: Flit) -> int:
        return flit.size  # the flit is the whole packet


@FLOW_CONTROL_REGISTRY.register(
    "wh", description="Wormhole: per-flit buffering, blocked packets sprawl")
class Wormhole(FlowControl):
    """WH: fixed-size flits, per-flit buffer check, store-and-forward flits."""

    name = "wh"
    whole_packet_reservation = False

    def __init__(self, flit_size: int) -> None:
        if flit_size <= 0:
            raise ValueError("flit_size must be positive")
        self.flit_size = flit_size

    @classmethod
    def from_config(cls, config) -> "Wormhole":
        return cls(config.flit_phits)

    def flits_of(self, packet: Packet) -> list[Flit]:
        return flitize(packet, self.flit_size)

    def arrival_delay(self, link_latency: int, flit: Flit) -> int:
        return link_latency + flit.size

    def required_space(self, flit: Flit) -> int:
        return flit.size
