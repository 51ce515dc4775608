"""Routing framework: decisions, the adaptive skeleton, VC discipline.

All six mechanisms (Minimal, Valiant, Piggybacking, PAR-6/2, RLM, OLM)
are expressed against this interface.  A routing algorithm is consulted
every cycle for the head packet of each input VC until the hop is
granted — this is the paper's *on-the-fly* adaptivity: "the routing
decision can be revisited on each hop".

Virtual-channel indices are 0-based internally (``lVC1`` of the paper is
local VC index 0).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.core.trigger import MisroutingTrigger
from repro.topology.base import (
    CAP_GROUP_EXITS,
    CAP_LOCAL_COMPLETE,
    DRAGONFLY_CAPS,
    PortKind,
    Topology,
    UnsupportedTopologyError,
)

if TYPE_CHECKING:  # avoid a runtime cycle with repro.network
    from repro.network.packet import Packet

_EJECT, _LOCAL, _GLOBAL = PortKind.EJECT, PortKind.LOCAL, PortKind.GLOBAL
# The misroute samplers draw ``rng.randrange(n)`` the way CPython's
# ``Random._randbelow`` does — ``getrandbits(n.bit_length())``, redrawn
# while ``>= n`` — minus two call frames per draw; the word stream is
# the same (``traffic.mtstream.StreamRandom._randbelow`` mirrors the
# same loop, and the engine goldens pin it).


class Decision:
    """A grantable hop proposed by a routing algorithm.

    ``out`` is the router-local output index; ``vc`` the downstream VC.
    The flags are applied to the packet when the head flit is granted.
    """

    __slots__ = ("out", "vc", "valiant_group", "is_local_misroute", "local_target")

    def __init__(self, out: int, vc: int, *, valiant_group: int | None = None,
                 is_local_misroute: bool = False, local_target: int | None = None) -> None:
        self.out = out
        self.vc = vc
        self.valiant_group = valiant_group
        self.is_local_misroute = is_local_misroute
        #: index-in-group of the local hop target (for parity-sign
        #: bookkeeping): every LOCAL decision names it
        self.local_target = local_target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Decision(out={self.out}, vc={self.vc}, misroute={self.is_local_misroute})"


class RoutingAlgorithm(abc.ABC):
    """Base class for routing mechanisms.

    Baseline mechanisms (minimal, Valiant) are fabric-agnostic: they
    route through the topology's ``min_hop`` oracle.  Mechanisms that
    need structure beyond the oracle declare it in ``required_caps``
    (capability flags from :mod:`repro.topology.base`); construction
    raises :class:`~repro.topology.base.UnsupportedTopologyError` with
    an actionable message when the fabric lacks one.
    """

    name: str = "abstract"
    #: VCs the mechanism needs per local port (3 for all but PAR-6/2's 6)
    local_vcs = 3
    #: VCs per global port
    global_vcs = 2
    #: True when the mechanism relies on whole-packet reservation (OLM)
    requires_vct = False
    #: capability flags the fabric must provide (checked at construction)
    required_caps: frozenset = frozenset()
    #: True when the mechanism's paths are a pure function of injection
    #: state (no in-transit adaptivity, no RNG draws, no per-cycle hook),
    #: which licenses the array core's precomputed-route hot path
    #: (:mod:`repro.network.arraysim`); adaptive mechanisms stay False
    #: and run on the wheel path
    array_core = False

    def __init__(self, topo: Topology, config, trigger: MisroutingTrigger, rng) -> None:
        self.topo = topo
        self.config = config
        self.trigger = trigger
        self.rng = rng
        #: misrouting hops granted so far (for boundary samplers)
        self.local_misroutes = 0
        self.global_misroutes = 0
        #: escape-ring hops and ring entries granted so far (for boundary
        #: samplers): only a mechanism with a ring (OFAR) moves them
        self.ring_hops = 0
        self.ring_entries = 0
        self._min_hop = topo.min_hop
        # fabrics predating the capability flags were Dragonfly-shaped
        self.topo_caps: frozenset = getattr(topo, "caps", DRAGONFLY_CAPS)
        missing = self.required_caps - self.topo_caps
        if missing:
            raise UnsupportedTopologyError(
                f"routing {self.name!r} requires the "
                f"{', '.join(sorted(repr(c) for c in missing))} "
                f"capability of topology {config.topology!r}, which it "
                "does not provide; fabric-agnostic mechanisms here are "
                "'minimal', 'valiant' and 'ofar'"
            )

    # ------------------------------------------------------------------ API
    @abc.abstractmethod
    def decide(self, router, packet: Packet, now: int, flit) -> Decision | None:
        """Return a currently-grantable hop for ``packet`` at ``router``.

        ``None`` means stall this cycle (the engine retries next cycle).
        Availability (serialization, credits, WH ownership) must already
        be verified for the returned decision.

        A refusal may additionally set ``packet.retry_at`` to the cycle
        the blocking output stops serialising (its ``busy_until``) —
        the wheel engine then skips the calls in between — but only
        when every call until then would refuse again without drawing
        from ``self.rng`` and without any side effect: the output is the
        head's only admissible one given its frozen packet state.  The
        shared helpers (:meth:`_single_output`, the adaptive skeleton's
        wait exits) do this; a mechanism that never sets it is merely
        re-consulted every cycle.
        """

    def per_cycle(self, sim, now: int) -> None:
        """Hook called once per cycle (used by Piggybacking broadcasts)."""

    def is_escape_hop(self, kind: PortKind, vc: int) -> bool:
        """Whether a hop on ``(kind, vc)`` rides an escape subnetwork.

        Only deadlock-avoidance mechanisms with a dedicated escape
        resource override this (OFAR's bubble ring); such a mechanism
        counts its head hops onto the ring in ``ring_hops`` and its
        entries (a ring hop whose previous hop was off the ring) in
        ``ring_entries``, and the array core never runs it.
        """
        return False

    def on_hop(self, router, packet: Packet, decision: Decision) -> None:
        """Apply packet-state updates when a head flit is granted.

        The engine calls this exactly once per hop.  Subclasses may
        extend; the hop counters advance in
        :meth:`~repro.topology.route.RouteState.take_hop`, the decision's
        flags are applied here.
        """
        packet.take_hop(router.outputs[decision.out].kind, router.idx,
                        decision.local_target, decision.vc)
        if decision.valiant_group is not None:
            packet.valiant_group = decision.valiant_group
            packet.committed = True
            packet.global_misrouted = True
            self.global_misroutes += 1
        if decision.is_local_misroute:
            packet.misrouted_group = True
            packet.local_misroutes += 1
            self.local_misroutes += 1

    # ------------------------------------------------------- shared helpers
    def minimal_hop(self, router, packet: Packet):
        """The fabric's minimal hop here: ``(out_idx, kind, target, vc)``.

        Thin adapter over the topology's
        :meth:`~repro.topology.base.Topology.min_hop` oracle — the
        fabric decides the path shape *and* the deadlock-free VC;
        this method only maps the protocol-level port index onto the
        router's output index (``Router.out_base``, indexed by
        :class:`PortKind`).  ``target`` is the index-in-group of the
        next router for LOCAL hops, the node index for EJECT, and the
        global port for GLOBAL hops.
        """
        kind, port, target, vc = self._min_hop(router.rid, packet)
        return router.out_base[kind] + port, kind, target, vc

    def _single_output(self, router, packet: Packet, now: int, flit, hop,
                       via: int | None = None) -> Decision | None:
        """Grant or refuse the one admissible ``hop`` (a :meth:`minimal_hop`).

        The availability tests are :meth:`Router.can_accept`'s, read off
        the output unit once.  ``via`` is a Valiant token drawn for this
        very call (committed by the returned decision).  A refusal
        because the output serialises until ``busy_until`` is reported
        through ``packet.retry_at`` (``docs/ARCHITECTURE.md``,
        *stall-aware head retry*) — unless a random number was drawn to
        get here (``via``), in which case every cycle's call matters.
        """
        out, kind, target, vc = hop
        o = router.outputs[out]
        busy = o.busy_until
        if busy > now:
            if via is None:
                packet.retry_at = busy
            return None
        if kind is not _EJECT and (
                o.credits[vc] < flit.size
                or (not flit.is_tail and o.owner[vc] is not None)):
            return None  # no room downstream / wormhole VC held by another packet
        return Decision(out, vc, valiant_group=via,
                        local_target=target if kind is _LOCAL else None)

    def pick_valiant_group(self, packet: Packet) -> int:
        """Random Valiant intermediate token, excluding source and
        destination (used by PB's injection-time choice).

        Delegates to ``Topology.pick_via`` so the draw — and the RNG
        stream it consumes — has exactly one implementation per fabric.
        """
        return self.topo.pick_via(self.rng, packet)


class AdaptiveRouting(RoutingAlgorithm):
    """Skeleton shared by the in-transit adaptive mechanisms (PAR-6/2, RLM, OLM).

    Per cycle: try the minimal output; if unavailable and the packet is
    not committed, sample non-minimal candidates (global misrouting in
    the source group, local misrouting elsewhere) through the
    misrouting trigger.
    """

    #: maximum local hops inside the source group (minimal + divert)
    MAX_SOURCE_LOCAL_HOPS = 2

    def __init__(self, topo: Topology, config, trigger: MisroutingTrigger, rng) -> None:
        super().__init__(topo, config, trigger, rng)
        self._candidates = config.misroute_candidates
        self._global_weight = config.trigger_global_hop_weight
        self._global_for_local = config.allow_global_misroute_local_traffic
        self._group_exits = CAP_GROUP_EXITS in self.topo_caps
        self._local_complete = CAP_LOCAL_COMPLETE in self.topo_caps

    # ---- hooks customised per mechanism -----------------------------------
    def vc_local_minimal(self, packet: Packet) -> int:
        return packet.g_hops

    def vc_global(self, packet: Packet) -> int:
        return packet.g_hops

    def vc_local_misroute(self, packet: Packet) -> int | None:
        """VC for a local misroute hop, or ``None`` when not permitted."""
        return packet.g_hops

    def local_misroute_valid(self, router, packet: Packet, via: int, target: int) -> bool:
        """Mechanism-specific validity of the 2-hop route ``idx -> via -> target``."""
        return True

    def divert_valid(self, router, packet: Packet, via: int) -> bool:
        """Validity of a source-group local hop toward a Valiant exit router."""
        return True

    #: escape-subnetwork fallback ``(router, packet, now, flit, kind,
    #: min_occ) -> Decision | None`` tried when no adaptive hop is
    #: grantable; ``None`` on mechanisms without one (all but OFAR)
    _escape = None

    # ---- skeleton ----------------------------------------------------------
    def decide(self, router, packet: Packet, now: int, flit) -> Decision | None:
        """Minimal first; blocked → trigger-gated global/local misrouting."""
        kind, port, target, _ = self._min_hop(router.rid, packet)
        out = router.out_base[kind] + port
        o = router.outputs[out]
        busy = o.busy_until
        if kind is _EJECT:
            if busy <= now:
                return Decision(out, 0)
            min_occ = 0
        else:
            vc = self.vc_global(packet) if kind is _GLOBAL else self.vc_local_minimal(packet)
            credits = o.credits[vc]
            if busy <= now and credits >= flit.size and (
                    flit.is_tail or o.owner[vc] is None):
                return Decision(out, vc, local_target=target if kind is _LOCAL else None)
            min_occ = o.capacity - credits
        escape = self._escape
        if min_occ <= 0 or (packet.committed and packet.g_hops == 0):
            # a transient serialization block (nothing queued to escape
            # from), or a packet diverted toward its Valiant exit with
            # no further freedom yet: wait for the minimal output
            if escape is not None:
                return escape(router, packet, now, flit, kind, min_occ)
            if busy > now:
                packet.retry_at = busy  # RNG-free refusal: see _single_output
            return None
        if packet.g_hops == 0 and packet.valiant_group is None and self._group_exits and (
                packet.dst_group != packet.src_group or self._global_for_local):
            d = self._try_global_misroute(router, packet, now, flit, min_occ)
            if d is not None:
                return d
        if kind is _LOCAL and self._local_complete:
            d = self._try_local_misroute(router, packet, now, flit, min_occ, target)
            if d is not None:
                return d
        if escape is not None:
            return escape(router, packet, now, flit, kind, min_occ)
        return None

    # ---- global misrouting (source group only) ----------------------------
    def _try_global_misroute(self, router, packet: Packet, now: int, flit,
                             min_occ: int) -> Decision | None:
        """Sample Valiant groups; needs the fabric's one-link-per-group-pair
        structure (``CAP_GROUP_EXITS``, checked by the caller)."""
        topo = self.topo
        getrandbits = self.rng.getrandbits
        allows = self.trigger.allows
        num_groups = topo.num_groups
        bits = num_groups.bit_length()
        src_group = packet.src_group
        # intra-group traffic may divert through its own destination group
        dst_group = packet.dst_group if packet.dst_group != src_group else -1
        # UGAL-style: a Valiant path is ~2x longer, so weigh its queues
        weight = self._global_weight
        outputs = router.outputs
        size = flit.size
        wormhole_head = not flit.is_tail
        for _ in range(self._candidates):
            tg = getrandbits(bits)  # rng.randrange(num_groups): module note
            while tg >= num_groups:
                tg = getrandbits(bits)
            if tg == src_group or tg == dst_group:
                continue
            exit_idx, gport = topo.exit_port(router.group, tg)
            if exit_idx == router.idx:
                out = router.out_base[_GLOBAL] + gport
                vc = self.vc_global(packet)
                target = None
            else:
                if packet.local_hops_group >= self.MAX_SOURCE_LOCAL_HOPS - 1:
                    continue  # the divert local hop would exceed the l-l-g budget
                if not self.divert_valid(router, packet, exit_idx):
                    continue
                out = router.out_base[_LOCAL] + topo.local_port_to(router.idx, exit_idx)
                vc = self.vc_local_minimal(packet)
                target = exit_idx
            o = outputs[out]
            credits = o.credits[vc]
            if o.busy_until <= now and credits >= size and not (
                    wormhole_head and o.owner[vc] is not None) and \
                    allows(min_occ, weight * (o.capacity - credits)):
                return Decision(out, vc, valiant_group=tg, local_target=target)
        return None

    # ---- local misrouting (one per visited group) --------------------------
    def _local_misroute_permitted(self, packet: Packet) -> bool:
        if packet.misrouted_group or packet.local_hops_group != 0:
            return False
        if packet.g_hops == 0:
            # only intra-group traffic misroutes locally in the source group;
            # inter-group packets use the divert path instead
            return packet.dst_group == packet.src_group
        return True

    def _try_local_misroute(self, router, packet: Packet, now: int, flit,
                            min_occ: int, minimal_target: int) -> Decision | None:
        """Sample in-group detours; needs a complete local graph
        (``CAP_LOCAL_COMPLETE``, checked by the caller)."""
        if not self._local_misroute_permitted(packet):
            return None
        vc = self.vc_local_misroute(packet)
        if vc is None:
            return None
        topo = self.topo
        getrandbits = self.rng.getrandbits
        allows = self.trigger.allows
        a = topo.a
        bits = a.bit_length()
        idx = router.idx
        local_base = router.out_base[_LOCAL]
        outputs = router.outputs
        size = flit.size
        wormhole_head = not flit.is_tail
        for _ in range(self._candidates):
            k = getrandbits(bits)  # rng.randrange(a): module note
            while k >= a:
                k = getrandbits(bits)
            if k == idx or k == minimal_target:
                continue
            if not self.local_misroute_valid(router, packet, k, minimal_target):
                continue
            out = local_base + topo.local_port_to(idx, k)
            o = outputs[out]
            credits = o.credits[vc]
            if o.busy_until <= now and credits >= size and not (
                    wormhole_head and o.owner[vc] is not None) and \
                    allows(min_occ, o.capacity - credits):
                return Decision(out, vc, is_local_misroute=True, local_target=k)
        return None
