"""Injection processes: Bernoulli open-loop sources and finite bursts."""

from __future__ import annotations

import random

from repro.registry import PROCESS_REGISTRY
from repro.traffic.patterns import TrafficPattern, UniformRandom


@PROCESS_REGISTRY.register("bernoulli", description="open-loop Bernoulli sources at a fixed offered load")
class BernoulliTraffic:
    """Open-loop Bernoulli sources (the paper's steady-state experiments).

    ``load`` is the offered load in phits/(node·cycle); a node generates
    a packet each cycle with probability ``load / packet_phits``.
    """

    def __init__(self, pattern: TrafficPattern, load: float) -> None:
        if load < 0:
            raise ValueError("load must be non-negative")
        self.pattern = pattern
        self.load = load
        self._dest_map = None  # vectorised destination table (deterministic)
        self._dest_topo = None

    @property
    def exhausted(self) -> bool:
        """Open-loop sources never run dry (unless the load is zero)."""
        return self.load == 0

    def inject(self, sim, now: int) -> None:
        # Runs every cycle for every node: everything is hoisted out of
        # the loop, but the per-node draw order (one uniform per node,
        # destination draws interleaved on hits) is the seed engine's
        # RNG stream, byte for byte.
        p = self.load / sim.config.packet_phits
        if p <= 0:
            return
        rng = sim.rng_traffic
        rand = rng.random
        topo = sim.topo
        dest = self.pattern.dest
        inject_packet = sim.inject_packet
        for node in range(topo.num_nodes):
            if rand() < p:
                d = dest(node, topo, rng)
                if d != node:
                    inject_packet(node, d, now)

    def inject_batch(self, sim, now: int):
        """One cycle's injections as ``(srcs, dsts)`` index arrays.

        The batched-injection protocol: a live array core calls this
        instead of :meth:`inject` and enqueues the arrays — under VCT
        and wormhole alike — without per-packet Python work or a
        ``Packet`` object (the wheel only ever calls :meth:`inject`: at
        its scales numpy's per-call floor costs more than the scalar
        loop).  The pairs are held to ``inject_packet``'s contract:
        equal lengths, no ``src == dst``.  Returns ``None`` to decline
        — the one case is an unrecognised RNG — and the core calls
        :meth:`inject` for that cycle instead.

        The draw stream is the scalar loop's, byte for byte: the first
        call replaces ``sim.rng_traffic`` with a :class:`StreamRandom`
        serving the same generator's word stream.  The uniform pattern
        and the deterministic ones take each cycle from the stream's
        plan (:meth:`StreamRandom.next_cycle`: the gates of a window of
        cycles, with UN's one ``_randbelow(n - 1)`` per hit, in one
        vectorised pass); every other pattern draws its destinations
        itself at the hits of :meth:`StreamRandom.walk_gates`, exactly
        where the scalar loop would draw them.
        """
        # numpy and the stream wrapper load with the first core that
        # batches, never with ``import repro.traffic``
        import numpy as _np

        from repro.traffic.mtstream import StreamRandom

        p = self.load / sim.config.packet_phits
        if p <= 0:
            empty = _np.empty(0, dtype=_np.int64)
            return empty, empty
        rng = sim.rng_traffic
        if type(rng) is not StreamRandom:
            if type(rng) is not random.Random:
                return None  # user-supplied RNG subclass: keep it scalar
            rng = sim.rng_traffic = StreamRandom(rng)
        topo = sim.topo
        n = topo.num_nodes
        pattern = self.pattern
        if pattern.deterministic:
            dmap = self._dest_map
            if dmap is None or self._dest_topo is not topo:
                dmap = _np.array(
                    [pattern.dest(i, topo, None) for i in range(n)],
                    dtype=_np.int64)
                self._dest_map = dmap
                self._dest_topo = topo
            srcs, _ = rng.next_cycle(n, p)
            dsts = dmap[srcs]
            keep = dsts != srcs
            if not keep.all():
                srcs, dsts = srcs[keep], dsts[keep]
            return srcs, dsts
        if type(pattern) is UniformRandom and n > 1:
            # the UN destination is one ``_randbelow(n - 1)`` per hit and
            # never the source: ``d if d < src else d + 1``
            srcs, d = rng.next_cycle(n, p, n - 1)
            return srcs, d + (d >= srcs)
        srcs: list = []
        dsts: list = []
        add_src = srcs.append
        add_dst = dsts.append
        dest = pattern.dest

        def on_hit(s: int) -> None:
            d = dest(s, topo, rng)
            if d != s:
                add_src(s)
                add_dst(d)

        rng.walk_gates(n, p, on_hit)
        return (_np.array(srcs, dtype=_np.int64),
                _np.array(dsts, dtype=_np.int64))


@PROCESS_REGISTRY.register("burst", description="each node queues a fixed burst at cycle 0")
class BurstTraffic:
    """Burst-consumption experiment: each node queues a burst at cycle 0.

    The paper's Figures 6b/9b inject 1000 (VCT) or 89 (WH) packets per
    node and report the cycles needed to drain the network completely.
    """

    def __init__(self, pattern: TrafficPattern, packets_per_node: int) -> None:
        if packets_per_node < 1:
            raise ValueError("packets_per_node must be positive")
        self.pattern = pattern
        self.packets_per_node = packets_per_node
        self._injected = False

    @property
    def exhausted(self) -> bool:
        return self._injected

    def next_injection_cycle(self, now: int) -> int | None:
        """Fast-forward protocol: the burst lands on the next inject call."""
        return None if self._injected else now

    def inject(self, sim, now: int) -> None:
        if self._injected:
            return
        self._injected = True
        topo = sim.topo
        dest = self.pattern.dest
        inject_packet = sim.inject_packet
        ppn = self.packets_per_node
        if self.pattern.deterministic:
            # one destination evaluation per node instead of per packet;
            # deterministic patterns draw nothing, so the RNG stream is
            # untouched either way
            for node in range(topo.num_nodes):
                d = dest(node, topo, None)
                if d != node:
                    for _ in range(ppn):
                        inject_packet(node, d, now)
            return
        rng = sim.rng_traffic
        for node in range(topo.num_nodes):
            for _ in range(ppn):
                d = dest(node, topo, rng)
                if d != node:
                    inject_packet(node, d, now)
