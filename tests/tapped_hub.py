"""The event-fed metrics hub, kept as the oracle of the sampled one.

Before ``MetricsHub`` read engine counters at bucket boundaries it was
this class: fed by every injection, grant, credit, delivery and ring
hop, buckets opened by event timestamps, and an occupancy ledger kept
from grant and credit events.  The engine no longer fires those
events, so :class:`TappedSimulator` — the wheel engine with the event
sites put back, test-side — fires them, and ``test_hub_oracle.py``
holds the sampled hub's ``records()`` and ``series()`` to this one
byte for byte.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from repro.metrics.hub import OBS_SCHEMA_VERSION, _percentile
from repro.network.simulator import Simulator
from repro.topology.base import PortKind

_KIND_NAMES = {int(PortKind.LOCAL): "local", int(PortKind.GLOBAL): "global"}

_EJECT = PortKind.EJECT


class _Bucket:
    """Per-interval accumulators (one per ``bucket`` cycles)."""

    __slots__ = ("injected", "delivered", "delivered_phits", "latency_sum",
                 "latency_max", "latencies", "grants", "local_misroutes",
                 "global_misroutes", "ring_hops", "credit_phits", "occupancy",
                 "inflight")

    def __init__(self, occupancy: dict, inflight: int = 0) -> None:
        self.injected = 0
        self.delivered = 0
        self.delivered_phits = 0
        self.latency_sum = 0
        self.latency_max = 0
        self.latencies: list[int] = []
        self.grants = 0
        self.local_misroutes = 0
        self.global_misroutes = 0
        self.ring_hops = 0
        self.credit_phits = 0
        #: downstream occupancy in phits per (kind, vc) at bucket open
        self.occupancy = occupancy
        #: engine packets in flight at bucket open (Little's-law sample)
        self.inflight = inflight



class TappedSimulator(Simulator):
    """The wheel engine, firing an event per injection, credit and grant.

    Every hub in ``taps`` hears ``on_inject(packet, cycle)``,
    ``on_credit(out, vc, amount, cycle)`` and ``on_grant(router, out,
    vc, flit, decision, cycle)``; a head hop onto an escape-ring VC
    also fires ``on_ring_hop(packet, entry, cycle)`` just before its
    grant, where ``entry`` says the packet's previous hop was off the
    ring.  Deliveries reach hubs as delivery observers.  A subclass of
    ``Simulator`` never carries an array core.
    """

    def __init__(self, config, traffic=None) -> None:
        super().__init__(config, traffic)
        self.taps: list = []

    def inject_packet(self, src: int, dst: int, now: int | None = None):
        pkt = super().inject_packet(src, dst, now)
        for tap in self.taps:
            tap.on_inject(pkt, self.now if now is None else now)
        return pkt

    def step(self) -> None:
        # the credits this step pops come before anything else it does
        # that a hub hears (arrivals are silent)
        t = self.now
        for out, vc, amount in self._cr_wheel[t % self._horizon]:
            for tap in self.taps:
                tap.on_credit(out, vc, amount, t)
        super().step()

    def _grant(self, router, out, sel, t: int) -> None:
        flit, ovc, dec = sel[2], sel[4], sel[5]
        pkt = flit.packet
        entry = pkt.mode != "escape"  # read before on_hop updates it
        super()._grant(router, out, sel, t)
        ring = dec is not None and self.algo.is_escape_hop(out.kind, ovc)
        for tap in self.taps:
            if ring:
                tap.on_ring_hop(pkt, entry, t)
            tap.on_grant(router, out, ovc, flit, dec, t)


class TappedHub:
    """The event-fed hub: every grant, credit and injection heard."""

    def __init__(self, sim, bucket: int = 500) -> None:
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        self.sim = sim
        self.bucket = int(bucket)
        #: downstream occupancy in phits per (kind, vc), seeded from the
        #: live credit state and tracked from grant/credit events after
        #: that (physical state: survives ``reset``)
        self._occ: dict[tuple[int, int], int] = {}
        for router in sim.routers:
            for out in router.outputs:
                if out.kind is _EJECT:
                    continue
                k = int(out.kind)
                for vc, credits in enumerate(out.credits):
                    key = (k, vc)
                    self._occ[key] = self._occ.get(key, 0) + (out.capacity - credits)
        self._attached = True
        self._zero_window(sim.now)
        sim.taps.append(self)
        self._observer = sim.add_delivery_observer(self.on_eject)

    def _zero_window(self, now: int) -> None:
        self.start_cycle = now
        #: packets in flight when the window opened (flow conservation
        #: baseline for :meth:`verify`)
        self._inflight_at_window_start = self.sim.packets_in_flight
        self._buckets: list[_Bucket] = []
        self.injected = 0
        self.delivered = 0
        self.delivered_phits = 0
        self.grants = 0
        self.local_misroutes = 0
        self.global_misroutes = 0
        self.ring_hops = 0
        self.ring_entries = 0
        self.credit_phits = 0
        #: total delivery latency (cycles) over the window — the λ·W
        #: side of the Little's-law identity in :meth:`verify(full=True)`
        self.latency_cycles = 0
        #: smallest single-packet latency seen (None until a delivery)
        self.latency_min: int | None = None
        #: total eject-stamp lead (cycles): deliveries are stamped at
        #: tail-ejection *completion* while the engine removes the
        #: packet from ``packets_in_flight`` at the current cycle, so
        #: each delivery's latency counts ``cycle - now`` packet-cycles
        #: the population never holds — subtracted from the λ·W side of
        #: the Little's-law identity
        self.eject_lead = 0

    # ---------------------------------------------------------------- events
    def _bucket_at(self, cycle: int) -> _Bucket:
        idx = (cycle - self.start_cycle) // self.bucket
        buckets = self._buckets
        if idx < len(buckets):
            return buckets[idx]
        # open every bucket up to idx (fast-forward gaps stay empty but
        # still snapshot the — unchanged — occupancy at their open)
        occ = self._occ
        inflight = self.sim.packets_in_flight
        while len(buckets) <= idx:
            buckets.append(_Bucket(dict(occ), inflight))
        return buckets[idx]

    def on_inject(self, packet, cycle: int) -> None:
        self.injected += 1
        self._bucket_at(cycle).injected += 1
        self._refresh_future_snapshots(cycle)

    def _refresh_future_snapshots(self, cycle: int) -> None:
        """Re-snapshot buckets opened ahead of ``cycle``.

        Eject events are stamped at tail-ejection *completion*
        (``t + size``), so a delivery near a bucket boundary can open
        the next bucket before the current cycle's remaining grants and
        credits apply; those buckets' open cycle is still in the
        future, so their occupancy-at-open (and in-flight sample) must
        track every mutation until it is reached.  The common case (no
        future bucket) costs one index comparison.
        """
        idx = (cycle - self.start_cycle) // self.bucket
        buckets = self._buckets
        if idx + 1 >= len(buckets):
            return
        inflight = self.sim.packets_in_flight
        for j in range(idx + 1, len(buckets)):
            buckets[j].occupancy = dict(self._occ)
            buckets[j].inflight = inflight

    def on_grant(self, router, out, vc: int, flit, decision, cycle: int) -> None:
        self.grants += 1
        b = self._bucket_at(cycle)
        b.grants += 1
        if out.kind is not _EJECT:
            key = (int(out.kind), vc)
            self._occ[key] = self._occ.get(key, 0) + flit.size
            self._refresh_future_snapshots(cycle)
        if decision is not None:
            if decision.is_local_misroute:
                self.local_misroutes += 1
                b.local_misroutes += 1
            if decision.valiant_group is not None:
                self.global_misroutes += 1
                b.global_misroutes += 1

    def on_eject(self, packet, cycle: int) -> None:
        self.delivered += 1
        self.delivered_phits += packet.size_phits
        b = self._bucket_at(cycle)
        b.delivered += 1
        b.delivered_phits += packet.size_phits
        latency = cycle - packet.birth
        b.latency_sum += latency
        self.latency_cycles += latency
        if cycle > self.sim.now:
            self.eject_lead += cycle - self.sim.now
        if latency > b.latency_max:
            b.latency_max = latency
        if self.latency_min is None or latency < self.latency_min:
            self.latency_min = latency
        b.latencies.append(latency)
        self._refresh_future_snapshots(cycle)

    def on_credit(self, out, vc: int, amount: int, cycle: int) -> None:
        self.credit_phits += amount
        self._bucket_at(cycle).credit_phits += amount
        key = (int(out.kind), vc)
        self._occ[key] = self._occ.get(key, 0) - amount
        self._refresh_future_snapshots(cycle)

    def on_ring_hop(self, packet, entry: bool, cycle: int) -> None:
        self.ring_hops += 1
        self._bucket_at(cycle).ring_hops += 1
        if entry:
            self.ring_entries += 1

    # ------------------------------------------------------------- lifecycle
    def reset(self, now: int | None = None) -> None:
        """Restart the measurement window (counters and series) at ``now``."""
        self._zero_window(self.sim.now if now is None else now)

    def detach(self) -> None:
        """Stop observing (idempotent); collected data stays readable.

        The hub lets go of the simulator, so whoever keeps a hub keeps
        no finished point alive, and holds on to what its read-out and
        :meth:`verify` ask of one, as it stood.
        """
        if self._attached:
            self._attached = False
            sim = self.sim
            sim.taps.remove(self)
            sim.remove_delivery_observer(self._observer)
            self.sim = SimpleNamespace(
                now=sim.now, topo=sim.topo, config=sim.config,
                packets_in_flight=sim.packets_in_flight)

    # --------------------------------------------------------------- readout
    def completed_buckets(self, end: int | None = None) -> list[_Bucket]:
        """The buckets fully covered by ``[start_cycle, end)``.

        ``end`` defaults to the simulator's current cycle; trailing
        event-free (fast-forwarded) intervals materialise as empty
        buckets so series lengths always equal elapsed-time / bucket.
        """
        end = self.sim.now if end is None else end
        n = (end - self.start_cycle) // self.bucket
        if n > 0:
            self._bucket_at(self.start_cycle + (n - 1) * self.bucket)
        return self._buckets[:max(0, n)]

    def occupancy_series(self, kind: PortKind, end: int | None = None) -> list[int]:
        """Total downstream occupancy (phits) of ``kind`` ports per bucket.

        Sampled at each bucket's open — an event-derived level, not a
        per-cycle average, so it costs nothing between events.
        """
        k = int(kind)
        return [sum(v for (kk, _), v in b.occupancy.items() if kk == k)
                for b in self.completed_buckets(end)]

    def series(self, end: int | None = None) -> dict:
        """Every bucketed series as plain lists (JSON-safe)."""
        buckets = self.completed_buckets(end)
        nodes = self.sim.topo.num_nodes
        denom = nodes * self.bucket
        out = {
            "cycle": [self.start_cycle + i * self.bucket
                      for i in range(len(buckets))],
            "injected": [b.injected for b in buckets],
            "delivered": [b.delivered for b in buckets],
            "throughput": [b.delivered_phits / denom for b in buckets],
            "latency_mean": [b.latency_sum / b.delivered if b.delivered
                             else math.nan for b in buckets],
            "latency_max": [b.latency_max for b in buckets],
            "local_misroute_rate": [b.local_misroutes / b.delivered
                                    if b.delivered else math.nan
                                    for b in buckets],
            "global_misroute_fraction": [b.global_misroutes / b.delivered
                                         if b.delivered else math.nan
                                         for b in buckets],
            "ring_utilisation": [b.ring_hops / b.grants if b.grants else 0.0
                                 for b in buckets],
            "occupancy_local": self.occupancy_series(PortKind.LOCAL, end),
            "occupancy_global": self.occupancy_series(PortKind.GLOBAL, end),
        }
        p50, p95, p99 = [], [], []
        for b in buckets:
            lat = sorted(b.latencies)
            p50.append(_percentile(lat, 0.50))
            p95.append(_percentile(lat, 0.95))
            p99.append(_percentile(lat, 0.99))
        out["latency_p50"] = p50
        out["latency_p95"] = p95
        out["latency_p99"] = p99
        return out

    # --------------------------------------------------------------- records
    def _occupancy_record(self, occ: dict) -> dict:
        rec: dict = {}
        for (kind, vc), phits in sorted(occ.items()):
            rec.setdefault(_KIND_NAMES.get(kind, str(kind)), {})[str(vc)] = phits
        return rec

    def meta_row(self, end: int | None = None, meta: dict | None = None) -> dict:
        """The stream header row; ``meta`` merges extra identifying fields.

        ``end`` defaults to the simulator's current cycle — pass the
        planned window end instead to emit the header before the window
        has run (the serve layer streams it first, since fixed-length
        measurement windows know their end cycle up front).
        """
        end = self.sim.now if end is None else end
        return {
            "schema": OBS_SCHEMA_VERSION,
            "type": "meta",
            "start_cycle": self.start_cycle,
            "end_cycle": end,
            "bucket": self.bucket,
            "num_nodes": self.sim.topo.num_nodes,
            **(meta or {}),
        }

    def bucket_row(self, index: int) -> dict:
        """Row ``index`` of the bucket stream.

        A bucket's row is final as soon as the simulator has advanced
        past the bucket's closing cycle: every engine event is stamped
        at or after the cycle it is emitted, so closed buckets never
        change — which is what lets the serve layer stream rows live,
        byte-identical to a batch :meth:`records` export at the end.
        """
        b = self._bucket_at(self.start_cycle + index * self.bucket)
        denom = self.sim.topo.num_nodes * self.bucket
        row = {
            "schema": OBS_SCHEMA_VERSION,
            "type": "bucket",
            "index": index,
            "cycle": self.start_cycle + index * self.bucket,
            "injected": b.injected,
            "delivered": b.delivered,
            "delivered_phits": b.delivered_phits,
            "throughput": b.delivered_phits / denom,
            "latency_mean": (b.latency_sum / b.delivered
                             if b.delivered else None),
            "latency_max": b.latency_max,
            "grants": b.grants,
            "local_misroutes": b.local_misroutes,
            "global_misroutes": b.global_misroutes,
            "ring_hops": b.ring_hops,
            "credit_phits": b.credit_phits,
            "occupancy": self._occupancy_record(b.occupancy),
        }
        lat = sorted(b.latencies)
        row["latency_p50"] = _percentile(lat, 0.50) if lat else None
        row["latency_p95"] = _percentile(lat, 0.95) if lat else None
        row["latency_p99"] = _percentile(lat, 0.99) if lat else None
        return row

    def summary_row(self, end: int | None = None) -> dict:
        """The window-total trailer row of the record stream."""
        end = self.sim.now if end is None else end
        nodes = self.sim.topo.num_nodes
        return {
            "schema": OBS_SCHEMA_VERSION,
            "type": "summary",
            "injected": self.injected,
            "delivered": self.delivered,
            "delivered_phits": self.delivered_phits,
            "throughput": (self.delivered_phits / (nodes * (end - self.start_cycle))
                           if end > self.start_cycle else 0.0),
            "grants": self.grants,
            "local_misroutes": self.local_misroutes,
            "global_misroutes": self.global_misroutes,
            "ring_hops": self.ring_hops,
            "ring_entries": self.ring_entries,
            "ring_utilisation": (self.ring_hops / self.grants
                                 if self.grants else 0.0),
            "credit_phits": self.credit_phits,
        }

    def records(self, end: int | None = None, meta: dict | None = None) -> list[dict]:
        """Structured record stream: meta header, one row per bucket, summary.

        Every row carries ``schema``/``type``; bucket rows carry the
        bucket's open cycle and all per-bucket metrics, the summary row
        the window totals.  This is the JSONL interchange schema (see
        README §Observability).  The same rows can be obtained one at a
        time (:meth:`meta_row` / :meth:`bucket_row` / :meth:`summary_row`)
        — the serve layer streams them live as each bucket closes.
        """
        end = self.sim.now if end is None else end
        n = max(0, (end - self.start_cycle) // self.bucket)
        return [self.meta_row(end, meta),
                *(self.bucket_row(i) for i in range(n)),
                self.summary_row(end)]
