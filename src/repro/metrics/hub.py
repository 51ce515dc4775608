"""Metrics over a live simulator: engine counters sampled into time series.

:class:`MetricsHub` reads the engine's cumulative counters (the
delivery ledger ``Simulator.ledger``, grants, returned credit phits,
the routing's local/global misroutes and escape-ring hops and
entries), per-(kind, VC) occupancy (``Simulator.vc_occupancy``) and
the in-flight population at each bucket boundary
(``Simulator.add_sampler``), and files each delivery's latency by the
cycle its tail finished ejecting (``Simulator.add_delivery_observer``).
It turns them into

* the window's ledger difference and latency list (a ``RunResult``)
  and running totals (packets, phits, misroutes, ring hops, credits),
* cycle-bucketed series: throughput, latency mean/percentiles,
  per-port-kind/per-VC occupancy, local/global misroute rates and
  escape-ring utilisation, and
* structured records (one dict per bucket plus a summary) exportable
  as deterministic JSONL under ``results/``.

Boundaries crossed by an idle fast-forward jump read the same state
and share one sample, so the jump stays on and the cycles it skipped
show up as empty buckets.  A hub observes only — it never mutates simulator state or consumes
RNG, so the simulated records are byte-identical with or without a hub
attached (``tests/test_observability.py``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

from repro.network.simulator import Ledger
from repro.topology.base import PortKind

#: bump when the bucket/summary record layout changes
OBS_SCHEMA_VERSION = 1

_KIND_NAMES = {int(PortKind.LOCAL): "local", int(PortKind.GLOBAL): "global"}


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


class _Bucket:
    """One ``bucket``-cycle interval: the latencies of the packets whose
    tails finished ejecting in it, filed by the delivery observer (what
    keeps a closed bucket's row final); the rest is filled on read-out,
    from those latencies and the boundary samples."""

    __slots__ = ("latencies", "delivered", "delivered_phits", "latency_sum",
                 "latency_max", "injected", "grants", "local_misroutes",
                 "global_misroutes", "ring_hops", "ring_entries",
                 "credit_phits", "occupancy", "inflight")

    def __init__(self) -> None:
        self.latencies: list[int] = []

    def fill(self, opened: tuple, closed: tuple, packet_phits: int) -> _Bucket:
        """Counts between the open and close samples; levels at the open."""
        lat = self.latencies
        self.delivered, self.latency_sum = len(lat), sum(lat)
        self.delivered_phits = self.delivered * packet_phits
        self.latency_max = max(lat, default=0)
        (_cycles, self.injected, *_ledger, self.grants, self.credit_phits,
         self.local_misroutes, self.global_misroutes, self.ring_hops,
         self.ring_entries) = (b - a for a, b in zip(opened[0], closed[0]))
        self.occupancy, self.inflight = opened[1], opened[2]
        return self


class LatencyTap:
    """Per-packet latency recorder on the delivery hook.

    Attaches through :meth:`Simulator.add_delivery_observer`, collects
    one latency sample (bare int, delivery order) per ejected packet
    until detached: latencies without a hub (a Session's window keeps
    them in its :class:`MetricsHub`).
    Memory is O(packets delivered while attached).
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.latencies: list[int] = []
        self._observer = sim.add_delivery_observer(self.on_eject)

    def on_eject(self, packet, now: int) -> None:
        self.latencies.append(now - packet.birth)

    def on_eject_batch(self, latencies, dones) -> None:
        """Batched form of :meth:`on_eject`: whole-cycle latency arrays.

        The array core delivers a cycle's packets as one call with the
        latency and completion-cycle arrays in delivery order, so the
        sample list stays element-for-element identical to the scalar
        observer while skipping per-packet Python work.
        """
        self.latencies.extend(latencies.tolist())

    def detach(self) -> None:
        """Stop observing and let go of the simulator (idempotent).

        Dropping ``sim`` is what lets a finished point be freed by
        refcount: an array core may still hold this tap's
        ``on_eject_batch`` for the observer list it last delivered to.
        The bound observer refers back to the tap, so it goes too.
        """
        if self.sim is not None:
            self.sim.remove_delivery_observer(self._observer)
            self.sim = self._observer = None


def _window_total(i: int, doc: str) -> property:
    """Counter ``i`` of the boundary samples, since the window opened."""
    return property(lambda self: self._counts()[i] - self._marks[0][0][i], doc=doc)


class MetricsHub:
    """Engine counters and deliveries, sampled into bucketed series.

    ``bucket`` is the series resolution in cycles.  The window starts at
    the cycle the hub is attached; :meth:`reset` restarts it.  The hub
    reads only what every engine keeps — the delivery ledger, counters,
    ``Simulator.vc_occupancy`` and ``packets_in_flight`` — and takes a
    live array core's deliveries a cycle at a time
    (:meth:`on_eject_batch`), so a watched point runs on the engine it
    would run on unwatched, and its rows are the same bytes on any.
    Every :class:`~repro.facade.Session` measures through one.
    """

    injected = _window_total(1, "packets injected in the window")
    delivered = _window_total(2, "packets delivered in the window")
    grants = _window_total(-6, "switch grants (flit hops) in the window")
    credit_phits = _window_total(-5, "credit phits returned in the window")
    local_misroutes = _window_total(-4, "local misroute grants in the window")
    global_misroutes = _window_total(-3, "global misroute grants in the window")
    ring_hops = _window_total(-2, "head hops onto the escape ring in the window")
    ring_entries = _window_total(-1, "escape-ring entries in the window")

    @property
    def delivered_phits(self) -> int:
        """Phits delivered in the window (every packet is the same size)."""
        return self.delivered * self._packet_phits

    @property
    def latency_min(self) -> int | None:
        """Smallest single-packet latency seen (None until a delivery)."""
        return min(self.latencies(), default=None)

    def window(self) -> Ledger:
        """The delivery ledger over the window: two samples' difference."""
        return Ledger(*self._counts()[:len(Ledger._fields)]).since(
            Ledger(*self._marks[0][0][:len(Ledger._fields)]))

    def latencies(self) -> list[int]:
        """Every latency filed in the window (tails ejecting after ``now`` too)."""
        return [lat for b in self._buckets for lat in b.latencies]

    def __init__(self, sim, bucket: int = 500) -> None:
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        sim.add_sampler(self._on_boundary, sim.now + bucket)
        self.sim = sim
        self.bucket = int(bucket)
        self._packet_phits = sim.config.packet_phits
        #: whether the hub still observes (:meth:`detach` clears it)
        self.attached = True
        self._zero_window()
        self._observer = sim.add_delivery_observer(self.on_eject)

    def _zero_window(self) -> None:
        self.start_cycle = self.sim.now
        #: packets in flight when the window opened (flow conservation
        #: baseline for :meth:`verify`)
        self._inflight_at_window_start = self.sim.packets_in_flight
        self._buckets: list[_Bucket] = []
        #: total eject-stamp lead (cycles): deliveries are stamped at
        #: tail-ejection *completion* while the engine removes the
        #: packet from ``packets_in_flight`` at the current cycle, so
        #: each delivery's latency counts ``cycle - now`` packet-cycles
        #: the population never holds — subtracted from the λ·W side of
        #: the Little's-law identity
        self.eject_lead = 0
        #: one ``(counters, occupancy, in flight)`` sample per boundary
        #: reached, the window's open first; the last taken at ``_sampled_at``
        self._marks: list[tuple] = [self._sample()]
        self._sampled_at = self.start_cycle

    # -------------------------------------------------------------- sampling
    def _counts(self) -> tuple:
        """The cumulative counters — a ``Simulator.ledger()`` sample, then
        six engine and routing counts: now, or as they stood at the detach."""
        if not self.attached:
            return self._frozen[0]
        sim, algo = self.sim, self.sim.algo
        return (*sim.ledger(), sim.grants, sim.credit_phits,
                algo.local_misroutes, algo.global_misroutes, algo.ring_hops,
                algo.ring_entries)

    def _sample(self) -> tuple:
        """Counters, per-(kind, vc) occupancy and packets in flight."""
        if not self.attached:
            return self._frozen
        sim = self.sim
        return self._counts(), sim.vc_occupancy(), sim.packets_in_flight

    def _on_boundary(self, cycle: int) -> int:
        """The boundaries one idle jump crosses read one state: one sample."""
        marks, now = self._marks, self.sim.now
        marks.append(marks[-1] if now == self._sampled_at else self._sample())
        self._sampled_at = now
        return cycle + self.bucket

    def _bucket_at(self, index: int) -> _Bucket:
        buckets = self._buckets
        while len(buckets) <= index:
            buckets.append(_Bucket())
        return buckets[index]

    def _filled(self, index: int) -> _Bucket:
        """Bucket ``index``; a boundary not reached yet reads the live state."""
        marks = self._marks
        opened, closed = (marks[i] if i < len(marks) else self._sample()
                          for i in (index, index + 1))
        return self._bucket_at(index).fill(opened, closed, self._packet_phits)

    # ------------------------------------------------------------- deliveries
    def on_eject(self, packet, cycle: int) -> None:
        self._deliver(cycle, (cycle - packet.birth,))

    def on_eject_batch(self, latencies, dones) -> None:
        """Batched form of :meth:`on_eject`: a cycle's deliveries as
        latency and completion-cycle arrays, in delivery order.  Every
        packet splits into flits the same way, so every tail flit is the
        same size and a cycle's deliveries all complete at ``dones[0]``."""
        self._deliver(int(dones[0]), latencies.tolist())

    def _deliver(self, cycle: int, latencies) -> None:
        """File the ``latencies`` of packets whose tails finished
        ejecting at ``cycle`` in that cycle's bucket; the window totals
        come from the engine's ledger."""
        self._bucket_at((cycle - self.start_cycle) // self.bucket).latencies.extend(
            latencies)
        if cycle > self.sim.now:
            self.eject_lead += len(latencies) * (cycle - self.sim.now)

    # ------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        """Restart the measurement window (counters and series) now."""
        sim = self.sim
        sim.remove_sampler(self._on_boundary)
        sim.add_sampler(self._on_boundary, sim.now + self.bucket)
        self._zero_window()

    def detach(self) -> None:
        """Stop observing (idempotent); collected data stays readable.

        The hub lets go of the simulator, so whoever keeps a hub keeps
        no finished point alive, and holds on to what its read-out and
        :meth:`verify` ask of one, as it stood.
        """
        if self.attached:
            sim = self.sim
            sim.remove_delivery_observer(self._observer)
            sim.remove_sampler(self._on_boundary)
            self._observer = None  # a bound method of self: a cycle
            self._frozen = self._sample()
            self.attached = False
            self.sim = SimpleNamespace(
                now=sim.now, topo=sim.topo, config=sim.config,
                packets_in_flight=sim.packets_in_flight)

    # ----------------------------------------------------------- verification
    def verify(self, full: bool = False) -> dict:
        """Invariant verification over the hub's window (SNIPPETS.md §2).

        The always-on check is flow conservation: every packet injected
        inside the window must either have been delivered inside the
        window or still be in flight::

            injected == delivered + (in_flight_now - in_flight_at_window_start)

        At drain (``in_flight_now == 0``, hub attached before the first
        injection) this reduces to ``injected == delivered``.  The
        engine's injection counter and the delivery observer move at the same
        engine event that moves ``packets_in_flight``, so the identity
        holds exactly at any point between cycles — a mismatch means
        lost or double-counted packets.

        ``full=True`` adds the complete live invariant set of
        :func:`repro.analysis.invariants.live_checks`: Little's law
        between the bucket-sampled in-flight level and ``λ·W``,
        occupancy non-negativity, the per-node throughput capacity and
        the topology-oracle latency floor.

        Returns a :class:`repro.analysis.invariants.VerifyReport` — a
        dict whose top level keeps the historical flow-conservation
        keys (``ok`` aggregates every check) and whose ``"checks"``
        list carries one structured entry (name, lhs/rhs, tolerance,
        verdict) per invariant.  Callers like the serve layer mark jobs
        failed on ``ok == False`` and render the terms.
        """
        from repro.analysis.invariants import Check, VerifyReport, live_checks

        in_flight = self.sim.packets_in_flight
        expected = self._inflight_at_window_start + self.injected - self.delivered
        flow_ok = in_flight == expected
        checks = [Check(
            "flow_conservation", flow_ok, lhs=in_flight, rhs=expected,
            detail=f"injected={self.injected} delivered={self.delivered} "
                   f"in_flight={in_flight} expected={expected}")]
        if full:
            checks.extend(live_checks(self))
        report = VerifyReport(
            check="flow_conservation",
            ok=flow_ok and all(c.ok for c in checks),
            injected=self.injected,
            delivered=self.delivered,
            in_flight=in_flight,
            in_flight_at_window_start=self._inflight_at_window_start,
            expected_in_flight=expected,
        )
        report["checks"] = [c.to_dict() for c in checks]
        return report

    # --------------------------------------------------------------- readout
    def completed_buckets(self, end: int | None = None) -> list[_Bucket]:
        """The buckets fully covered by ``[start_cycle, end)``.

        ``end`` defaults to the simulator's current cycle; trailing
        event-free (fast-forwarded) intervals materialise as empty
        buckets so series lengths always equal elapsed-time / bucket.
        """
        end = self.sim.now if end is None else end
        n = (end - self.start_cycle) // self.bucket
        return [self._filled(i) for i in range(max(0, n))]

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
            # total downstream occupancy (phits) per port kind, read at
            # each bucket's open: a level, not a per-cycle average
            **{f"occupancy_{name}": [sum(v for (k, _), v in b.occupancy.items()
                                         if k == kind) for b in buckets]
               for kind, name in _KIND_NAMES.items()},
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

        A bucket's row is final once the simulator reaches its closing
        boundary: both samples are taken and every delivery is stamped
        at or after the cycle it is emitted, so closed buckets never
        change — which is what lets the serve layer stream rows live,
        byte-identical to a batch :meth:`records` export at the end.
        """
        b = self._filled(index)
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

    def write_jsonl(self, path, end: int | None = None,
                    meta: dict | None = None) -> Path:
        """Write the record stream as deterministic JSONL (one dict/line).

        Records are canonically encoded (sorted keys, fixed separators,
        NaN mapped to null), so identical runs produce byte-identical
        files regardless of scheduler or platform.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [jsonl_line(row) for row in self.records(end, meta)]
        path.write_text("\n".join(lines) + "\n")
        return path


def strict_jsonable(obj):
    """NaN is not valid strict JSON: map it to null, recursively (the
    one copy — JSONL export, the CLI payloads and the serve layer)."""
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: strict_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict_jsonable(v) for v in obj]
    return obj


def jsonl_line(record: dict) -> str:
    """One canonical JSONL line (sorted keys, strict JSON, no spaces)."""
    return json.dumps(strict_jsonable(record), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


__all__ = ["MetricsHub", "LatencyTap", "OBS_SCHEMA_VERSION", "jsonl_line",
           "strict_jsonable"]
