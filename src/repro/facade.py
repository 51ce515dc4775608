"""High-level `Session` / `RunResult` facade over the cycle engine.

The canonical way to run a simulation::

    import repro

    cfg = repro.SimConfig(h=2, routing="olm")
    result = repro.session(cfg, pattern="uniform", load=0.5).warmup(2000).measure(2000)
    print(result.mean_latency, result.latency_p99, result.throughput)

A :class:`Session` owns one live :class:`~repro.network.simulator.Simulator`
and exposes the warm-up / measure / drain workflow; every measurement
returns an immutable :class:`RunResult` snapshot (latency mean and
percentiles, throughput, misroute fractions, drain cycles) of the
session's :class:`~repro.metrics.hub.MetricsHub`: a delivery-ledger
difference and the window's latencies.  The raw simulator stays
reachable through ``session.sim`` for low-level work.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.metrics.hub import MetricsHub, _percentile
from repro.metrics.statistics import recovery_time, steady_state_reached
from repro.network.config import SimConfig
from repro.network.simulator import Simulator, build_simulator
from repro.traffic.patterns import pattern_by_name
from repro.traffic.processes import BernoulliTraffic, BurstTraffic


class Cancelled(Exception):
    """A ``should_cancel()`` hook returned true at a cancellation point."""


def _checkpoint(should_cancel) -> None:
    if should_cancel is not None and should_cancel():
        raise Cancelled("run cancelled")


@dataclass(frozen=True)
class RunResult:
    """Immutable snapshot of one measurement window.

    ``kind`` is ``"measure"`` (fixed-length steady-state window) or
    ``"drain"`` (run-until-empty); ``drain_cycles`` is only set for the
    latter.  Latency percentiles are computed over every packet
    delivered inside the window.

    Units: ``start_cycle``/``end_cycle``/``max_latency``/``drain_cycles``
    and every latency field are in *cycles*; ``generated``/``delivered``
    count packets, ``delivered_phits`` counts phits; ``throughput`` is
    accepted load in phits/(node·cycle) — 1.0 means every node sinks
    one phit per cycle; misroute fields are fractions of delivered
    packets.  A window that delivered nothing reads NaN in the means,
    percentiles and misroute fields and 0 in ``max_latency``.  Equal
    configs (same ``SimConfig.canonical_json()``), traffic and windows
    always reproduce the same result, bit for bit.
    """

    kind: str
    start_cycle: int
    end_cycle: int
    generated: int
    delivered: int
    delivered_phits: int
    mean_latency: float
    max_latency: int
    latency_p50: float
    latency_p95: float
    latency_p99: float
    mean_hops: float
    throughput: float
    local_misroute_rate: float
    global_misroute_fraction: float
    drain_cycles: int | None = None

    @property
    def window_cycles(self) -> int:
        """Length of the measurement window in cycles."""
        return self.end_cycle - self.start_cycle

    def to_dict(self) -> dict:
        """Plain mapping of every field (sweep/record interchange).

        Ratio fields are ``float('nan')`` when the window delivered no
        packets — map them to ``None`` before strict-JSON serialization
        (the ``point`` CLI command does).
        """
        return asdict(self)


@dataclass(frozen=True)
class SeriesResult:
    """A measurement window plus its cycle-bucketed time series.

    ``result`` is the window's :class:`RunResult`; ``series`` maps
    metric name to one value per ``bucket`` cycles (see
    :meth:`repro.metrics.hub.MetricsHub.series`); ``records`` is the
    structured meta/bucket/summary row stream of the JSONL schema;
    ``verify`` is the window's flow-conservation report
    (:meth:`repro.metrics.hub.MetricsHub.verify`) at the window's end.
    """

    result: RunResult
    bucket: int
    start_cycle: int
    series: dict = field(compare=False)
    records: tuple = field(compare=False)
    verify: dict | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "result": self.result.to_dict(),
            "bucket": self.bucket,
            "start_cycle": self.start_cycle,
            "series": self.series,
        }


class Session:
    """A live simulation with the warm-up / measure / drain workflow.

    Chainable: ``session(cfg, pattern="uniform", load=0.5)
    .warmup(2000).measure(2000)``.  All durations are in cycles and
    offered loads in phits/(node·cycle).  The measurement window is one
    :class:`~repro.metrics.hub.MetricsHub` (``session.hub``, ``bucket``
    -cycle series), attached when the session is built, also over a run
    simulator, and restarted by :meth:`reset`; every result, series, row
    and verify report reads it.  Further observers can be added through
    ``session.sim.add_delivery_observer``.

    Determinism: a session is a pure function of its config (seeded RNG
    streams for traffic and routing) and its call sequence — replaying
    the same calls on the same config yields byte-identical results on
    any fabric, scheduler or host (see ``docs/ARCHITECTURE.md``).
    """

    def __init__(self, config: SimConfig | None = None, *, traffic=None,
                 sim: Simulator | None = None, bucket: int = 250) -> None:
        if sim is None:
            if config is None:
                raise ValueError("Session needs a SimConfig (or a prebuilt sim)")
            sim = build_simulator(config, traffic)
        else:
            if config is not None and config != sim.config:
                raise ValueError(
                    "got both a config and a prebuilt sim with a different "
                    "config; pass one or the other"
                )
            if traffic is not None:
                sim.traffic = traffic
        self._sim = sim
        self._hub = MetricsHub(sim, bucket=bucket)
        #: metadata of the last :meth:`warmup_until_steady` call (or None)
        self.auto_warmup: dict | None = None

    def close(self) -> None:
        """Detach the session's hub from the simulator (idempotent).

        Call when wrapping a long-lived prebuilt simulator in several
        short-lived sessions; otherwise each session would keep
        watching it forever.  It also undoes the one reference cycle a
        session makes (the simulator's hooks ↔ the hub), so a closed
        session's simulator is freed by refcount — the worker entries
        below close theirs.  The hub stays readable; running or
        measuring a closed session raises :class:`RuntimeError`.
        """
        self._hub.detach()

    def _live(self) -> Simulator:
        """The simulator, for a call that runs it or opens a window."""
        if not self._hub.attached:
            raise RuntimeError("session is closed")
        return self._sim

    # ------------------------------------------------------------- accessors
    @property
    def hub(self) -> MetricsHub:
        """The measurement window's :class:`~repro.metrics.hub.MetricsHub`."""
        return self._hub

    @property
    def sim(self) -> Simulator:
        """The underlying simulator (escape hatch for low-level access)."""
        return self._sim

    @property
    def config(self) -> SimConfig:
        return self._sim.config

    @property
    def now(self) -> int:
        return self._sim.now

    # -------------------------------------------------------------- traffic
    def with_traffic(self, traffic) -> "Session":
        """Attach (or replace) the traffic process; chainable."""
        self._sim.traffic = traffic
        return self

    def bernoulli(self, pattern_spec: str, load: float) -> "Session":
        """Attach open-loop Bernoulli sources over a pattern spec; chainable."""
        pattern = pattern_by_name(pattern_spec, self._sim.topo)
        return self.with_traffic(BernoulliTraffic(pattern, load))

    # ------------------------------------------------------------- workflow
    def run(self, cycles: int) -> "Session":
        """Advance without restarting the measurement window; chainable."""
        self._live().run(cycles)
        return self

    def warmup(self, cycles: int, *, should_cancel=None) -> "Session":
        """Run ``cycles`` cycles, then reset the measurement window; chainable.

        The run is advanced in pieces of the window's bucket
        (cycle-for-cycle identical to one long run) and
        ``should_cancel()``, when given, is polled before each
        (:class:`Cancelled` is raised when it returns true).
        """
        sim, chunk = self._live(), self._hub.bucket
        end = sim.now + cycles
        while sim.now < end:
            _checkpoint(should_cancel)
            sim.run(min(chunk, end - sim.now))
        return self.reset()

    def warmup_until_steady(self, *, bucket: int = 250, window: int = 8,
                            rel_tolerance: float = 0.05,
                            max_cycles: int = 50_000,
                            should_cancel=None) -> "Session":
        """Warm up until throughput is steady, then reset; chainable.

        Replaces blind ``warmup(N)`` with the moving-window
        relative-precision rule: the simulation advances in ``bucket``
        -cycle blocks and stops as soon as the last ``window`` block
        throughputs all lie within ``rel_tolerance`` of their own mean
        (:func:`repro.metrics.statistics.steady_state_reached`), or
        after ``max_cycles``.  Throughput is read from the block deltas
        of the running counters — no per-cycle polling, so idle
        fast-forward stays active throughout.

        The detection outcome is exposed as ``session.auto_warmup``:
        ``cycles`` spent, ``steady`` (whether the rule fired before the
        cap), ``samples`` (block throughputs) and
        ``steady_throughput`` (mean of the final window — the baseline
        the transient workers measure recovery against).
        ``should_cancel()`` is polled once per block (:class:`Cancelled`
        is raised when it returns true), so even a huge ``max_cycles``
        cap is abandoned within one block.
        """
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        sim = self._live()
        phits = sim.config.packet_phits
        nodes = sim.topo.num_nodes
        start = sim.now
        samples: list[float] = []
        last = sim.delivered * phits
        steady = False
        while sim.now - start < max_cycles:
            _checkpoint(should_cancel)
            step = min(bucket, start + max_cycles - sim.now)
            sim.run(step)
            if step < bucket:
                break  # truncated final block: not a comparable sample
            cur = sim.delivered * phits
            samples.append((cur - last) / (nodes * bucket))
            last = cur
            if len(samples) >= window and steady_state_reached(
                    samples, window=window, rel_tolerance=rel_tolerance):
                steady = True
                break
        tail = samples[-window:] if samples else []
        self.auto_warmup = {
            "cycles": sim.now - start,
            "steady": steady,
            "bucket": bucket,
            "window": window,
            "rel_tolerance": rel_tolerance,
            "samples": samples,
            "steady_throughput": (sum(tail) / len(tail)) if tail else 0.0,
        }
        return self.reset()

    def reset(self) -> "Session":
        """Restart the measurement window at the current cycle; chainable."""
        self._live()
        self._hub.reset()
        return self

    def measure(self, cycles: int) -> RunResult:
        """Run ``cycles`` more cycles and snapshot the window."""
        self._live().run(cycles)
        return self._snapshot("measure")

    def measure_series(self, cycles: int, *, emit=None, should_cancel=None,
                       meta: dict | None = None,
                       full_verify: bool = False) -> "SeriesResult":
        """Run ``cycles`` more cycles and snapshot the window with its
        series.

        Returns a :class:`SeriesResult` pairing the window
        :class:`RunResult` with the hub's cycle-bucketed series and
        structured records (JSONL-exportable).  All three read
        ``session.hub`` and cover the same cycles: the window since the
        last :meth:`reset`/:meth:`warmup`, at the resolution of the
        session's ``bucket``.

        The run is advanced in ``bucket``-cycle chunks (chunked runs
        are cycle-for-cycle identical to one long run).  ``emit`` —
        when given, the structured record stream is pushed row by row
        *while the window runs*: the meta header first (the window's end
        cycle is known up front), each bucket row as soon as the
        simulator passes the bucket's closing cycle, and the summary row
        last.  The emitted rows equal ``SeriesResult.records`` exactly —
        the serve layer streams them as live JSONL.  ``meta`` merges
        extra fields into the meta row (emitted and in ``records``
        alike).  ``should_cancel()`` is polled before every chunk
        (:class:`Cancelled` is raised when it returns true).

        ``full_verify`` upgrades the captured ``verify`` report from
        the always-on flow-conservation check to the complete live
        invariant set (Little's law, occupancy, capacity and latency
        floors — :func:`repro.analysis.invariants.live_checks`); the
        measured result bytes are identical either way.
        """
        sim, hub = self._live(), self._hub
        bucket = hub.bucket
        end = sim.now + cycles
        if emit is not None:
            emit(hub.meta_row(end, meta))
        emitted = 0
        while sim.now < end:
            _checkpoint(should_cancel)
            sim.run(min(bucket, end - sim.now))
            if emit is not None:
                closed = (sim.now - hub.start_cycle) // bucket
                while emitted < closed:
                    emit(hub.bucket_row(emitted))
                    emitted += 1
        sr = SeriesResult(
            result=self._snapshot("measure"),
            bucket=bucket,
            start_cycle=hub.start_cycle,
            series=hub.series(end),
            records=tuple(hub.records(end, meta)),
            verify=hub.verify(full=full_verify),
        )
        if emit is not None:
            emit(hub.summary_row(end))
        return sr

    def drain(self, max_cycles: int = 1_000_000) -> RunResult:
        """Run until all injected traffic is delivered; snapshot with drain time.

        ``max_cycles`` caps the run (a ``DeadlockError`` is raised past
        it); the result's ``drain_cycles`` is the cycles actually spent.
        """
        cycles = self._live().run_until_drained(max_cycles)
        return self._snapshot("drain", drain_cycles=cycles)

    # -------------------------------------------------------------- snapshot
    def _snapshot(self, kind: str, *, drain_cycles: int | None = None) -> RunResult:
        sim, hub = self._sim, self._hub
        w = hub.window()
        n, phits = w.delivered, w.delivered * sim.config.packet_phits
        lat = sorted(hub.latencies())

        def per_packet(total: int) -> float:
            return total / n if n else float("nan")

        return RunResult(
            kind=kind,
            start_cycle=hub.start_cycle,
            end_cycle=sim.now,
            generated=w.generated,
            delivered=n,
            delivered_phits=phits,
            mean_latency=per_packet(w.latency_sum),
            max_latency=lat[-1] if lat else 0,
            latency_p50=_percentile(lat, 0.50),
            latency_p95=_percentile(lat, 0.95),
            latency_p99=_percentile(lat, 0.99),
            mean_hops=per_packet(w.hops_sum),
            throughput=phits / (sim.topo.num_nodes * w.cycle) if w.cycle > 0 else 0.0,
            local_misroute_rate=per_packet(w.local_misroutes),
            global_misroute_fraction=per_packet(w.global_misroutes),
            drain_cycles=drain_cycles,
        )


def session(config: SimConfig | None = None, *, traffic=None,
            pattern: str | None = None, load: float | None = None,
            sim: Simulator | None = None, bucket: int = 250) -> Session:
    """Open a :class:`Session` (the public entry point, ``repro.session``).

    ``traffic`` attaches an explicit traffic process; alternatively
    ``pattern``/``load`` is shorthand for open-loop Bernoulli sources
    over a pattern spec (``"uniform"``, ``"advg+h"``, ``"mixed:40"``, a
    registered pattern name, ...).  ``bucket`` is the window's series
    resolution in cycles (:meth:`Session.measure_series`).
    """
    if traffic is not None and (pattern is not None or load is not None):
        raise ValueError("pass either traffic or pattern/load, not both")
    s = Session(config, traffic=traffic, sim=sim, bucket=bucket)
    if pattern is not None:
        if load is None:
            raise ValueError("pattern requires an offered load")
        s.bernoulli(pattern, load)
    elif load is not None:
        raise ValueError("load requires a pattern")
    return s


# --------------------------------------------------------------- worker entries
#
# Module-level functions (picklable, importable by name) so process-pool
# schedulers can ship one simulation point to a worker.  They return plain
# dict records: the RunResult fields plus the point's coordinates, the
# interchange format of the sweeps / run-plan / reporting layers.


def point_record(result: RunResult, config: SimConfig, **coords) -> dict:
    """The interchange record: ``RunResult`` fields + sweep coordinates.

    The single place that defines which coordinates every record carries
    (routing, flow control, h, seed) — sweeps, run plans and reporting
    all consume this shape.
    """
    rec = result.to_dict()
    rec.update(routing=config.routing, flow_control=config.flow_control,
               h=config.h, seed=config.seed, **coords)
    return rec


def _full(verify) -> bool:
    """Whether a ``verify`` level asks for the full live invariant set.

    Levels: ``False`` (no gate), ``"flow"`` (flow conservation only),
    ``"full"``.
    """
    if verify is not False and verify not in ("flow", "full"):
        raise ValueError(
            f"verify must be False, 'flow' or 'full', got {verify!r}")
    return verify == "full"


def _gate(report: dict, verify) -> None:
    """Enforce a window's verify report when a ``verify`` level is set
    (raises through :func:`repro.analysis.invariants.enforce`; lazy
    import: verification is opt-in)."""
    if verify:
        from repro.analysis.invariants import enforce

        enforce(report)


def run_point(config: SimConfig, pattern_spec: str, load: float,
              warmup: int, measure: int, steady: bool = False,
              verify=False, *, bucket: int = 250, on_row=None,
              should_cancel=None, meta: dict | None = None) -> dict:
    """One steady-state record: warm up, open the window, measure.

    Picklable worker entry — the unit of work of the run-plan schedulers
    (:mod:`repro.runplan`) and of the service alike.  With
    ``steady=True`` the blind warm-up is replaced by
    :meth:`Session.warmup_until_steady` with ``warmup`` as the cycle
    cap; the record then carries ``warmup_cycles`` (spent) and
    ``warmup_steady`` (whether the rule fired before the cap).

    The window is always measured through the session's metrics hub
    (:meth:`Session.measure_series`), on whichever engine the point
    runs.  ``verify`` (``False | "flow" | "full"``) enforces the hub's
    flow conservation or the full live invariant set (Little's law,
    occupancy, capacity and latency floors), raising
    :class:`~repro.analysis.invariants.InvariantViolation` on a
    violated check.

    Hooks (how the serve layer streams and cancels; all optional):
    ``on_row(row)`` receives the window's meta/bucket/summary rows
    while it runs, at ``bucket``-cycle resolution, with ``meta`` merged
    into the meta row; ``should_cancel()`` is polled every ``bucket``
    cycles of warm-up and measurement and aborts the run with
    :class:`Cancelled`.  The record is byte-identical whatever
    ``verify``, ``bucket`` and the hooks — a hub never changes what a
    simulation measures and chunked stepping equals one long run.
    """
    full = _full(verify)
    s = session(config, pattern=pattern_spec, load=load, bucket=bucket)
    try:
        if steady:
            s.warmup_until_steady(max_cycles=warmup, should_cancel=should_cancel)
        else:
            s.warmup(warmup, should_cancel=should_cancel)
        sr = s.measure_series(measure, emit=on_row, should_cancel=should_cancel,
                              meta=meta, full_verify=full)
        _gate(sr.verify, verify)
    finally:
        s.close()
    rec = point_record(sr.result, config, pattern=pattern_spec, load=load)
    if steady:
        rec["warmup_cycles"] = s.auto_warmup["cycles"]
        rec["warmup_steady"] = s.auto_warmup["steady"]
    return rec


def run_drain(config: SimConfig, pattern_spec: str, packets_per_node: int,
              max_cycles: int, verify=False, *, bucket: int = 250,
              on_row=None, should_cancel=None,
              meta: dict | None = None) -> dict:
    """One burst-consumption record: inject a burst, run until drained.

    Picklable worker entry for ``kind="drain"`` run-plan points.  The
    session's metrics hub attaches before the first injection (the
    point stays undecided until its first step), so flow conservation
    reduces to ``injected == delivered`` at drain; ``verify`` (levels as
    in :func:`run_point`) enforces it.

    A drain has no end cycle known up front (the meta row needs one),
    so ``on_row`` receives the row stream in one piece once the fabric
    is empty rather than live; for the same reason ``should_cancel()``
    is polled only before the drain starts — the drain itself is always
    one ``run_until_drained`` call.
    """
    full = _full(verify)
    _checkpoint(should_cancel)
    s = session(config, bucket=bucket)
    try:
        pattern = pattern_by_name(pattern_spec, s.sim.topo)
        s.with_traffic(BurstTraffic(pattern, packets_per_node))
        result = s.drain(max_cycles)
        _gate(s.hub.verify(full=full), verify)
        if on_row is not None:
            for row in s.hub.records(s.now, meta):
                on_row(row)
    finally:
        s.close()
    return point_record(result, config, pattern=pattern_spec,
                        packets_per_node=packets_per_node)


def run_transient(config: SimConfig, pattern_spec: str, load: float,
                  packets_per_node: int, warmup: int, measure: int,
                  bucket: int = 250, rel_tolerance: float = 0.15,
                  hold: int = 3, verify=False, *, on_row=None,
                  should_cancel=None, meta: dict | None = None) -> dict:
    """One transient burst-response record: load step onto steady traffic.

    Picklable worker entry for ``kind="transient"`` run-plan points —
    the congestion story of the paper's §II told as a time series:

    1. open-loop Bernoulli sources at ``load`` warm up to auto-detected
       steady state (cap ``warmup`` cycles); the steady window mean is
       the recovery baseline;
    2. every node enqueues a ``packets_per_node`` burst on top (the
       load step), drawn from the same traffic pattern;
    3. the session's metrics hub records the window — the burst and
       the next ``measure`` cycles — in ``bucket``-cycle buckets;
       ``recovery_cycles`` is when the throughput series settles back
       within ``rel_tolerance`` of the baseline for ``hold``
       consecutive buckets
       (:func:`repro.metrics.statistics.recovery_time`), clamped to
       ``measure`` with ``recovered=False`` when it never does.

    ``verify`` and the ``on_row`` / ``should_cancel`` / ``meta`` hooks
    are those of :func:`run_point`.  Here ``bucket`` is part of the
    measurement, not just the stream resolution, so callers must never
    substitute a display default for the point's own.
    """
    full = _full(verify)
    s = session(config, pattern=pattern_spec, load=load, bucket=bucket)
    try:
        s.warmup_until_steady(bucket=bucket, max_cycles=warmup,
                              should_cancel=should_cancel)
        baseline = s.auto_warmup["steady_throughput"]
        sim = s.sim
        BurstTraffic(pattern_by_name(pattern_spec, sim.topo),
                     packets_per_node).inject(sim, sim.now)
        sr = s.measure_series(measure, emit=on_row, should_cancel=should_cancel,
                              meta=meta, full_verify=full)
        _gate(sr.verify, verify)
    finally:
        s.close()
    recovery = recovery_time(sr.series["throughput"], baseline,
                             bucket=bucket, rel_tolerance=rel_tolerance,
                             hold=hold)
    rec = point_record(sr.result, config, pattern=pattern_spec, load=load,
                       packets_per_node=packets_per_node)
    rec.update(
        kind="transient",
        bucket=bucket,
        warmup_cycles=s.auto_warmup["cycles"],
        warmup_steady=s.auto_warmup["steady"],
        baseline_throughput=baseline,
        recovered=recovery is not None,
        recovery_cycles=measure if recovery is None else recovery,
        throughput_series=sr.series["throughput"],
        latency_series=sr.series["latency_mean"],
    )
    return rec


__all__ = ["Session", "RunResult", "SeriesResult", "Cancelled", "session",
           "run_point", "run_drain", "run_transient", "point_record"]
