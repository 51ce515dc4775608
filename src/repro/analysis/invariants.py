"""Physical-invariant verification for simulation results.

The shape checks of :mod:`repro.experiments.verify` prove a result
*looks* like its figure; this module proves the numbers are *possible*.
Every checker enforces an identity or bound that no correct simulation
can violate — flow conservation at drain, Little's law between
occupancy, throughput and latency, capacity and bisection bounds from
:mod:`repro.analysis.bounds`, serialization/minimal-hop latency floors,
non-negative counters and sane confidence intervals — so silent drift
that preserves record shape (the failure mode three engine rewrites
make likely) still fails loudly.

:class:`Check` is the one verdict type: the shape claims of
:mod:`repro.experiments.verify` emit it too.  Two entry layers:

* **record checks** (:func:`check_record`, :func:`verify_result`) work
  on bare result dicts — a ``results/*.json`` figure payload, a served
  job record, a sweep row — and skip silently where a field is absent
  (drain records are heavily reduced);
* **live checks** (:func:`live_checks`) read a
  :class:`~repro.metrics.hub.MetricsHub` mid-flight and add the checks
  only an instrumented window can do: flow conservation against the
  engine's in-flight count and the Little's-law identity between the
  bucket-sampled in-flight level and ``λ·W``.

Layering: this module imports only :mod:`repro.analysis.bounds`; the
hub, facade, run-plan, serve and experiments layers all reach *down*
into it (the hub lazily, from
:meth:`~repro.metrics.hub.MetricsHub.verify`), never the other way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.bounds import (
    advg_minimal_capacity,
    advg_valiant_local_bound,
    uniform_capacity,
)

#: default relative tolerance for bound checks (``--tolerance``)
DEFAULT_TOLERANCE = 0.05
#: default relative tolerance for the Little's-law identity — wider than
#: the bound tolerance because the in-flight level is sampled at bucket
#: opens (left-edge rectangles, not a continuous integral) and window
#: edges mis-attribute the residence of packets in flight at the cut
LITTLE_TOLERANCE = 0.15
#: Little's law needs a population: below this many delivered packets
#: (or fewer than 4 completed buckets) the identity check is skipped
LITTLE_MIN_DELIVERED = 50
#: relative slack when matching the implied node count to an integer
_NODES_TOLERANCE = 1e-6


def dragonfly_nodes(h: int) -> int:
    """Node count of the canonical well-balanced Dragonfly: ``p·a·g``."""
    return h * 2 * h * (2 * h * h + 1)


@dataclass(frozen=True)
class Check:
    """One verdict — an invariant or a shape claim: name, verdict, and
    the compared terms.

    ``lhs``/``rhs`` are the two sides of the identity or bound (lhs is
    the measured quantity, rhs the model/bound), ``tolerance`` the
    relative slack applied, ``detail`` a human-readable account.  A
    check that does not apply to a record is simply not emitted.
    """

    check: str
    ok: bool
    lhs: float | int | None = None
    rhs: float | int | None = None
    tolerance: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        """Plain JSON-safe mapping (the serve error payload embeds it)."""
        return {
            "check": self.check,
            "ok": self.ok,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


class VerifyReport(dict):
    """Structured verification report, mapping-compatible by design.

    The flow-conservation keys of the historical
    :meth:`~repro.metrics.hub.MetricsHub.verify` dict stay at the top
    level (``ok``, ``injected``, ``delivered``, ``in_flight``,
    ``expected_in_flight`` — the serve error message formats them and
    the contract tests mutate them), and the structured per-check list
    lives under ``"checks"``: one :meth:`Check.to_dict` mapping per
    invariant, ``ok`` aggregating them all.
    """

    @property
    def checks(self) -> list[dict]:
        return self.get("checks", [])

    @property
    def failures(self) -> list[dict]:
        return [c for c in self.checks if not c.get("ok", True)]

    def check(self, name: str) -> dict | None:
        """The named check's dict, or ``None`` when it was not emitted."""
        for c in self.checks:
            if c.get("check") == name:
                return c
        return None


class InvariantViolation(Exception):
    """A verified window or record broke a physical invariant.

    ``report`` is the failing :class:`VerifyReport` (or any mapping
    with a ``"checks"`` list); the message names every failed check so
    quarantine logs stay actionable.
    """

    def __init__(self, report: dict, message: str | None = None) -> None:
        self.report = report
        if message is None:
            failed = [c.get("check", "?") for c in report.get("checks", ())
                      if not c.get("ok", True)]
            message = ("invariant violation: " + ", ".join(failed)
                       if failed else "invariant violation")
        super().__init__(message)

    def __reduce__(self):
        # default Exception pickling would replay __init__ with the
        # message as the report; verified points cross process pools
        return (type(self), (self.report, self.args[0]))


class FlowConservationError(InvariantViolation):
    """A measurement window lost or invented packets.

    ``report`` is the failing
    :meth:`repro.metrics.hub.MetricsHub.verify` dict.  Subclasses
    :class:`InvariantViolation` so one ``except`` clause covers the
    whole verification gate while the flow-specific message format
    stays intact.
    """

    def __init__(self, report: dict, message: str | None = None) -> None:
        if message is None:
            message = (
                "flow conservation violated: injected={injected} delivered="
                "{delivered} in_flight={in_flight} (expected "
                "{expected_in_flight})".format(**report))
        super().__init__(report, message)


def enforce(report: dict | None) -> None:
    """Raise on a failed verify report — the one report → exception rule.

    A report whose flow-conservation check failed (or a bare
    flow-conservation report with no ``"checks"`` list) raises
    :class:`FlowConservationError`; one that failed *only* on wider
    invariants (Little's law, bounds, occupancy) raises the base
    :class:`InvariantViolation` naming the failed checks.
    """
    if report is None or report["ok"]:
        return
    failed = [c for c in report.get("checks", ()) if not c.get("ok", True)]
    if failed and all(c.get("check") != "flow_conservation" for c in failed):
        raise InvariantViolation(report)
    raise FlowConservationError(report)


# --------------------------------------------------------------- helpers

def _num(rec: dict, key: str) -> float | None:
    """A record field as a finite number, else None (absent/null/NaN)."""
    v = rec.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _is_dragonfly(rec: dict) -> bool:
    return rec.get("topology", "dragonfly") == "dragonfly"


def _window(rec: dict) -> float | None:
    start, end = _num(rec, "start_cycle"), _num(rec, "end_cycle")
    if start is None or end is None or end <= start:
        return None
    return end - start


# --------------------------------------------------------- record checks

def _check_counters(rec: dict, tol: float) -> Check | None:
    fields = [k for k in ("generated", "delivered", "delivered_phits",
                          "injected", "drain_cycles", "grants")
              if _num(rec, k) is not None]
    if not fields:
        return None
    bad = [k for k in fields if _num(rec, k) < 0]
    delivered, phits = _num(rec, "delivered"), _num(rec, "delivered_phits")
    if (delivered is not None and phits is not None and phits < delivered):
        bad.append("delivered_phits<delivered")
    return Check(
        "counters", not bad,
        detail=("counters are cumulative event counts: each must be a "
                "non-negative integer and every packet carries >= 1 phit"
                + (f"; offending: {', '.join(bad)}" if bad else "")))


def _check_throughput_bounds(rec: dict, tol: float) -> Check | None:
    thr = _num(rec, "throughput")
    if thr is None:
        return None
    problems = []
    if not 0.0 <= thr <= 1.0 + tol:
        problems.append(f"throughput={thr:.4f} outside [0, 1]")
    gmf = _num(rec, "global_misroute_fraction")
    if gmf is not None and not 0.0 <= gmf <= 1.0 + tol:
        problems.append(f"global_misroute_fraction={gmf:.4f} outside [0, 1]")
    lmr = _num(rec, "local_misroute_rate")
    if lmr is not None and lmr < 0.0:
        problems.append(f"local_misroute_rate={lmr:.4f} negative")
    return Check(
        "throughput_bounds", not problems, lhs=thr, rhs=1.0, tolerance=tol,
        detail=("each node sinks at most one phit per cycle, so accepted "
                "load and misroute fractions are rates in [0, 1]"
                + ("; " + "; ".join(problems) if problems else "")))


def _check_capacity_bounds(rec: dict, tol: float) -> Check | None:
    """Paper §II bisection/capacity bounds (canonical Dragonfly only)."""
    thr = _num(rec, "throughput")
    h = _num(rec, "h")
    pattern = rec.get("pattern")
    routing = rec.get("routing")
    if (thr is None or h is None or not _is_dragonfly(rec)
            or not isinstance(pattern, str)):
        return None
    h = int(h)
    bound = None
    why = ""
    if pattern == "uniform":
        bound = uniform_capacity(h)
        why = f"uniform-traffic global bisection capacity (g-1)/g={bound:.3f}"
    elif pattern.startswith("advg"):
        if routing == "minimal":
            bound = advg_minimal_capacity(h)
            why = (f"ADVG+minimal: a group's 2h^2 nodes share one global "
                   f"link -> 1/(2h^2)={bound:.3f}")
        elif routing == "valiant":
            bound = advg_valiant_local_bound(h)
            why = (f"ADVG+valiant: intermediate-group local saturation "
                   f"caps at 1/h={bound:.3f} [12]")
    elif pattern.startswith("advl") and routing == "minimal":
        bound = advg_valiant_local_bound(h)  # same 1/h local-link cap
        why = f"ADVL+minimal: h injectors share one local link -> 1/h={bound:.3f}"
    if bound is None:
        return None
    return Check("capacity_bounds", thr <= bound * (1.0 + tol),
                 lhs=thr, rhs=bound, tolerance=tol, detail=why)


def _check_latency_ordering(rec: dict, tol: float) -> Check | None:
    delivered = _num(rec, "delivered")
    if not delivered:
        return None
    p50, p95 = _num(rec, "latency_p50"), _num(rec, "latency_p95")
    p99, mx = _num(rec, "latency_p99"), _num(rec, "max_latency")
    mean = _num(rec, "mean_latency")
    present = [v for v in (p50, p95, p99, mx, mean) if v is not None]
    if not present:
        return None
    problems = []
    quantiles = [("p50", p50), ("p95", p95), ("p99", p99), ("max", mx)]
    known = [(n, v) for n, v in quantiles if v is not None]
    for (na, va), (nb, vb) in zip(known, known[1:]):
        if va > vb:
            problems.append(f"{na}={va} > {nb}={vb}")
    if mean is not None and mx is not None and mean > mx:
        problems.append(f"mean={mean:.1f} > max={mx}")
    if any(v < 0 for v in present):
        problems.append("negative latency")
    return Check(
        "latency_ordering", not problems,
        detail=("order statistics of one sample set must be monotone: "
                "p50 <= p95 <= p99 <= max and mean <= max"
                + ("; " + "; ".join(problems) if problems else "")))


def _check_latency_floor(rec: dict, tol: float) -> Check | None:
    delivered = _num(rec, "delivered")
    phits = _num(rec, "delivered_phits")
    if not delivered or phits is None:
        return None
    size = phits / delivered  # mean packet size in phits
    problems = []
    p50 = _num(rec, "latency_p50")
    if p50 is not None and p50 < size * (1.0 - tol):
        problems.append(f"p50={p50:.1f} < serialization {size:.0f}")
    mean, hops = _num(rec, "mean_latency"), _num(rec, "mean_hops")
    floor = size
    if mean is not None and hops is not None:
        floor = hops + size  # every hop costs >= 1 cycle (config floor)
        if mean < floor * (1.0 - tol):
            problems.append(f"mean={mean:.1f} < hop+serialization floor "
                            f"{floor:.1f}")
    return Check(
        "latency_floor", not problems, lhs=mean if mean is not None else p50,
        rhs=floor, tolerance=tol,
        detail=("a packet cannot beat physics: tail delivery takes >= its "
                "own serialization (phits) plus one cycle per hop taken"
                + ("; " + "; ".join(problems) if problems else "")))


def _check_throughput_consistency(rec: dict, tol: float) -> Check | None:
    thr = _num(rec, "throughput")
    phits = _num(rec, "delivered_phits")
    window = _window(rec)
    if not thr or phits is None or window is None:
        return None
    implied = phits / (thr * window)
    nearest = round(implied)
    problems = []
    if nearest < 1 or abs(implied - nearest) > _NODES_TOLERANCE * max(1.0, implied):
        problems.append(f"implied node count {implied:.6f} is not a "
                        "positive integer")
    h = _num(rec, "h")
    if not problems and h is not None and _is_dragonfly(rec):
        expect = dragonfly_nodes(int(h))
        if nearest != expect:
            problems.append(f"implied nodes {nearest} != canonical "
                            f"Dragonfly p*a*g = {expect} for h={int(h)}")
    return Check(
        "throughput_consistency", not problems, lhs=implied,
        rhs=dragonfly_nodes(int(h)) if h is not None and _is_dragonfly(rec)
        else nearest, tolerance=_NODES_TOLERANCE,
        detail=("throughput = delivered_phits / (nodes * window) must "
                "invert to the integer node count the fabric was built with"
                + ("; " + "; ".join(problems) if problems else "")))


def _check_drain_conservation(rec: dict, tol: float) -> Check | None:
    if rec.get("kind") != "drain":
        return None
    delivered = _num(rec, "delivered")
    if delivered is None:
        return None
    problems = []
    generated = _num(rec, "generated")
    if generated is not None and generated != delivered:
        problems.append(f"generated={generated:.0f} != delivered="
                        f"{delivered:.0f} after drain")
    ppn, h = _num(rec, "packets_per_node"), _num(rec, "h")
    expect = None
    if ppn is not None and h is not None and _is_dragonfly(rec):
        expect = ppn * dragonfly_nodes(int(h))
        if delivered != expect:
            problems.append(f"delivered={delivered:.0f} != burst total "
                            f"packets_per_node*nodes={expect:.0f}")
    cycles, window = _num(rec, "drain_cycles"), _window(rec)
    if cycles is not None and window is not None and cycles != window:
        problems.append(f"drain_cycles={cycles:.0f} != end-start={window:.0f}")
    return Check(
        "drain_conservation", not problems, lhs=delivered, rhs=expect,
        detail=("a drained fabric is empty: every burst packet injected "
                "must have been delivered, exactly once"
                + ("; " + "; ".join(problems) if problems else "")))


def _check_drain_latency(rec: dict, tol: float) -> Check | None:
    if rec.get("kind") != "drain":
        return None
    cycles = _num(rec, "drain_cycles")
    if cycles is None:
        return None
    problems = []
    for k in ("mean_latency", "latency_p50", "latency_p95", "latency_p99",
              "max_latency"):
        v = _num(rec, k)
        if v is not None and v > cycles:
            problems.append(f"{k}={v:.1f} > drain_cycles={cycles:.0f}")
    return Check(
        "drain_latency", not problems, rhs=cycles,
        detail=("burst packets are born before the drain starts, so no "
                "delivery latency can exceed the total drain time"
                + ("; " + "; ".join(problems) if problems else "")))


def _check_transient_window(rec: dict, tol: float) -> Check | None:
    if rec.get("kind") != "transient":
        return None
    problems = []
    bucket = _num(rec, "bucket")
    series = rec.get("throughput_series")
    window = _window(rec)
    span = None
    if bucket is None or bucket < 1:
        problems.append(f"bucket={bucket!r} not a positive cycle count")
    elif isinstance(series, list):
        span = bucket * len(series)
        if window is not None and span != window:
            problems.append(f"series spans {span:.0f} cycles != window "
                            f"{window:.0f}")
        bad = [v for v in series
               if isinstance(v, (int, float)) and not 0.0 <= v <= 1.0 + tol]
        if bad:
            problems.append(f"{len(bad)} series value(s) outside [0, 1]")
    recovery = _num(rec, "recovery_cycles")
    if recovery is not None:
        limit = span if span is not None else window
        if recovery < 0 or (limit is not None and recovery > limit):
            problems.append(f"recovery_cycles={recovery:.0f} outside the "
                            "measured window")
        if rec.get("recovered") is False and limit is not None \
                and recovery != limit:
            problems.append("recovered=false but recovery_cycles != window")
    baseline = _num(rec, "baseline_throughput")
    if baseline is not None and not 0.0 <= baseline <= 1.0 + tol:
        problems.append(f"baseline_throughput={baseline:.4f} outside [0, 1]")
    return Check(
        "transient_window", not problems,
        detail=("the transient series must tile the measurement window "
                "exactly and recovery cannot land outside it"
                + ("; " + "; ".join(problems) if problems else "")))


def _check_ci_sanity(rec: dict, tol: float) -> Check | None:
    replicas = _num(rec, "replicas")
    ci_keys = [k for k in rec if k.endswith("_ci")]
    if replicas is None and not ci_keys:
        return None
    problems = []
    if replicas is not None:
        if replicas < 1 or replicas != int(replicas):
            problems.append(f"replicas={replicas!r} not a positive integer")
        seeds = rec.get("seeds")
        if isinstance(seeds, list):
            if len(seeds) != replicas:
                problems.append(f"{len(seeds)} seeds for replicas={replicas:.0f}")
            if len(set(seeds)) != len(seeds):
                problems.append("duplicate seeds in one replica group")
    for k in ci_keys:
        v = _num(rec, k)
        if v is None:
            continue  # NaN-poisoned CI (empty window) maps to null
        if v < 0:
            problems.append(f"{k}={v} negative")
        elif replicas == 1 and v != 0.0:
            problems.append(f"{k}={v} nonzero for a single replica")
    return Check(
        "ci_sanity", not problems,
        detail=("confidence half-widths are non-negative, zero for a "
                "single replica, and seed lists match the replica count"
                + ("; " + "; ".join(problems) if problems else "")))


#: every record-level invariant, in report order — the Markdown report
#: lists each of these names per figure even when not applicable
RECORD_CHECKS: tuple[tuple[str, object], ...] = (
    ("counters", _check_counters),
    ("throughput_bounds", _check_throughput_bounds),
    ("capacity_bounds", _check_capacity_bounds),
    ("latency_ordering", _check_latency_ordering),
    ("latency_floor", _check_latency_floor),
    ("throughput_consistency", _check_throughput_consistency),
    ("drain_conservation", _check_drain_conservation),
    ("drain_latency", _check_drain_latency),
    ("transient_window", _check_transient_window),
    ("ci_sanity", _check_ci_sanity),
)

#: checks only a live instrumented window can perform
LIVE_CHECKS = ("flow_conservation", "little_law", "occupancy_nonnegative")


def check_record(rec: dict, *, tolerance: float = DEFAULT_TOLERANCE) -> list[Check]:
    """Every applicable invariant of one result record.

    Checkers skip silently where a field is absent (reduced drain
    records, table rows) — an emitted :class:`Check` means the record
    carried enough data to be judged.
    """
    out = []
    for _, fn in RECORD_CHECKS:
        c = fn(rec, tolerance)
        if c is not None:
            out.append(c)
    return out


# --------------------------------------------------------- figure reports

@dataclass(frozen=True)
class ResultReport:
    """Verification verdict for one figure/table result payload.

    ``checks`` holds every verdict as a ``(record label, Check)`` pair;
    the per-invariant tallies and the failures are read off it.
    """

    figure: str
    description: str
    records: int
    checks: list[tuple[str, Check]] = field(compare=False)

    @property
    def failures(self) -> list[tuple[str, Check]]:
        return [(label, c) for label, c in self.checks if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def tallies(self) -> dict[str, list[int]]:
        """``{invariant: [applied, failed]}``: every record check in
        report order, then any other check the list carries."""
        out = {name: [0, 0] for name, _ in RECORD_CHECKS}
        for _, c in self.checks:
            tally = out.setdefault(c.check, [0, 0])
            tally[0] += 1
            tally[1] += not c.ok
        return out


def iter_records(result: dict):
    """Yield ``(label, record)`` for every point of a figure payload."""
    series = result.get("series")
    if not isinstance(series, dict):
        raise ValueError("result has no 'series' mapping")
    for name, points in series.items():
        if not isinstance(points, list):
            raise ValueError(f"series {name!r} is not a list of records")
        for i, rec in enumerate(points):
            if not isinstance(rec, dict):
                raise ValueError(f"series {name!r}[{i}] is not a record")
            yield f"{name}[{i}]", rec


def verify_result(result: dict, *,
                  tolerance: float = DEFAULT_TOLERANCE) -> ResultReport:
    """Run every record invariant over one figure/table payload.

    Beyond the per-record checks, the implied node count
    (``delivered_phits / (throughput * window)``) must agree across all
    records of one figure — every series of a figure runs on the same
    fabric size, so a disagreement means a record was transplanted or a
    normalisation drifted.
    """
    checks: list[tuple[str, Check]] = []
    records = 0
    implied_nodes: dict[int, str] = {}
    for label, rec in iter_records(result):
        records += 1
        checks += [(label, c) for c in check_record(rec, tolerance=tolerance)]
        thr, phits = _num(rec, "throughput"), _num(rec, "delivered_phits")
        window = _window(rec)
        if thr and phits is not None and window is not None:
            implied_nodes.setdefault(round(phits / (thr * window)), label)
    if len(implied_nodes) > 1:
        sizes = ", ".join(f"{n} ({label})"
                          for n, label in sorted(implied_nodes.items()))
        checks.append(("<cross-record>", Check(
            "throughput_consistency", False,
            detail=("records of one figure imply different fabric sizes: "
                    + sizes))))
    return ResultReport(figure=result.get("id", "?"),
                        description=str(result.get("description", "")),
                        records=records, checks=checks)


# ------------------------------------------------------------ live checks

def min_hop_floor(topo) -> int:
    """Smallest router-to-router hop count any packet can experience.

    The topology oracle's lower bound for delivery latency: when a
    router hosts more than one node (``p >= 2``) some source/target
    pairs need zero network hops; otherwise the closest distinct router
    pair sets the floor.
    """
    if topo.num_nodes > topo.num_routers or topo.num_routers <= 1:
        return 0
    return min(topo.minimal_hops(0, r) for r in range(1, topo.num_routers))


def min_latency_floor(topo, config) -> float:
    """Hard lower bound on any delivered packet's latency (cycles).

    Serialization of the packet's own phits through a unit-width
    channel, plus the oracle's minimal hop count at the cheapest link
    latency.  Conservative by construction: queueing, router pipeline
    and per-hop serialization only add to it.
    """
    link = min(config.local_latency, config.global_latency)
    return config.packet_phits + min_hop_floor(topo) * link


def live_checks(hub, *, tolerance: float = DEFAULT_TOLERANCE,
                little_tolerance: float = LITTLE_TOLERANCE) -> list[Check]:
    """The full invariant set over a live :class:`MetricsHub` window.

    Everything here reads hub/engine state the record checks cannot
    see: the engine's in-flight count, the in-flight level and
    per-(kind, vc) occupancy sampled at each bucket boundary, and the
    per-packet latency extrema.  Returned checks complement the hub's own
    flow-conservation check (which :meth:`MetricsHub.verify` always
    emits first).
    """
    sim = hub.sim
    checks: list[Check] = []
    buckets = hub.completed_buckets()
    n = len(buckets)
    window = n * hub.bucket

    # counters: cumulative event tallies can only grow from zero
    bad = [k for k in ("injected", "delivered", "delivered_phits", "grants",
                       "credit_phits", "ring_hops")
           if getattr(hub, k) < 0]
    if hub.delivered_phits < hub.delivered:
        bad.append("delivered_phits<delivered")
    checks.append(Check(
        "counters", not bad,
        detail=("hub counters are monotone non-negative event counts"
                + (f"; offending: {', '.join(bad)}" if bad else ""))))

    # occupancy: credits never exceed capacity, now or at any boundary
    occ_min = min((v for occ in (hub._sample()[1], *(b.occupancy for b in buckets))
                   for v in occ.values()), default=0)
    sample_min = min((b.inflight for b in buckets), default=0)
    ok = occ_min >= 0 and sample_min >= 0
    checks.append(Check(
        "occupancy_nonnegative", ok, lhs=min(occ_min, sample_min), rhs=0,
        detail="downstream buffer occupancy and sampled in-flight levels "
               "are physical quantities; a negative value means grant/"
               "credit events were lost or double-counted"))

    # throughput <= ejection capacity (one phit per node per cycle)
    if window > 0:
        thr = (sum(b.delivered_phits for b in buckets)
               / (sim.topo.num_nodes * window))
        checks.append(Check(
            "throughput_bounds", 0.0 <= thr <= 1.0 + tolerance,
            lhs=thr, rhs=1.0, tolerance=tolerance,
            detail="accepted load over the completed buckets cannot "
                   "exceed one phit per node per cycle"))

    # Little's law: mean in-flight level == arrival rate * mean latency
    delivered = sum(b.delivered for b in buckets)
    if n >= 4 and delivered >= LITTLE_MIN_DELIVERED:
        l_bar = sum(b.inflight for b in buckets) / n
        # deliveries are stamped at tail-ejection completion while the
        # engine removes the packet from the population at the current
        # cycle; the hub's measured eject lead is exactly the
        # packet-cycles the latency integral counts that the sampled
        # population never holds (scaled to the completed buckets)
        lead = (hub.eject_lead * delivered / hub.delivered
                if hub.delivered else 0.0)
        l_pred = (sum(b.latency_sum for b in buckets) - lead) / window
        # the level is sampled at bucket opens (left rectangles), so the
        # discretisation error is bounded by the series' total variation
        # per bucket: negligible at steady state, exactly as wide as
        # needed on drain/transient ramps
        variation = sum(abs(b2.inflight - b1.inflight)
                        for b1, b2 in zip(buckets, buckets[1:]))
        slack = little_tolerance * max(l_pred, 1.0) + variation / n
        ok = abs(l_bar - l_pred) <= slack
        checks.append(Check(
            "little_law", ok, lhs=l_bar, rhs=l_pred,
            tolerance=little_tolerance,
            detail=f"L = lambda*W over {n} completed buckets: mean sampled "
                   f"in-flight {l_bar:.2f} vs latency-integral "
                   f"{l_pred:.2f} packets (sampling slack "
                   f"{variation / n:.2f})"))

    # latency floor from the topology oracle + serialization
    if hub.latency_min is not None:
        floor = min_latency_floor(sim.topo, sim.config)
        checks.append(Check(
            "latency_floor", hub.latency_min >= floor,
            lhs=hub.latency_min, rhs=floor,
            detail="no delivered packet can beat its own serialization "
                   "plus the topology's minimal-hop link latency"))
    return checks


# ------------------------------------------------------ Markdown report

def mark(ok: bool) -> str:
    """The verdict mark of every Markdown report row."""
    return "✅" if ok else "❌"


def render_markdown(reports, *, tolerance: float = DEFAULT_TOLERANCE,
                    title: str = "Invariant verification report") -> str:
    """Per-figure ✅/❌ Markdown report over :class:`ResultReport` rows.

    Modeled on the BK_ASF verification guide (SNIPPETS.md §2): one
    section per figure listing **every** registered invariant with how
    many records it applied to, then the failures with both sides of
    each broken identity.
    """
    reports = list(reports)
    total_checks = sum(len(r.checks) for r in reports)
    total_failures = sum(len(r.failures) for r in reports)
    lines = [f"# {title}", ""]
    verdict = ("all ✅" if total_failures == 0
               else f"{total_failures} check(s) ❌")
    lines.append(f"**{len(reports)} result(s) · {total_checks} invariant "
                 f"checks applied · {verdict}** (relative tolerance "
                 f"{tolerance:g}; see docs/VERIFICATION.md)")
    for r in reports:
        lines += ["", f"## {mark(r.ok)} {r.figure} — "
                      f"{r.description or 'no description'}",
                  "",
                  f"{r.records} record(s), {len(r.checks)} check(s) "
                  f"applied.", "",
                  "| invariant | records checked | status |",
                  "|---|---|---|"]
        for name, (applied, failed) in r.tallies().items():
            checked = f"{applied - failed}/{applied}" if applied else "0"
            status = mark(not failed) if applied else "–"
            lines.append(f"| {name} | {checked} | {status} |")
        if r.failures:
            lines.append("")
            lines.append("Failures:")
            for label, c in r.failures:
                lhs = "" if c.lhs is None else f" lhs={c.lhs}"
                rhs = "" if c.rhs is None else f" rhs={c.rhs}"
                lines.append(f"- ❌ `{label}` **{c.check}**:"
                             f"{lhs}{rhs} — {c.detail}")
    return "\n".join(lines) + "\n"


__all__ = [
    "Check", "DEFAULT_TOLERANCE", "FlowConservationError",
    "InvariantViolation", "LITTLE_MIN_DELIVERED", "LITTLE_TOLERANCE", "LIVE_CHECKS",
    "RECORD_CHECKS", "ResultReport", "VerifyReport", "check_record",
    "dragonfly_nodes", "enforce", "iter_records", "live_checks",
    "mark", "min_hop_floor", "min_latency_floor", "render_markdown",
    "verify_result",
]
