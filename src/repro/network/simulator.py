"""The cycle engine: arrivals, allocation, grants, credits, the delivery ledger.

One :class:`Simulator` owns the routers, the routing algorithm instance
and the traffic process, and *borrows* the topology: fabrics are
compiled once per process and shared by every point on them
(:mod:`repro.topology.fabric`), so a simulator allocates only what its
point mutates.  Each cycle it

1. delivers flits whose link traversal completes this cycle,
2. applies returned credits,
3. lets the traffic process inject packets (``traffic.inject``),
4. runs the per-cycle routing hook (Piggybacking broadcasts),
5. performs routing + switch allocation at every router with buffered
   flits (round-robin over the VCs of an input port, round-robin over
   the input ports requesting an output port).

Hot-path design (PR 3) — the engine emits *byte-identical* records to
the seed engine (see ``tests/test_engine_equivalence.py``) while doing
strictly less work per cycle:

* **timing wheel** — in-flight flits and returning credits live in a
  cycle-indexed ring of reusable buckets (``when % horizon``) instead
  of dict-of-lists event maps: O(1) pop, no hashing, no ``setdefault``
  churn, no list allocation in steady state.  The horizon covers the
  maximum schedulable delay (link latency + flit serialization +
  router pipeline), so slots never collide.
* **active-router set** — ``step()`` visits only routers with buffered
  flits (tracked by router id, iterated in ascending id order so the
  arbitration RNG stream is unchanged) instead of scanning all
  ``num_routers`` every cycle.
* **idle fast-forward** — ``run``/``run_until_drained`` jump ``now``
  straight to the next scheduled event when no router holds a flit and
  the traffic process cannot inject (exhausted burst, zero load).
  Skipped cycles are provably no-ops, so records are unchanged; the
  win is huge on burst-drain tails (paper Figs 6b/9b).  Fast-forward
  is disabled when the routing algorithm has a per-cycle hook
  (Piggybacking broadcasts must observe every cycle).
* **stall-aware head retry** (PR 14) — a routing mechanism that refuses
  a head *without drawing a random number*, because the head's only
  admissible output serialises until ``busy_until``, says so through
  ``packet.retry_at``; the head is not re-decided before that cycle.  A
  router whose every buffered flit waits on a serialising input or
  output port records the earliest such cycle (``Router.wake_at``) and
  is not visited until then, or until a flit arrives or is injected.
  Sound because ``busy_until`` never decreases, a blocked head's packet
  state cannot change, and no skipped ``decide`` call would have touched
  ``rng_route`` (``docs/ARCHITECTURE.md`` spells the invariants out).

**One simulator, an optional array core** — under ``engine="auto"`` a
point the core wins carries a numpy structure-of-arrays core in
``_core`` and ``step`` / ``inject_packet`` hand over to it (one ``is not
None`` test).  The choice is made in two places, both in
:mod:`repro.network.corechoice` (stdlib): ``__init__`` asks only
whether the point's components *could* run on the core, and parks an
undecided stand-in if so; the first ``step`` or injection — the first
time an offered load exists — sends the point to the engine that wins
it.  :mod:`repro.network.arraysim` (and numpy with it) is imported
there, for a point the core wins, and nowhere else, so a wheel run — an
``auto`` point the rule keeps on the wheel included — is stdlib-only,
and batched injection is the core's protocol: the wheel has one
injection call, ``traffic.inject``.  No object router exists until the
wheel is chosen: a point that stays on its core builds none (its
arrays' static half comes from the compiled fabric), and
``_leave_core`` builds them for every run that ends up on the wheel.
``Simulator.engine_path`` / ``engine_why`` say which
way a point went and why.

The pre-rewrite hot path survives verbatim as
:class:`repro.network.reference.ReferenceSimulator` for benchmarking
(``tools/bench_engine.py``) and golden-record fidelity checks; it
ignores ``retry_at`` and re-decides every head every cycle, which makes
it the oracle for the skip.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.core import MisroutingTrigger, routing_by_name
from repro.core.base import RoutingAlgorithm
from repro.network import arbitration as _arbitration  # noqa: F401 (registers arbiters)
from repro.network.config import SimConfig
from repro.network.corechoice import UNDECIDED, ParkedRouters, select_core
from repro.network.flowcontrol import FlowControl  # noqa: F401 (registers policies)
from repro.network.packet import Flit, Packet
from repro.network.router import Router
from repro.registry import (
    ARBITER_REGISTRY,
    ENGINE_REGISTRY,
    FLOW_CONTROL_REGISTRY,
)
from repro.topology import PortKind
from repro.topology.fabric import fabric_for

_EJECT = PortKind.EJECT
#: "no refusal seen yet" sentinel of the per-router wake-cycle scan
_NEVER = 1 << 62


class DeadlockError(RuntimeError):
    """Raised when no flit moves for ``deadlock_window`` cycles with traffic in flight."""


class Ledger(NamedTuple):
    """A sample of the engine's cumulative delivery ledger
    (:meth:`Simulator.ledger`); a window is two samples apart."""

    cycle: int
    generated: int
    delivered: int
    latency_sum: int
    hops_sum: int
    local_misroutes: int
    global_misroutes: int

    def since(self, opened: Ledger) -> Ledger:
        return Ledger(*(b - a for a, b in zip(opened, self)))


@ENGINE_REGISTRY.register(
    "auto", description="array core where it wins the point, wheel otherwise")
@ENGINE_REGISTRY.register(
    "wheel", description="object-graph engine with a cycle-indexed timing wheel")
class Simulator:
    """Cycle-level simulator over any registered topology.

    Components are resolved by name through the unified registries:
    ``config.topology`` -> fabric, ``config.routing`` -> mechanism,
    ``config.flow_control`` -> link policy, ``config.arbitration`` ->
    output arbiter.  The engine itself is topology-agnostic; it only
    uses the :class:`~repro.topology.base.Topology` protocol surface.
    ``config.engine`` picks between the two names this class registers
    under: ``"auto"`` may attach an array core, ``"wheel"`` never does.
    """

    @property
    def engine_path(self) -> str:
        """``"wheel"``, ``"core"``, or ``"undecided"`` (an eligible
        ``auto`` point before its first step or injection).  Telemetry:
        never part of a record, a cache key or a streamed row."""
        core = self._core
        if core is None:
            return "wheel"
        return "undecided" if core is UNDECIDED else "core"

    def __init__(self, config: SimConfig, traffic=None) -> None:
        self.config = config
        #: the compiled fabric this point borrows (topology, and under a
        #: core the array layout and route table): shared, never written
        self._fabric = fabric_for(config)
        self.topo = self._fabric.topo
        algo_cls = routing_by_name(config.routing)
        self.fc = FLOW_CONTROL_REGISTRY.get(config.flow_control).from_config(config)
        if algo_cls.requires_vct and not self.fc.whole_packet_reservation:
            raise ValueError(
                f"routing {config.routing!r} requires VCT flow control "
                "(it relies on whole-packet reservation)"
            )
        unit = config.packet_phits if self.fc.whole_packet_reservation else config.flit_phits
        if unit > min(config.local_buffer_phits, config.global_buffer_phits):
            raise ValueError(
                f"flow-control unit of {unit} phits does not fit the smallest "
                f"buffer ({min(config.local_buffer_phits, config.global_buffer_phits)} phits)"
            )
        # VC allocation: whatever the config asks for, but never fewer
        # than the routing mechanism or the fabric's own minimal-route
        # discipline can address (e.g. the torus date-line scheme needs
        # 3 global VCs for Valiant paths; the paper fabric's floor
        # equals the config defaults, so nothing changes there)
        self.local_vcs = max(config.local_vcs, algo_cls.local_vcs,
                             getattr(self.topo, "route_local_vcs", 1))
        self.global_vcs = max(config.global_vcs, algo_cls.global_vcs,
                              getattr(self.topo, "route_global_vcs", 1))
        self.rng_traffic = random.Random(config.seed)
        self.rng_route = random.Random(config.seed ^ 0x9E3779B9)
        self.trigger = MisroutingTrigger(config.threshold)
        self.algo = algo_cls(self.topo, config, self.trigger, self.rng_route)
        self.traffic = traffic
        #: hooks ``(packet, cycle) -> None`` fired at tail ejection, in
        #: registration order (see :meth:`add_delivery_observer`)
        self._delivery_observers: list = []
        #: cumulative counts, always on (a live array core bumps them
        #: too): grants and returned credit phits for boundary samplers,
        #: then the delivery ledger that every window reads (:meth:`ledger`)
        self.grants = 0
        self.credit_phits = 0
        self.delivered = 0
        self.latency_sum = 0
        self.hops_sum = 0
        self.delivered_local_misroutes = 0
        self.delivered_global_misroutes = 0
        #: ``[next boundary, fn]`` per sampler, and the earliest boundary
        self._samplers: list[list] = []
        self._sample_at = _NEVER
        self.now = 0
        self.packets_in_flight = 0
        self._next_pid = 0
        self._last_progress = 0
        self.arbiter = ARBITER_REGISTRY.get(config.arbitration)()
        self._router_latency = config.router_latency

        # ---- timing wheel: one slot per cycle of the scheduling horizon.
        # The horizon bounds every schedulable delay: flow-control arrival
        # delay on the slowest link for the largest flit, plus the router
        # pipeline, plus credit return (= link latency <= arrival delay).
        max_latency = max(config.local_latency, config.global_latency)
        probe = Flit(Packet(0, 0, 1, config.packet_phits, 0, 0, 0, 0, 0), 0,
                     max(config.packet_phits, config.flit_phits), True, True)
        self._horizon = (max(self.fc.arrival_delay(max_latency, probe), max_latency)
                         + config.router_latency + 2)
        self._arr_wheel: list[list] = [[] for _ in range(self._horizon)]
        self._cr_wheel: list[list] = [[] for _ in range(self._horizon)]
        self._pending_events = 0
        #: router ids with at least one buffered flit (``router.pending > 0``)
        self._active: set[int] = set()
        # per-cycle routing hook, resolved once: ``None`` when the
        # mechanism never overrode the base no-op (every mechanism but
        # Piggybacking), which also licenses idle fast-forwarding
        overridden = type(self.algo).per_cycle is not RoutingAlgorithm.per_cycle
        self._per_cycle = self.algo.per_cycle if overridden else None
        self._fc_arrival_delay = self.fc.arrival_delay
        #: the array core running this point, the undecided stand-in until
        #: the first step says which engine wins it, or ``None``: a wheel
        #: run.  Subclasses stay on the wheel because the core would
        #: bypass their allocation overrides (the frozen reference engine
        #: is one)
        #: ``engine_why``: the clause that decided :attr:`engine_path`, as
        #: a short string (telemetry, like the path)
        if config.engine == "auto" and type(self) is Simulator:
            self._core, self.engine_why = select_core(self)
        else:
            self._core, self.engine_why = None, f"engine={config.engine!r}"
        #: the object routers — or, until the wheel is chosen, a stand-in
        #: whose first use chooses it: a point that stays on its core
        #: never builds a ``Router``
        self.routers = (self._build_routers() if self._core is None
                        else ParkedRouters(self))

    def _build_routers(self) -> list:
        """Fresh object routers for this point, credit upstreams wired."""
        config = self.config
        wiring = self._fabric.wiring
        routers = [
            Router(
                rid, self.topo, wiring[rid],
                local_vcs=self.local_vcs, global_vcs=self.global_vcs,
                local_capacity=config.local_buffer_phits,
                global_capacity=config.global_buffer_phits,
                local_latency=config.local_latency,
                global_latency=config.global_latency,
            )
            for rid in range(self.topo.num_routers)
        ]
        # point every input VC buffer at the output unit feeding it
        for router in routers:
            for out in router.outputs:
                if out.kind is _EJECT:
                    continue
                for vcb in routers[out.dest_router].inputs[out.dest_port].vcs:
                    vcb.upstream_output = out
        return routers

    # ------------------------------------------------------------ array core
    def _leave_core(self, why: str = "_leave_core() was called") -> None:
        """Build the object routers, fill them from the core, drop it (one-way).

        The only way off the core (or off the undecided stand-in, which
        has nothing to hand over), and the only place an eligible
        ``auto`` point pays for object routers: they, the FIFOs, credits
        and timing wheels come out exactly as the wheel would have built
        them, and the run continues on the wheel path.
        """
        core, self._core = self._core, None
        self.engine_why = why
        self.routers = self._build_routers()
        core.materialize(self)

    # ------------------------------------------------------------- observers
    def add_delivery_observer(self, fn):
        """Register ``fn(packet, cycle)`` to fire at every tail ejection.

        Returns ``fn`` so the method can be used as a decorator.  Any
        number of observers may be attached (metrics probes, trace
        writers, a Session's hub, ...).  Observers fire in
        registration order.  Rebinds the list copy-on-write, like
        :meth:`remove_delivery_observer`.  A live array core keeps
        running; it batches a cycle's deliveries when each observer is a
        bound method whose object has ``on_eject_batch``.
        """
        self._delivery_observers = [*self._delivery_observers, fn]
        return fn

    def remove_delivery_observer(self, fn) -> None:
        """Detach a previously added delivery observer.

        Rebinds the list copy-on-write so the delivery hot path can
        iterate it without snapshotting, even when an observer detaches
        itself (or a peer) mid-callback.
        """
        observers = list(self._delivery_observers)
        observers.remove(fn)  # equality match, as bound methods require
        self._delivery_observers = observers

    def add_sampler(self, fn, at: int) -> None:
        """Call ``fn(boundary)``, which returns the next one, from ``at`` on.

        A sampler fires at the end of the step that reaches a boundary,
        or at the idle jump that crosses it: skipped cycles are
        event-free, so each boundary in a jump reads the same state.  It
        reads the engine's always-on counters (``grants``,
        ``credit_phits``, ``_next_pid``, the routing's misroute and ring
        counts) and :meth:`vc_occupancy`, and observes only — no state
        mutation, no RNG.  Every engine keeps those counters, so a live
        core keeps running."""
        self._samplers = [*self._samplers, [at, fn]]
        self._sample_at = min(self._sample_at, at)

    def remove_sampler(self, fn) -> None:
        """Detach a sampler added by :meth:`add_sampler` (idempotent)."""
        self._samplers = [e for e in self._samplers if e[1] != fn]
        self._sample_at = min((e[0] for e in self._samplers), default=_NEVER)

    def _sample(self) -> None:
        """Fire every sampler boundary at or before ``now``."""
        now = self.now
        for entry in self._samplers:
            while entry[0] <= now:
                entry[0] = entry[1](entry[0])
        self._sample_at = min((e[0] for e in self._samplers), default=_NEVER)

    def vc_occupancy(self) -> dict:
        """Downstream buffer occupancy in phits per ``(port kind, VC)``,
        summed over every local and global output: what a boundary
        sampler reads as the network's buffer level."""
        core = self._core
        if core is not None:
            return core.vc_occupancy(self)
        p, nl = self.topo.p, self.topo.local_ports
        occupancy: dict = {}
        # a router's local, then global outputs: one kind, one capacity
        # and one VC count each
        for first, last in ((p, p + nl), (p + nl, None)):
            outs = [out for router in self.routers
                    for out in router.outputs[first:last]]
            if outs:
                kind, cap = int(outs[0].kind), outs[0].capacity
                for vc, credits in enumerate(zip(*[out.credits for out in outs])):
                    occupancy[(kind, vc)] = cap * len(credits) - sum(credits)
        return occupancy

    # ------------------------------------------------------------ injection
    def inject_packet(self, src: int, dst: int, now: int | None = None) -> Packet:
        """Create a packet at node ``src`` bound for node ``dst`` and queue it."""
        if src == dst:
            raise ValueError("source and destination nodes must differ")
        t = self.now if now is None else now
        core = self._core
        if core is not None:
            return core.inject(self, src, dst, t)
        topo = self.topo
        sr = topo.router_of_node(src)
        dr = topo.router_of_node(dst)
        pkt = Packet(self._next_pid, src, dst, self.config.packet_phits, t,
                     sr, topo.group_of(sr), dr, topo.group_of(dr))
        self._next_pid += 1
        if self.config.record_hops:
            pkt.hops_log = []
        flits = self.fc.flits_of(pkt)
        router = self.routers[sr]
        port = router.inputs[topo.node_index(src)]
        vcb = port.vcs[0]
        for f in flits:
            vcb.push(f)
        n = len(flits)
        port.buffered += n
        router.pending += n
        router.wake_at = 0
        self._active.add(sr)
        self.packets_in_flight += 1
        return pkt

    # ------------------------------------------------------------ main loop
    def step(self) -> None:
        """Advance the simulation by one cycle."""
        core = self._core
        if core is not None:
            core.step(self)
            if self.now >= self._sample_at:
                self._sample()
            return
        t = self.now
        slot = t % self._horizon
        bucket = self._arr_wheel[slot]
        if bucket:
            active_add = self._active.add
            for router, port_idx, vc_idx, flit in bucket:
                port = router.inputs[port_idx]
                vcb = port.vcs[vc_idx]  # VCBuffer.push, inlined
                vcb.fifo.append(flit)
                vcb.occupancy += flit.size
                port.buffered += 1
                router.pending += 1
                router.wake_at = 0
                active_add(router.rid)
            self._pending_events -= len(bucket)
            bucket.clear()
            # a scheduled arrival landing is forward progress: without
            # this, packets whose flits are all in flight on links longer
            # than ``deadlock_window`` would trip the deadlock detector
            self._last_progress = t
        bucket = self._cr_wheel[slot]
        if bucket:
            phits = 0
            for out, vc, amount in bucket:
                out.credits[vc] += amount
                phits += amount
            self.credit_phits += phits
            self._pending_events -= len(bucket)
            bucket.clear()
            self._last_progress = t
        traffic = self.traffic
        if traffic is not None:
            traffic.inject(self, t)
        per_cycle = self._per_cycle
        if per_cycle is not None:
            per_cycle(self, t)
        active = self._active
        if active:
            routers = self.routers
            process = self._process_router
            # ascending router id, as the seed engine scanned: the order
            # feeds the arbitration RNG stream and must not change
            rids = sorted(active) if len(active) > 1 else tuple(active)
            for rid in rids:
                router = routers[rid]
                if router.wake_at > t:
                    continue  # every buffered flit waits on a serialising port
                if router.pending:
                    process(router, t)
                    if not router.pending:
                        active.discard(rid)
                else:  # defensively drop stale members
                    active.discard(rid)
        self.now = t + 1
        if t + 1 >= self._sample_at:
            self._sample()

    def _next_event_cycle(self) -> int | None:
        """Earliest cycle >= ``now`` with a scheduled arrival or credit.

        Offsets ``0..horizon-1`` cover every live slot: an event due at
        ``now`` itself (offset 0, not yet popped) must map to ``now``,
        never alias to ``now + horizon``.  A live array core schedules
        into the same slots (array chunks instead of tuples), so the
        scan is the same.
        """
        if not self._pending_events:
            return None
        horizon = self._horizon
        now = self.now
        arr, cr = self._arr_wheel, self._cr_wheel
        for off in range(horizon):
            slot = (now + off) % horizon
            if arr[slot] or cr[slot]:
                return now + off
        return None  # unreachable while _pending_events is consistent

    def _fast_forward_target(self, limit: int) -> int | None:
        """Latest cycle <= ``limit`` the engine may jump to, or ``None``.

        A jump is sound only when every skipped cycle is provably a
        no-op: no router holds a flit, the routing mechanism has no
        per-cycle hook (Piggybacking must observe every cycle), and the
        traffic process either cannot inject any more (``exhausted``,
        burst spent, zero load) or knows its next injection cycle
        (``next_injection_cycle``, implemented by trace/burst
        processes).  The target is the earliest of the next scheduled
        arrival/credit, the next possible injection, and ``limit``.
        """
        core = self._core
        buffered = self._active if core is None else core.buffered
        if buffered or self._per_cycle is not None:
            return None
        traffic = self.traffic
        if traffic is None or getattr(traffic, "exhausted", False):
            tin = None
        else:
            nic = getattr(traffic, "next_injection_cycle", None)
            if nic is None:
                return None  # opaque open-loop source: every cycle may inject
            tin = nic(self.now)
        nxt = self._next_event_cycle()
        target = min(t for t in (tin, nxt, limit) if t is not None)
        return target if target > self.now else None

    def run(self, cycles: int) -> None:
        """Run ``cycles`` cycles, watching for deadlock.

        Cycles in which provably nothing can happen (no buffered flit,
        no possible injection) are skipped by jumping straight to the
        next scheduled arrival/credit/injection event.
        """
        end = self.now + cycles
        window = self.config.deadlock_window
        while self.now < end:
            self.step()
            if (
                self.packets_in_flight
                and not self._pending_events
                and self.now - self._last_progress > window
            ):
                raise DeadlockError(
                    f"no flit moved for {window} cycles at t={self.now} "
                    f"with {self.packets_in_flight} packets in flight"
                )
            if self.now < end:
                target = self._fast_forward_target(end)
                if target is not None:
                    self.now = target
                    if target >= self._sample_at:
                        self._sample()

    def run_until_drained(self, max_cycles: int) -> int:
        """Run until all traffic is injected and delivered; return the cycle count.

        A traffic process may advertise pending future injections via an
        ``exhausted`` attribute (burst and trace processes do); open-loop
        Bernoulli sources are never exhausted, so draining them raises
        after ``max_cycles`` — detach the traffic first.
        """
        window = self.config.deadlock_window
        start = self.now
        while True:
            self.step()  # step first: traffic may inject on the first cycle
            if not self.packets_in_flight and (
                self.traffic is None
                or getattr(self.traffic, "exhausted", True)
            ):
                break  # nothing in flight and no future injections pending
            if self.now - start >= max_cycles:
                raise DeadlockError(
                    f"not drained after {max_cycles} cycles "
                    f"({self.packets_in_flight} packets left)"
                )
            if (
                not self._pending_events
                and self.now - self._last_progress > window
            ):
                raise DeadlockError(
                    f"no flit moved for {window} cycles at t={self.now} "
                    f"with {self.packets_in_flight} packets in flight"
                )
            # never jump past the drain budget: the timeout check above
            # must fire exactly as it would cycle-by-cycle
            target = self._fast_forward_target(start + max_cycles)
            if target is not None:
                self.now = target
                if target >= self._sample_at:
                    self._sample()
        return self.now - start

    # ------------------------------------------------------------ allocation
    def _process_router(self, router: Router, t: int) -> None:
        sels = None
        # earliest cycle a flit refused here can move, while every refusal
        # is a serialising port (input or output ``busy_until``); 0 once a
        # refusal may lift sooner (credits, ownership, a re-drawn candidate)
        wake = _NEVER
        algo_decide = self.algo.decide
        remaining = router.pending  # stop scanning once every flit is seen
        for ip in router.inputs:
            buffered = ip.buffered
            if not buffered:
                continue
            busy = ip.busy_until
            if busy <= t:
                vcs = ip.vcs
                nv = len(vcs)
                rr = ip.rr
                sel = None
                for off in range(nv):
                    vi = rr + off
                    if vi >= nv:
                        vi -= nv
                    vcb = vcs[vi]
                    fifo = vcb.fifo
                    if not fifo:
                        continue
                    flit = fifo[0]
                    oidx = vcb.route_out
                    if oidx is None:
                        # a head flit awaiting (or re-evaluating) its routing decision
                        pkt = flit.packet
                        stall = pkt.retry_at
                        if stall <= t:
                            dec = algo_decide(router, pkt, t, flit)
                            if dec is not None:
                                sel = (ip, vcb, flit, dec.out, dec.vc, dec)
                                break
                            stall = pkt.retry_at
                            if stall <= t:
                                wake = 0
                                continue
                        # stalled head: its one admissible output serialises
                        # until ``stall`` and re-deciding before then would
                        # draw no random number and refuse again
                        if stall < wake:
                            wake = stall
                        continue
                    # body/tail flit following its head: Router.can_accept_body,
                    # inlined (hot under Wormhole: one check per flit per cycle)
                    ovc = vcb.route_vc
                    o = router.outputs[oidx]
                    stall = o.busy_until
                    if stall > t:
                        if stall < wake:
                            wake = stall
                        continue
                    if o.kind is not _EJECT and (
                        o.credits[ovc] < flit.size
                        or o.owner[ovc] != flit.packet.pid
                    ):
                        wake = 0
                        continue
                    sel = (ip, vcb, flit, oidx, ovc, None)
                    break
                if sel is not None:
                    if sels is None:
                        sels = [sel]
                    else:
                        sels.append(sel)
            elif busy < wake:
                wake = busy
            remaining -= buffered
            if not remaining:
                break
        if sels is None:
            router.wake_at = wake
            return
        outputs = router.outputs
        nin = len(router.inputs)
        grant = self._grant
        if len(sels) == 1:  # uncontested cycle: skip the grouping pass
            sel = sels[0]
            out = outputs[sel[3]]
            out.rr = (sel[0].index + 1) % nin
            grant(router, out, sel, t)
            return
        # group by requested output, insertion-ordered like the seed
        # engine's dict-of-lists; bare tuples dodge the per-output list
        # allocation in the common uncontested case
        requests: dict = {}
        requests_get = requests.get
        for sel in sels:
            o = sel[3]
            prev = requests_get(o)
            if prev is None:
                requests[o] = sel
            elif type(prev) is list:
                prev.append(sel)
            else:
                requests[o] = [prev, sel]
        arbiter = self.arbiter
        rng = self.rng_route
        for o, entry in requests.items():
            out = outputs[o]
            if type(entry) is list:
                win = arbiter.pick(entry, out, nin, rng)
            else:
                win = entry
            out.rr = (win[0].index + 1) % nin
            grant(router, out, win, t)

    def _grant(self, router: Router, out, sel, t: int) -> None:
        ip, vcb, flit, oidx, ovc, dec = sel
        size = flit.size
        vcb.fifo.popleft()
        vcb.occupancy -= size
        router.pending -= 1
        ip.buffered -= 1
        busy = t + size
        ip.busy_until = busy
        ip.rr = (vcb.vc_index + 1) % len(ip.vcs)
        out.busy_until = busy
        pkt = flit.packet
        is_eject = out.kind is _EJECT
        if dec is not None:
            self.algo.on_hop(router, pkt, dec)
            if pkt.hops_log is not None:
                pkt.hops_log.append((int(out.kind), out.index, ovc))
            if not flit.is_tail:
                vcb.route_out = oidx
                vcb.route_vc = ovc
                if not is_eject:
                    out.owner[ovc] = pkt.pid
        elif flit.is_tail:
            vcb.route_out = None
            vcb.route_vc = None
            if not is_eject:
                out.owner[ovc] = None
        if is_eject:
            if flit.is_tail:
                self._deliver(pkt, busy)
        else:
            out.credits[ovc] -= size
            when = t + self._fc_arrival_delay(out.latency, flit) + self._router_latency
            if when - t >= self._horizon:
                raise ValueError(
                    f"arrival delay {when - t} exceeds the timing-wheel "
                    f"horizon {self._horizon}; the flow-control policy "
                    "reported a larger delay at grant time than at setup"
                )
            self._arr_wheel[when % self._horizon].append(
                (self.routers[out.dest_router], out.dest_port, ovc, flit)
            )
            self._pending_events += 1
        up = vcb.upstream_output
        if up is not None:
            self._cr_wheel[(t + up.latency) % self._horizon].append(
                (up, vcb.vc_index, size)
            )
            self._pending_events += 1
        self._last_progress = t
        self.grants += 1

    def _deliver(self, pkt: Packet, done: int) -> None:
        """Book ``pkt``, whose tail finishes ejecting at ``done``, and
        tell the delivery observers (every engine's per-packet path)."""
        pkt.delivered_cycle = done
        self.delivered += 1
        self.latency_sum += done - pkt.birth
        self.hops_sum += pkt.local_hops_total + pkt.g_hops
        self.delivered_local_misroutes += pkt.local_misroutes
        if pkt.global_misrouted:
            self.delivered_global_misroutes += 1
        self.packets_in_flight -= 1
        # safe without a snapshot: removal rebinds the list
        for observer in self._delivery_observers:
            observer(pkt, done)

    def ledger(self) -> Ledger:
        """The cycle, packets injected and the delivered packets' sums."""
        return Ledger(self.now, self._next_pid, self.delivered,
                      self.latency_sum, self.hops_sum,
                      self.delivered_local_misroutes,
                      self.delivered_global_misroutes)

    # ------------------------------------------------------------ utilities
    def total_buffered_flits(self) -> int:
        core = self._core
        if core is not None:
            return core.buffered
        return sum(r.buffered_flits() for r in self.routers)

    def arrivals_due(self, when: int) -> list:
        """Flit arrivals scheduled for cycle ``when`` (introspection/tests).

        Entries are ``(router, port_idx, vc_idx, flit)`` tuples; the
        list is only meaningful for ``now <= when < now + horizon``.
        """
        if self._core is not None:
            self._leave_core("arrivals_due was read")  # wants object tuples
        return list(self._arr_wheel[when % self._horizon])


def build_simulator(config: SimConfig, traffic=None) -> Simulator:
    """Build the engine selected by ``config.engine``.

    Resolved through :data:`~repro.registry.ENGINE_REGISTRY`, so
    third-party engines registered before the call are selectable like
    built-ins.  ``wheel`` and ``auto`` are both :class:`Simulator` (it
    reads ``config.engine`` to decide whether an array core may
    attach); ``reference`` is the frozen seed hot path.  All of them
    share the :class:`Simulator` interface and emit byte-identical
    records (the golden-matrix contract).
    """
    if config.engine not in ENGINE_REGISTRY:
        import repro.network  # noqa: F401  (registers the reference engine)
    return ENGINE_REGISTRY.get(config.engine)(config, traffic)
