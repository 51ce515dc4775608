"""The seed engine's hot path, frozen verbatim for comparison runs.

:class:`ReferenceSimulator` overrides every hot-path method of
:class:`~repro.network.simulator.Simulator` with the pre-timing-wheel
(PR 2) implementation: dict-of-lists event maps keyed by cycle, a full
scan over all routers every cycle, no idle fast-forward and no
per-port occupancy counters.  Construction, component resolution,
wiring, observers and the delivery ledger are shared with the live engine.

It exists for two jobs:

* ``tools/bench_engine.py`` measures the timing-wheel engine's
  cycles/sec against it (the committed ``BENCH_engine.json``: the
  ``speedup_wheel_vs_reference`` rows — 2.4-3.9x where idle
  fast-forward applies, 1.2-1.4x on dense drains, about 1x on steady
  saturated windows).  Both engines run the same ``repro.core``
  routing classes, so the ratio isolates the engine loop; and since
  this engine ignores ``packet.retry_at`` and re-decides every head
  every cycle, it is also the oracle for the wheel's stall skip;
* ``tests/test_engine_equivalence.py`` replays golden-record scenarios
  through it to prove the frozen copy still *is* the seed engine, so
  the live-vs-reference comparison keeps meaning something.

Do not "fix" or optimise this module — behaviour drift here silently
devalues both jobs.  The only intended divergence from the live engine
is the seed's known deadlock-detector false positive (flits in flight
on links longer than ``deadlock_window`` trip it); the regression test
for the fix exercises the live engine only.  The one addition to the
seed's loop is what a :class:`~repro.metrics.hub.MetricsHub` reads —
the ``grants`` / ``credit_phits`` counters and boundary samplers fired
at the end of a step — so every engine measures a point the same way
(``facade.run_point`` always does it through a hub); none of it
touches a record.  Deliveries are booked through the shared
``Simulator._deliver``, so the delivery ledger is the live engine's.
"""

from __future__ import annotations

from repro.network.config import SimConfig
from repro.network.packet import Packet
from repro.network.router import Router
from repro.network.simulator import DeadlockError, Simulator
from repro.topology import PortKind


class ReferenceSimulator(Simulator):
    """Cycle engine with the seed (PR 2) hot path, for benchmarks/goldens."""

    def __init__(self, config: SimConfig, traffic=None) -> None:
        super().__init__(config, traffic)
        self._arrivals: dict[int, list] = {}
        self._credit_events: dict[int, list] = {}

    # ------------------------------------------------------------ injection
    def inject_packet(self, src: int, dst: int, now: int | None = None):
        if src == dst:
            raise ValueError("source and destination nodes must differ")
        t = self.now if now is None else now
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
        vcb = router.inputs[topo.node_index(src)].vcs[0]
        for f in flits:
            vcb.push(f)
        router.pending += len(flits)
        self.packets_in_flight += 1
        return pkt

    # ------------------------------------------------------------ main loop
    def step(self) -> None:
        """One cycle, seed style: dict event pop + full router scan."""
        t = self.now
        arrivals = self._arrivals.pop(t, None)
        if arrivals:
            for router, port_idx, vc_idx, flit in arrivals:
                router.inputs[port_idx].vcs[vc_idx].push(flit)
                router.pending += 1
        credits = self._credit_events.pop(t, None)
        if credits:
            for out, vc, amount in credits:
                out.credits[vc] += amount
                self.credit_phits += amount
        if self.traffic is not None:
            self.traffic.inject(self, t)
        self.algo.per_cycle(self, t)
        for router in self.routers:
            if router.pending:
                self._process_router(router, t)
        self.now = t + 1
        if t + 1 >= self._sample_at:
            self._sample()

    def run(self, cycles: int) -> None:
        end = self.now + cycles
        window = self.config.deadlock_window
        while self.now < end:
            self.step()
            if (
                self.packets_in_flight
                and self.now - self._last_progress > window
            ):
                raise DeadlockError(
                    f"no flit moved for {window} cycles at t={self.now} "
                    f"with {self.packets_in_flight} packets in flight"
                )

    def run_until_drained(self, max_cycles: int) -> int:
        window = self.config.deadlock_window
        start = self.now
        while True:
            self.step()
            if not self.packets_in_flight and (
                self.traffic is None
                or getattr(self.traffic, "exhausted", True)
            ):
                break
            if self.now - start >= max_cycles:
                raise DeadlockError(
                    f"not drained after {max_cycles} cycles "
                    f"({self.packets_in_flight} packets left)"
                )
            if self.now - self._last_progress > window:
                raise DeadlockError(
                    f"no flit moved for {window} cycles at t={self.now} "
                    f"with {self.packets_in_flight} packets in flight"
                )
        return self.now - start

    # ------------------------------------------------------------ allocation
    def _process_router(self, router: Router, t: int) -> None:
        requests: dict[int, list] | None = None
        algo = self.algo
        for ip in router.inputs:
            if ip.busy_until > t:
                continue
            vcs = ip.vcs
            nv = len(vcs)
            rr = ip.rr
            sel = None
            for off in range(nv):
                vi = rr + off
                if vi >= nv:
                    vi -= nv
                vcb = vcs[vi]
                if not vcb.fifo:
                    continue
                flit = vcb.fifo[0]
                if vcb.route_out is None:
                    dec = algo.decide(router, flit.packet, t, flit)
                    if dec is None:
                        continue
                    sel = (ip, vcb, flit, dec.out, dec.vc, dec)
                else:
                    oidx, ovc = vcb.route_out, vcb.route_vc
                    if not router.can_accept_body(oidx, ovc, flit, t):
                        continue
                    sel = (ip, vcb, flit, oidx, ovc, None)
                break
            if sel is not None:
                if requests is None:
                    requests = {}
                requests.setdefault(sel[3], []).append(sel)
        if not requests:
            return
        nin = len(router.inputs)
        arbiter = self.arbiter
        for oidx, reqs in requests.items():
            out = router.outputs[oidx]
            if len(reqs) == 1:
                win = reqs[0]
            else:
                win = arbiter.pick(reqs, out, nin, self.rng_route)
            out.rr = (win[0].index + 1) % nin
            self._grant(router, out, win, t)

    def _grant(self, router: Router, out, sel, t: int) -> None:
        ip, vcb, flit, oidx, ovc, dec = sel
        vcb.pop()
        router.pending -= 1
        ip.busy_until = t + flit.size
        ip.rr = (vcb.vc_index + 1) % len(ip.vcs)
        out.busy_until = t + flit.size
        pkt = flit.packet
        is_eject = out.kind == PortKind.EJECT
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
                self._deliver(pkt, t + flit.size)
        else:
            out.credits[ovc] -= flit.size
            when = t + self.fc.arrival_delay(out.latency, flit) + self._router_latency
            self._arrivals.setdefault(when, []).append(
                (self.routers[out.dest_router], out.dest_port, ovc, flit)
            )
        up = vcb.upstream_output
        if up is not None:
            self._credit_events.setdefault(t + up.latency, []).append(
                (up, vcb.vc_index, flit.size)
            )
        self._last_progress = t
        self.grants += 1


__all__ = ["ReferenceSimulator"]
