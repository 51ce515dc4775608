"""Instrumentation taps: event hooks on the engine's existing event points.

A *tap* is any object exposing one or more of the event methods below;
:meth:`~repro.network.simulator.Simulator.add_tap` inspects the object
and wires each implemented method straight onto the matching engine
event point.  The design contract is **rich when attached, free when
not**: with no tap registered the hot path pays a single ``is None``
check per event site.

Time series need no per-hop tap: the engine keeps cumulative counters
(``grants``, ``credit_phits``, ``_next_pid``, the routing's misroute
counts) and calls each *boundary sampler* (``Simulator.add_sampler``)
at the end of the step that reaches a boundary, or at the idle jump
that crosses it: skipped cycles are event-free, so each boundary in a
jump reads the same state.  The ``MetricsHub`` samples so.

Event points (all cycle-stamped):

``on_inject(packet, cycle)``
    A packet was created and queued at its source injection FIFO.
``on_grant(router, out, vc, flit, decision, cycle)``
    A flit won switch allocation and started crossing ``out``.
    ``decision`` is the routing :class:`~repro.core.base.Decision` for
    head flits (carrying misroute flags) and ``None`` for body/tail
    flits following their head.
``on_eject(packet, cycle)``
    A tail flit left the network (fires once per delivered packet, at
    the same point as the delivery observers).
``on_credit(out, vc, amount, cycle)``
    A credit returned to output unit ``out`` for downstream VC ``vc``.
``on_ring_entry(router, out, vc, flit, cycle)``
    A head flit was granted onto an escape-ring VC (OFAR's bubble
    ring; see :meth:`~repro.core.base.RoutingAlgorithm.is_escape_hop`).
    Fires for every escape-ring hop; consumers that want entries
    rather than hops de-duplicate per packet (the
    :class:`~repro.metrics.hub.MetricsHub` does).  Wired only if the
    routing overrides ``is_escape_hop``.

Taps and samplers observe only — no state mutation, no RNG — so they
never perturb the simulated records (enforced by
``tools/bench_engine.py --tap``, a hub plus a tap on all five events,
and the golden-with-hub test in ``tests/test_observability.py``).
"""

from __future__ import annotations

#: the recognised tap event method names, in firing-site order
TAP_EVENTS = ("on_inject", "on_grant", "on_eject", "on_credit", "on_ring_entry")


class Tap:
    """Optional convenience base class for taps.

    Purely documentary — taps are duck-typed; :meth:`Simulator.add_tap`
    only wires the ``on_*`` methods actually defined on the object, so
    subclasses override exactly the events they care about.  Deriving
    from this base is never required.
    """

    __slots__ = ()


__all__ = ["Tap", "TAP_EVENTS"]
