"""``engine="auto"`` before numpy: who may have an array core, and who wins with one.

Stdlib only — the wheel imports this module, so nothing here may pull
numpy in.  An ``auto`` point is sent to its engine in two steps:

1. **Eligibility, at construction** (:func:`select_core`).  The array
   core's pure-array hot path needs routes that are a function of
   injection state alone.  Five static clauses, each a fact about the
   point's components: the routing class declares ``array_core = True``
   (minimal routing does; adaptive mechanisms re-decide per cycle and
   consume RNG), it has no per-cycle hook and no escape ring,
   arbitration is ``rr`` or ``age`` (``random`` draws from the routing
   RNG per conflict), and flow control is the built-in VCT / WH pair.
   A point that fails one *is* a wheel run from the start.  One that
   passes constructs no ``Router``: ``sim._core`` holds
   :data:`UNDECIDED` and ``sim.routers`` a :class:`ParkedRouters`.

2. **The offered load, at the first step or injection**
   (:func:`core_wins`).  ``facade.session()`` builds the simulator with
   ``traffic=None`` and attaches the process afterwards, so the first
   ``step`` is the earliest place a load exists.  The stand-in reads it
   there and either installs an ``ArrayCore`` — the one import of
   :mod:`repro.network.arraysim`, and of numpy with it; a missing numpy
   fails that import and the point stays on the wheel — or leaves
   through ``Simulator._leave_core`` with nothing to convert (one wheel
   construction; ``rng_traffic`` is still the plain ``random.Random``).

Which way a point went, and the clause that sent it there, are readable
as ``Simulator.engine_path`` / ``engine_why``; neither ever enters a
record, a cache key or a streamed row.
"""

from __future__ import annotations

import weakref

from repro.core.base import RoutingAlgorithm
from repro.network.flowcontrol import VirtualCutThrough, Wormhole
from repro.topology.base import PortKind

#: Offered flits a cycle (``num_nodes × load / unit``) from which the
#: array core beats the wheel: the core's cycle costs a fixed number of
#: numpy calls, the wheel's a Python pass per flit that moves, so what
#: the sources offer decides.  One constant per flow-control regime,
#: read off whole points (construction + warm-up + measurement, CPU
#: time, wheel and pinned core interleaved on a warm fabric; wheel ÷
#: core, > 1 means the core wins) — ``BENCH_engine.json``'s ``rule_*``
#: rows re-measure both sides, ``docs/measurements/pr-23.md`` has every
#: row:
#:
#: * VCT, 120 + 120 and 500 + 500 cycles alike — lose: h=2 load 1.0 (9.0
#:   flits) ×0.73–0.95, h=3 load 0.2 (8.6) ×0.84–1.04; win: h=3 load 0.25
#:   (10.7) ×1.01–1.27, load 0.3 (12.8) ×1.26, h=4 load 0.1 (13.2) ×1.38.
#:   The rule's one known miss: a *sparse large* fabric, h=4 load 0.07
#:   (9.2), where the core wins ×1.16–1.23 and the rule says wheel.
#: * WH (a multi-flit packet holds its route and its output VC, which
#:   the allocator pays for every cycle; 80-phit packets in 10-phit
#:   flits also need ≈ 100 cycles to cross, so a 120 + 120 window is
#:   mostly ramp) — lose: h=3 load 0.4 (13.7) ×0.64 short / ×1.09 long,
#:   h=4 load 0.15 (15.8) ×0.88 / ×1.07, h=3 load 0.5 (17.1) ×0.54 /
#:   ×1.07; win: h=5 load 0.08 (20.4) ×1.24 short, h=4 load 0.2 (21.1)
#:   ×0.99 / ×1.25, h=4 load 0.25 (26.4) ×1.08 short, h=3 load 0.7 (23.9)
#:   ×0.84 / ×1.36.  Between a long window's break-even (≈ 14) and a
#:   short one's (≈ 21 at h ≥ 4) the constant takes the long window's
#:   side of the middle: figures measure thousands of cycles.
CORE_WINS_FROM_VCT = 10.0
CORE_WINS_FROM_WH = 18.0


def core_wins(num_nodes: int, load: float | None, unit: int,
              whole_packet_reservation: bool) -> tuple[bool, str]:
    """Whether the array core beats the wheel on a point, and the clause.

    ``load`` is the offered load in phits/(node·cycle), or ``None`` when
    the traffic process states none (a burst, a trace, packets injected
    by hand): such a point is judged saturated, at load 1.0, which
    makes the rule a fabric-size clause for it — a burst keeps every
    source busy until it is spent.  ``unit`` is the phits of one flit
    (the whole packet under VCT).
    """
    offered = num_nodes * (1.0 if load is None else load) / unit
    if whole_packet_reservation:
        regime, threshold = "vct", CORE_WINS_FROM_VCT
    else:
        regime, threshold = "wh", CORE_WINS_FROM_WH
    wins = offered >= threshold
    return wins, (f"offered {offered:.1f} flits/cycle "
                  f"{'>=' if wins else '<'} {threshold:g} ({regime})")


class _Undecided:
    """``sim._core`` of an eligible ``auto`` point nobody has stepped yet.

    It holds nothing (one instance serves every simulator): the first
    ``step`` or ``inject_packet`` decides, then runs on whichever engine
    won.  Anything that needs the object graph before that leaves
    through ``_leave_core`` as it would leave a real core, and
    :meth:`materialize` has nothing to write back.
    """

    __slots__ = ()
    buffered = 0

    def step(self, sim) -> None:
        _decide(sim)
        sim.step()

    def inject(self, sim, src: int, dst: int, t: int):
        _decide(sim)
        return sim.inject_packet(src, dst, t)

    def vc_occupancy(self, sim) -> dict:
        """Nothing ran on it: every buffer is empty."""
        return dict.fromkeys(occupancy_keys(sim.topo, sim.local_vcs,
                                            sim.global_vcs), 0)

    def materialize(self, sim) -> None:
        """Nothing ran on it: the fresh routers are the whole state."""


UNDECIDED = _Undecided()


def occupancy_keys(topo, local_vcs: int, global_vcs: int) -> list:
    """The ``(port kind, VC)`` keys of ``Simulator.vc_occupancy``, in the
    order a router lists its outputs: local, then global."""
    return [(int(kind), vc)
            for kind, ports, vcs in ((PortKind.LOCAL, topo.local_ports, local_vcs),
                                     (PortKind.GLOBAL, topo.global_ports, global_vcs))
            if ports for vc in range(vcs)]


def select_core(sim) -> tuple[_Undecided | None, str]:
    """``(UNDECIDED, "")`` for a point the array core could run, or
    ``(None, clause)``: a wheel run, and the clause that made it one."""
    algo_t = type(sim.algo)
    if not getattr(algo_t, "array_core", False):
        clause = f"routing {sim.config.routing!r} is not array_core"
    elif sim._per_cycle is not None:
        clause = "the routing has a per-cycle hook"
    elif algo_t.is_escape_hop is not RoutingAlgorithm.is_escape_hop:
        clause = "the routing has an escape ring"
    elif sim.config.arbitration not in ("rr", "age"):
        clause = f"arbitration {sim.config.arbitration!r} draws per conflict"
    elif type(sim.fc) not in (VirtualCutThrough, Wormhole):
        clause = f"flow control {sim.config.flow_control!r} is not built in"
    else:
        return UNDECIDED, ""
    return None, clause


def _decide(sim) -> None:
    """Send ``sim`` to the engine that wins its point (once: either way
    ``sim._core`` stops being :data:`UNDECIDED`)."""
    config = sim.config
    vct = sim.fc.whole_packet_reservation
    unit = (config.packet_phits if vct
            else min(config.flit_phits, config.packet_phits))
    wins, why = core_wins(sim.topo.num_nodes,
                          getattr(sim.traffic, "load", None), unit, vct)
    if wins:
        try:
            from repro.network.arraysim import ArrayCore
        except ImportError:
            wins, why = False, "no numpy"
    if wins:
        sim._core = ArrayCore(sim)
        sim.engine_why = why
    else:
        sim._leave_core(why)


class ParkedRouters:
    """``sim.routers`` while no object router exists: using it builds them.

    Iterating, indexing or sizing the router list means someone wants
    the object graph, which does not exist under a core (or before the
    engine is decided) — so the first use leaves
    (``Simulator._leave_core`` builds the routers, fills them from the
    arrays and rebinds ``sim.routers`` to the real list) and this and
    every later use delegate to that list.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim) -> None:
        self._sim = weakref.proxy(sim)  # no cycle: refcount frees the point

    def _routers(self) -> list:
        sim = self._sim
        if sim._core is not None:
            sim._leave_core("sim.routers was read")
        return sim.routers

    def __iter__(self):
        return iter(self._routers())

    def __len__(self) -> int:
        return len(self._routers())

    def __getitem__(self, index):
        return self._routers()[index]


__all__ = ["CORE_WINS_FROM_VCT", "CORE_WINS_FROM_WH", "UNDECIDED",
           "ParkedRouters", "core_wins", "occupancy_keys", "select_core"]
