"""Channel-dependency graphs (CDG), explored from the routing code.

Routing is deadlock-free if its CDG — a node per buffer (link, VC), an
edge wherever a packet can hold one while it waits for the other — is
acyclic (Dally & Seitz).  :func:`explore` drives the mechanism's own
``decide`` / ``on_hop`` over stub routers whose every read is a choice:
per output one of six (busy, credits) profiles (free with ``capacity``,
``2·size``, ``size`` or 0 credits, busy with ``capacity`` or 0; a
wormhole VC is owned when it has no room), occupancy fractions, PB's
queue depth and flags, ``rng`` draws and ``trigger.allows``.  It searches
depth first from every injection state to ejection, memoising outcomes
per router on the packet fields ``decide`` read, and records an edge per
(held channel → requested channel).  A sampler drawing twice in one call
(a redraw loop) is cut: its first draw offered every value.  Nodes:
``("L"|"G", u, v, vc)`` the channel u→v, ``("EJ", r)`` ejection at ``r``.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from types import SimpleNamespace

import networkx as nx

from repro.core import RoutingAlgorithm, routing_by_name
from repro.registry import FLOW_CONTROL_REGISTRY
from repro.topology.base import PortKind
from repro.topology.fabric import fabric_for
from repro.topology.route import RouteState

_EJECT, _LOCAL, _GLOBAL = PortKind.EJECT, PortKind.LOCAL, PortKind.GLOBAL
_KIND = {"L": _LOCAL, "G": _GLOBAL}
#: what a routing decision may read or write of a packet: the memo key
_STATE = RouteState.__slots__ + ("committed", "mode")


class _Probe(RouteState):
    """A packet: routing state, and what else ``decide`` / ``on_hop`` touch."""

    __slots__ = ("committed", "mode", "src", "size_phits", "retry_at",
                 "local_misroutes", "global_misrouted")

    def __init__(self, topo, src: int, dst: int, size: int) -> None:
        super().__init__(src, topo.group_of(src), topo.node_id(dst, 0), dst, topo.group_of(dst))
        self.committed, self.mode, self.src = False, None, topo.node_id(src, 0)
        self.size_phits, self.retry_at, self.local_misroutes = size, 0, 0
        self.global_misrouted = False

    def clone(self) -> "_Probe":
        twin = _Probe.__new__(_Probe)
        for f, v in zip(_FIELDS, _every(self)):
            setattr(twin, f, v)
        return twin


class _View:
    """What ``decide`` sees of a probe: reads logged, writes kept aside."""

    def __init__(self, probe: _Probe, reads: set) -> None:
        self._probe, self._reads = probe, reads

    def __getattr__(self, name):
        self._reads.add(name)
        return getattr(self._probe, name)


_FIELDS = RouteState.__slots__ + _Probe.__slots__
_every, _key = attrgetter(*_FIELDS), attrgetter(*_STATE)


class _Cut(Exception):
    """A redraw: every value it could give, the first draw gave."""


class _Lookup:
    def __init__(self, get) -> None:
        self.get = get

    def __getitem__(self, key):
        return self.get(key)


class _Output:
    """A router output whose every field ``decide`` reads is a choice."""

    def __init__(self, x: "_Chooser", kind: PortKind, capacity: int) -> None:
        self.kind, self.capacity, self._x = kind, capacity, x
        self.credits = _Lookup(lambda vc: x.credits(self, vc))
        self.owner = _Lookup(lambda vc: None if x.credits(self, vc) >= x.size else -1)

    @property
    def busy_until(self) -> int:
        return self._x.once(self, (0, 1))  # free or busy at ``now = 0``

    def mean_occupancy_fraction(self) -> float:
        return self._x.once(("occupancy", self), (0.0, 1.0))


class _Chooser:
    """The choices of ``decide`` calls, and the mechanism's ``rng`` and
    ``trigger``: :meth:`runs` replays a prefix of choices per call and
    takes the first option past it, until every sequence is tried."""

    def __init__(self, size: int) -> None:
        self.size = size

    def runs(self, call):
        """``call()`` (``_Cut`` for a cut redraw) under every choice sequence."""
        self.path = []  # [option taken, options] per choice made
        while True:
            self.depth, self.seen, self.samplers, self.allowed = 0, {}, [], False
            try:
                yield call()
            except _Cut:
                yield _Cut
            while self.path and self.path[-1][0] + 1 == self.path[-1][1]:
                self.path.pop()
            if not self.path:
                return
            self.path[-1][0] += 1

    def pick(self, options):
        d, self.depth = self.depth, self.depth + 1
        if d == len(self.path):
            self.path.append([0, len(options)])
        return options[self.path[d][0]]

    def once(self, key, options):
        """One choice per ``key`` per ``decide`` call."""
        if key not in self.seen:
            self.seen[key] = self.pick(options)
        return self.seen[key]

    def credits(self, out: _Output, vc: int) -> int:
        s, cap, busy = self.size, out.capacity, out.busy_until
        return self.once((out, vc), (cap, 0) if busy else (cap, 2 * s, s, 0))

    def draw(self, n: int) -> int:
        sampler = sys._getframe(2)  # the code that called rng.getrandbits / randrange
        if any(f is sampler for f in self.samplers):
            raise _Cut
        self.samplers.append(sampler)
        return self.pick(range(n))

    getrandbits = lambda self, k: self.draw(1 << k)
    randrange = lambda self, n: self.draw(n)

    def allows(self, minimal_occupancy, candidate_occupancy) -> bool:
        ok = self.pick((False, True))
        self.allowed |= ok
        return ok


class Cdg(SimpleNamespace):
    """What :func:`explore` saw: the ``graph``, its ``escape`` sub-graph
    (``decide`` with every ``allows`` refused), the ``criterion`` safety
    rests on and, for a ring, the ``faults`` seen."""

    def problem(self) -> str | None:
        """``None`` if deadlock-free, else what fails, with a witness: an
        acyclic graph; under ``requires_vct`` an acyclic escape sub-graph
        through which every channel reaches ejection; with an escape
        resource (OFAR's ring) a ring hop or ejection in every state,
        granted with room for two packets onto the ring, one along it."""
        if self.criterion == "ring":
            return self.faults[0] if self.faults else None
        which = "escape" if self.criterion == "escape" else "full"
        cycle = cycle_witness(self.escape if which == "escape" else self.graph)
        if cycle is not None:
            return f"the {which} CDG has a cycle: {cycle}"
        sinks = [c for c in self.escape if c[0] == "EJ"]
        reach = set(sinks).union(*(nx.ancestors(self.escape, s) for s in sinks))
        lost = [c for c in self.graph if c not in reach]
        if self.criterion == "escape" and lost:
            return f"channel {lost[0]} reaches no ejection through the escape CDG"
        return None


def cycle_witness(graph: nx.DiGraph) -> list | None:
    """A concrete dependency cycle of ``graph``, or ``None`` if acyclic."""
    try:
        return nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return None


def explore(config) -> Cdg:
    """The CDG of ``config``'s routing on its fabric under its flow control."""
    topo, links = fabric_for(config).topo, fabric_for(config).wiring
    algo_cls = routing_by_name(config.routing)
    fc = FLOW_CONTROL_REGISTRY.get(config.flow_control).from_config(config)
    if algo_cls.requires_vct and not fc.whole_packet_reservation:
        raise ValueError(f"routing {config.routing!r} requires VCT flow control")
    n, nl, p = topo.num_routers, topo.local_ports, topo.p
    shift = getattr(topo, "rotation", 0)
    for r in range(n if shift else 0):  # a declared rotation must be real
        if links[(r + shift) % n] != tuple(((w + shift) % n, q) for w, q in links[r]):
            raise ValueError(f"{topo!r} declares rotation {shift}, which does "
                             f"not map router {r}'s links onto router {r + shift}'s")

    head = fc.flits_of(_Probe(topo, 0, 0, config.packet_phits))[0]
    x = _Chooser(head.size)
    algo = algo_cls(topo, config.with_(misroute_candidates=1), x, x)
    if isinstance(getattr(algo, "_flags", None), list):
        # PB's broadcast: the one mechanism state ``per_cycle`` writes
        algo._flags = _Lookup(lambda g: _Lookup(lambda k: x.once(("flag", g, k), (0, 1))))
    ring = type(algo).is_escape_hop is not RoutingAlgorithm.is_escape_hop
    cap = {_EJECT: 0, _LOCAL: config.local_buffer_phits, _GLOBAL: config.global_buffer_phits}
    kinds = [_EJECT] * p + [_LOCAL] * nl + [_GLOBAL] * topo.global_ports
    routers = [SimpleNamespace(
        rid=r, group=topo.group_of(r), idx=topo.index_in_group(r), out_base=(0, p, p + nl),
        outputs=[_Output(x, k, cap[k]) for k in kinds],
        out_local=lambda q: p + q, out_global=lambda q: p + nl + q,
        inputs=_Lookup(lambda k, r=r: SimpleNamespace(vcs=_Lookup(lambda v: SimpleNamespace(
            occupancy=x.once(("queue", r, k, v), (0, sys.maxsize)))))))
        for r in range(n)]
    # a ring lap grows the hop counters for ever: past the longest Valiant
    # route the edges stopped growing on every fabric measured; any other
    # route must eject before it takes a hop per router
    limit = 2 * max(topo.minimal_hops(s, d) for s in range(n) for d in range(n)) if ring else n

    def outcomes(rid: int, probe: _Probe) -> tuple:
        """The fields ``decide`` read, and ``[decision, fields written,
        channel, escape, least credits granted]`` per distinct result."""
        router, found, reads, views = routers[rid], {}, set(), []

        def decide():
            views.append(view := _View(probe, reads))
            return algo.decide(router, view, 0, head)

        for d in x.runs(decide):
            wrote = tuple(sorted((f, v) for f, v in vars(views.pop()).items() if f in _STATE))
            if d is _Cut:
                continue
            if d is not None:
                q = d.out - p
                channel = ("EJ", rid) if q < 0 else (
                    "L" if q < nl else "G", rid, links[rid][q][0], d.vc)
                entry = found.setdefault((d.out, d.vc, d.valiant_group, d.local_target,
                                          d.is_local_misroute, wrote),
                                         [d, wrote, channel, False, sys.maxsize])
                if q >= 0:
                    entry[4] = min(entry[4], x.seen.get((router.outputs[d.out], d.vc), -1))
            elif wrote:  # a refusal that decided something (PB's mode)
                entry = found.setdefault(wrote, [None, wrote, None, False, None])
            else:
                continue
            entry[3] |= not x.allowed
        return tuple(sorted(reads & set(_FIELDS))), list(found.values())

    edges, escape, faults, seen = set(), set(), [], set()
    memo: dict = {}  # router -> fields read -> (their getter, {values: outcomes})
    stack = [(s, None, _Probe(topo, s, d, config.packet_phits))
             for s in range(shift or n) for d in range(n)]
    while stack:
        rid, held, probe = stack.pop()
        key = _key(probe)
        if (rid, held, key) in seen:
            continue
        seen.add((rid, held, key))
        tables = memo.setdefault(rid, {})
        found = next((t[get(probe)] for get, t in tables.values() if get(probe) in t), None)
        if found is None:
            fields, found = outcomes(rid, probe)
            get, table = tables.setdefault(fields, (attrgetter(*fields), {}))
            table[get(probe)] = found
            if ring and not any(c and (c[0] == "EJ" or algo.is_escape_hop(_KIND[c[0]], c[3]))
                                for _, _, c, _, _ in found):
                faults.append(f"no ring hop or ejection offered at router {rid} to {key}")
        for d, wrote, channel, safe, credits in found:
            nxt = probe.clone()
            for f, v in wrote:
                setattr(nxt, f, v)
            if channel is None:
                if _key(nxt) != key:
                    stack.append((rid, held, nxt))
                continue
            algo.on_hop(routers[rid], nxt, d)
            if held is not None:
                edges.add((held, channel))
                if safe:
                    escape.add((held, channel))
            if channel[0] == "EJ":
                continue
            if ring and algo.is_escape_hop(_KIND[channel[0]], channel[3]):
                aboard = held is not None and algo.is_escape_hop(_KIND[held[0]], held[3])
                if credits < (1 if aboard else 2) * head.size:
                    faults.append(f"ring hop {held} -> {channel} granted on {credits} credits")
            if nxt.g_hops + nxt.local_hops_total <= limit:
                stack.append((channel[2], channel, nxt))
            elif not ring:
                raise RuntimeError(f"route {key} took {limit} hops without ejecting")

    def turned(node: tuple, k: int) -> tuple:
        return (node[0], *((v + k) % n for v in node[1:3]), *node[3:])

    graph, esc = (nx.DiGraph(sorted((turned(u, k), turned(v, k)) for k in
                                    range(0, n, shift or n) for u, v in pairs))
                  for pairs in (edges, escape))
    return Cdg(graph=graph, escape=esc, faults=faults,
               criterion="ring" if ring else "escape" if algo_cls.requires_vct else "acyclic")
