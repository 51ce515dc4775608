"""The optional array core: numpy structure-of-arrays cycle kernels.

The wheel path of :class:`~repro.network.simulator.Simulator` spends
its saturated-traffic cycles in per-flit Python object traversal:
every buffered input port is visited, every candidate VC scanned, and
every grant mutates a half-dozen heap objects.  :class:`ArrayCore`
flattens all router/port/VC state into numpy structure-of-arrays and
runs each cycle's arrival/credit/allocation/grant phases as batched
vectorized passes over *all* routers at once — the per-cycle cost
becomes a fixed number of array kernels instead of O(buffered flits)
interpreter work.

The core is **not** a simulator.  The ``Simulator`` keeps the public
API, the delivery observers and samplers, the run loops and every
scalar they read (``now``, ``packets_in_flight``, ``_pending_events``,
``_last_progress``, the ``grants`` / ``credit_phits`` counters); the
core holds the SoA state and the kernels (:meth:`~ArrayCore.step`,
:meth:`~ArrayCore.inject`, :meth:`~ArrayCore.inject_batch`,
``buffered``, :meth:`~ArrayCore.vc_occupancy`,
:meth:`~ArrayCore.materialize`), is handed the simulator on every call
(no back-reference, so a finished point is freed by refcount) and
touches its scalars once per cycle or per batch, never per flit.
Scheduled arrivals and credits live in the simulator's own
timing-wheel slots as ``(ids, payload)`` array chunks instead of
per-flit tuples, so its one next-event scan serves both paths.

**What a point borrows** — everything that is a pure function of the
fabric is compiled once per process (:mod:`repro.topology.fabric`) and
shared by every core on it: the :class:`_Layout` (port / VC numbering,
link wiring, initial credits, node tables — read-only arrays computed
from the fabric's wiring table, no object router involved; one per VC
counts, buffer depths and latencies) and the :class:`_RouteTable`
(minimal routes per router pair, append-only, filled by whichever point
first needs a pair; one per VC counts, whatever the buffers and
latencies).  Neither holds a reference to any simulator, and neither can
show in a record: an entry is the same whoever wrote it.  A core
allocates only what its point mutates — busy timers, round-robin
pointers, FIFO links, credits, owners, the flit and packet pools, the
list of packets handed out since the last flush.

**One way in** — ``corechoice._decide``, the one place that imports
this module (numpy with it, unconditionally) and constructs an
:class:`ArrayCore`.  :mod:`repro.network.corechoice` (stdlib) holds
both halves of the rule: the static eligibility clauses a ``Simulator``
built with ``engine="auto"`` checks *before* it would build object
routers, and the offered-load threshold its undecided stand-in reads at
the first ``step`` or injection.  A point that is ineligible, that the
wheel wins, or that finds no numpy never gets here: it *is* a wheel run
and pays for none of this.  A point that does constructs no ``Router``
(``sim.routers`` is a ``ParkedRouters`` stand-in from the start) and the
core's own arrays are built as it is installed.

**One way out** — ``Simulator._leave_core``.  Delivery observers and
boundary samplers keep the core (it bumps ``grants`` / ``credit_phits``
as the wheel does and answers :meth:`ArrayCore.vc_occupancy`), so a
:class:`~repro.metrics.hub.MetricsHub` watches a point where it runs.
Reading the object graph through ``sim.routers`` / ``arrivals_due``
leaves it: fresh object routers are built and wired — here, and only
for runs that leave — :meth:`ArrayCore.materialize` writes the array
state into them mid-run, the core is dropped and the simulation
continues byte-identically on the wheel path.  ``sim.routers`` stays a
plain instance attribute throughout, so the wheel path's own
``self.routers`` loads cost what they always did (a property, or a
``__getattr__`` hook on ``Simulator``, would tax every attribute load
of the wheel hot path).
A run that has left injects through the wheel's one call,
``traffic.inject``, on a plain ``random.Random``: ``materialize``
swaps the core's ``StreamRandom`` for the generator standing at the
same word (:meth:`~repro.traffic.mtstream.StreamRandom.release`).

**Determinism contract** — records are byte-identical to the wheel
path (and hence to the frozen seed engine), enforced over the golden
matrix in ``tests/test_engine_equivalence.py``.  The equivalence rests
on three facts about the wheel's cycle:

1. *Allocation is a pure function of pre-cycle state.*  Within one
   cycle the wheel computes every router's candidate selections before
   applying that router's grants, and a grant at one router only
   mutates its own ports and future wheel slots — never another
   router's same-cycle candidates.  The whole cycle's winner set is
   therefore order-free and can be computed in one batch.
2. *Per-cycle event uniqueness.*  Link serialization separates sends
   on one output by at least the flit size and the arrival delay is
   monotone in it, so at most one flit arrives per (router, input
   port) per cycle; each downstream input VC pops at most one flit per
   cycle and maps to exactly one upstream output VC, so at most one
   credit returns per output VC per cycle.  Batched FIFO pushes and
   credit adds are therefore race-free.
3. *Grant order is reproducible.*  The wheel grants in ascending
   router id, then in requests-dict insertion order — i.e. by the flat
   input-port id of each output's *first* requester.  The core sorts
   its winners by exactly that key, so the few order-sensitive effects
   (delivery-observer firing order, wheel-bucket append order carried
   into a later :meth:`~ArrayCore.materialize`) are preserved verbatim.

With ``record_hops`` the whole hop log is prefilled at injection (the
route is known then); the delivered log is byte-identical, it just
exists earlier than the wheel's grant-time appends.

**Batched injection** — a packet enters the arrays one way,
:meth:`ArrayCore._enqueue`: any number of packets as index arrays,
any flit count (the fixed split, repeated), any source order (packets
of one node are chained in call order), every one of them *lazy* —
identity lives in the packet SoA, the route comes from the fabric's
dense ``(src_router, dst_router)`` table, and no Packet object exists
unless something asks for it (``_ensure_pkt``: a non-batch delivery
observer or a materialization).  Two thin callers.
:meth:`ArrayCore.step` is the only caller of the ``inject_batch(sim,
now) -> (srcs, dsts)`` protocol (the wheel injects through
``traffic.inject``: undoing a batch packet by packet cost it more than
the scalar loop at every fabric size it runs); when the traffic process
offers it (Bernoulli sources do), :meth:`ArrayCore.inject_batch` hands
the two arrays over, VCT and wormhole alike.  A Bernoulli source
builds them from its stream's plan
(:meth:`~repro.traffic.mtstream.StreamRandom.next_cycle`): every whole
cycle the prefetched words hold, gates and UN destinations, in one
vectorised pass, served a cycle per call and word for word the scalar
loop's.  Burst and trace
processes, and anyone calling ``Simulator.inject_packet`` by hand, come
through :meth:`ArrayCore.inject`, and that one stays eager about the
one thing it must: the caller is *returned* its ``Packet``, so the
object, its pid and the counters the wheel would have bumped exist at
call time.  The arrays hear of it at the next flush (at most a cycle
later, before that cycle's batch, so each injection VC keeps call
order), which enqueues the whole list in one kernel call and files the
objects in their slots.
Deliveries of all-lazy grants are batched too: their sums go straight
into the simulator's delivery ledger and their latencies to the
observers' optional ``on_eject_batch``.

**What the allocator reads, and the one integer it keeps** —
:meth:`ArrayCore._alloc` is a function of the arrays and the cycle.
Which ports to scan it reads from ``_ip_buffered``, the per-port flit
count the core keeps anyway (:meth:`~ArrayCore.materialize` hands it to
the routers): when an eighth of the fabric's ports hold flits the scan
is the fabric's own (port, VC offset) layout — four read-only
:class:`_Layout` columns, nothing built — and otherwise the same
columns are laid out over the occupied ports on the spot, so a sparse
backlog costs O(occupied ports) a cycle.  Between cycles it keeps
``_next_alloc_t`` and nothing else: a pass that grants nothing proves
no grant can happen before the earliest busy timer still running (or
ever, if none is), so allocation is skipped until that cycle, and
:meth:`~ArrayCore.step` reopens the gate whenever an arrival, a credit
or an injection lands.  There is no candidate cache, no activity set
and no credit watch to keep in step with the arrays — a kernel added
here has no invalidation protocol to honour — which makes
``_ip_buffered`` load-bearing: a port whose count drifted to 0 with
flits queued would stall silently.  ``tests/helpers.py``
(``assert_core_ledgers``) checks that ledger and the others the
kernels trust against the FIFO chains and the rings.
"""

from __future__ import annotations

from itertools import islice

import numpy as _np

from repro.network.corechoice import occupancy_keys
from repro.network.packet import Flit, Packet
from repro.topology import PortKind
from repro.topology.fabric import MAX_LAYOUTS
from repro.topology.route import RouteState, walk
from repro.traffic.mtstream import StreamRandom

_EJECT = PortKind.EJECT
_LOCAL = PortKind.LOCAL

#: alloc-skip sentinel: "no time-driven unblock — wait for an event"
_ALLOC_IDLE = 1 << 62


def _grow(arr, needed: int):
    """Return ``arr`` grown (amortized doubling) to hold ``needed`` items."""
    cap = len(arr)
    if needed <= cap:
        return arr
    out = _np.zeros(max(needed, cap * 2, 64), dtype=arr.dtype)
    out[:cap] = arr
    return out


class _RouteTable:
    """Minimal routes of one compiled fabric and one pair of VC counts:
    append-only, shared by every point (and every :class:`_Layout`) on them.

    ``pair_rid[sr * nr + dr]`` is the one index: the route id of a
    router pair, ``-1`` until some point first needs the pair.  A route
    is one row — ``off`` / ``nh`` (its slice of the hop pool
    ``rt_op`` / ``rt_fovc``: flat output port and flat output VC per
    hop, the eject hop excluded — it depends on the destination *node*),
    ``hops`` (the hop count a delivery adds to the statistics) and
    ``final`` (the ``RouteState.counters()`` the wheel's per-grant
    ``on_hop`` calls would have left: five small values, interned, so a
    row costs one pointer).  Every entry is a pure function of (fabric,
    pair), so which point filled it never shows in a record.  The dtypes are as
    narrow as the hot path tolerates: the paper's h=8 fabric has 4.26 M
    router pairs, so ``pair_rid`` alone is 17 MB as int32 and a fully
    touched table ≈ 47 B a pair (24 + 8 per hop).

    Readers take no lock.  The miss path (:meth:`_resolve`, reached
    through :meth:`rids` with a whole cycle's unknown pairs at once)
    does, and publishes ``pair_rid`` last, after every array the new
    ids index; an array that had to grow is replaced, never resized in
    place.  So a reader must get its ids *before* it loads the row and
    pool arrays it indexes with them, and cores read those through the
    table at each use rather than keeping their own references.
    """

    def __init__(self, topo, wiring, nout: int, ovc_base: list, lock) -> None:
        self._topo = topo
        self._wiring = wiring
        self._nout = nout
        self._ovc_base = ovc_base
        self._lock = lock
        self.pair_rid = _np.full(topo.num_routers ** 2, -1, _np.int32)
        self.pr_off = _np.zeros(64, _np.int64)  # an index itself: native width
        self.pr_nh = _np.zeros(64, _np.int16)
        self.pr_hops = _np.zeros(64, _np.int16)
        self.final: list[tuple] = []
        self.rt_op = _np.zeros(256, _np.int32)
        self.rt_fovc = _np.zeros(256, _np.int32)
        self._rt_len = 0
        self._interned: dict[tuple, tuple] = {}

    def rids(self, pairs):
        """Route ids of the flat router pairs ``pairs`` (an index array),
        walking first the ones no point has needed yet."""
        rid = self.pair_rid[pairs]
        miss = rid < 0
        if miss.any():
            self._resolve(pairs[miss].tolist())
            rid = self.pair_rid[pairs]
        # the ids index three arrays a cycle: widen once (an int32 index
        # costs every gather a conversion)
        return rid.astype(_np.int64)

    def _resolve(self, pairs: list) -> None:
        """Walk and publish every not-yet-known pair among ``pairs``."""
        with self._lock:
            pair_rid = self.pair_rid
            known = pair_rid.item
            # distinct, and re-checked now that the lock is held
            todo = [pair for pair in dict.fromkeys(pairs) if known(pair) < 0]
            if not todo:
                return
            topo = self._topo
            nr, nout = topo.num_routers, self._nout
            lbase = topo.p
            gbase = lbase + topo.local_ports
            ovc_base = self._ovc_base
            intern = self._interned.setdefault
            ops: list[int] = []
            fovcs: list[int] = []
            offs: list[int] = []
            nhs: list[int] = []
            finals: list[tuple] = []
            start = self._rt_len
            for pair in todo:
                sr, dr = divmod(pair, nr)
                # minimal routes depend on the router pair only: a
                # route to node 0 of the destination stands for all of
                # them up to the eject hop, which is not stored
                route = RouteState(sr, topo.group_of(sr), topo.node_id(dr, 0),
                                   dr, topo.group_of(dr))
                first = len(ops)
                offs.append(start + first)
                for cur, kind, port, _, vc in islice(walk(topo, self._wiring, route), nr + 1):
                    if kind is _EJECT:
                        break
                    fop = cur * nout + ((lbase + port) if kind is _LOCAL
                                        else (gbase + port))
                    ops.append(fop)
                    fovcs.append(ovc_base[fop] + vc)
                assert kind is _EJECT, f"min_hop never ejects from router {sr} to router {dr}"
                nhs.append(len(ops) - first)
                final = route.counters()
                finals.append(intern(final, final))
            # one store per field for the whole batch of misses
            end = start + len(ops)
            self.rt_op = _grow(self.rt_op, end + 1)  # +1: clamp-gather headroom
            self.rt_fovc = _grow(self.rt_fovc, end + 1)
            self.rt_op[start:end] = ops
            self.rt_fovc[start:end] = fovcs
            self._rt_len = end
            r0 = len(self.final)
            r1 = r0 + len(todo)
            self.pr_off = _grow(self.pr_off, r1)
            self.pr_nh = _grow(self.pr_nh, r1)
            self.pr_hops = _grow(self.pr_hops, r1)
            self.pr_off[r0:r1] = offs
            self.pr_nh[r0:r1] = nhs
            self.pr_hops[r0:r1] = [f[0] + f[2] for f in finals]
            self.final.extend(finals)
            pair_rid[todo] = range(r0, r1)  # published last


class _Layout:
    """The static half of the arrays: one per compiled fabric and shape key.

    Everything here is a function of the topology and of what shapes a
    router — VC counts per port kind, buffer depths, link and router
    latencies — computed from the ``Topology`` protocol's port counts
    and the fabric's wiring table, which ``Router.__init__`` wires its
    ports from too (``tests/test_fabric_memo.py`` compares the two).  The arrays are
    read-only and borrowed by reference by every core on the fabric
    (``ArrayCore.__init__`` copies this object's attributes, which is why
    they carry the core's names); :attr:`_routes`, attached by
    :func:`_layout_for`, is the append-only :class:`_RouteTable` of the
    fabric and these VC counts.
    """

    def __init__(self, fabric, local_vcs: int, global_vcs: int,
                 local_buffer: int, global_buffer: int, local_latency: int,
                 global_latency: int, router_latency: int) -> None:
        i64 = _np.int64
        topo = self.topo = fabric.topo
        self._wiring = fabric.wiring
        p, nl, ng = topo.p, topo.local_ports, topo.global_ports
        nr = self._nr = topo.num_routers
        # a router's ports in index order: p inject/eject, local, global
        # (inputs and outputs mirror each other, see network/router.py)
        nin = self._nin = self._nout = p + nl + ng
        np_ports = self._np_ports = nr * nin
        port_nvc = _np.asarray([1] * p + [local_vcs] * nl + [global_vcs] * ng, i64)
        port_credits = [0] * p + [local_buffer] * nl + [global_buffer] * ng
        port_lat = _np.asarray([0] * p + [local_latency] * nl
                               + [global_latency] * ng, i64)

        # ---- input ports + input VCs (outputs carry the same VC counts,
        # so the flat output-VC numbering coincides with the input one)
        nvc = self._ip_nvc = _np.tile(port_nvc, nr)
        vcbase = _np.zeros(np_ports, i64)
        _np.cumsum(nvc[:-1], out=vcbase[1:])
        self._ip_vcbase = self._ovc_base = vcbase
        self._ip_lidx = _np.tile(_np.arange(nin, dtype=i64), nr)
        vb_port = self._vb_port = self._ovc_out = _np.repeat(
            _np.arange(np_ports, dtype=i64), nvc)
        vb_vcidx = self._vb_vcidx = _np.arange(len(vb_port), dtype=i64) - vcbase[vb_port]
        # with ``_vb_port`` / ``_vb_vcidx``, the allocator's scan of the
        # whole fabric: per (port, VC offset) pair its port's VC count
        # and first flat VC
        self._vb_nvc = nvc[vb_port]
        self._vb_vcbase = vcbase[vb_port]

        # ---- output ports + output VCs
        self._op_eject = _np.tile(_np.arange(nin) < p, nr)
        self._op_lat = _np.tile(port_lat, nr)
        # per-output arrival delay for whole-packet (VCT) sends; WH delay
        # depends on the flit size and is computed at grant time
        self._op_delay_vct = self._op_lat + 1 + router_latency
        self._ov_credits0 = _np.repeat(
            _np.tile(_np.asarray(port_credits, i64), nr), nvc)
        # flat input port each output feeds (-1: eject), off the wiring
        dest_fp = []
        for links in fabric.wiring:
            dest_fp += [-1] * p
            dest_fp += [peer * nin + p + peer_q for peer, peer_q in links]
        # wire each output VC to the downstream input VC it feeds, and
        # the reverse map (with the link latency) for credit returns
        dest_fp = _np.asarray(dest_fp, i64)[vb_port]
        ovcs = (dest_fp >= 0).nonzero()[0]
        ivcs = vcbase[dest_fp[ovcs]] + vb_vcidx[ovcs]
        self._ov_dest_ivc = _np.full(len(vb_port), -1, i64)
        self._ov_dest_ivc[ovcs] = ivcs
        self._vb_up_ovc = _np.full(len(vb_port), -1, i64)
        self._vb_up_ovc[ivcs] = ovcs
        self._vb_up_lat = _np.zeros(len(vb_port), i64)
        self._vb_up_lat[ivcs] = self._op_lat[vb_port[ovcs]]

        # ---- vc_occupancy's key index per flat output VC; eject VCs
        # count in a spare last slot
        keys = self._occ_keys = occupancy_keys(topo, local_vcs, global_vcs)
        gkey = local_vcs if nl else 0
        self._ov_occ_key = _np.tile(_np.asarray(
            [len(keys)] * p + list(range(local_vcs)) * nl
            + list(range(gkey, gkey + global_vcs)) * ng, i64), nr)

        # ---- node-level lookup tables of batched injection (src node ->
        # injection port/VC, dst node -> eject port/VC)
        nodes = range(topo.num_nodes)
        self._node_rt = _np.asarray([topo.router_of_node(n) for n in nodes], i64)
        self._node_kidx = _np.asarray([topo.node_index(n) for n in nodes], i64)
        self._node_fp = self._node_ej_op = self._node_rt * nin + self._node_kidx
        self._node_ivc = self._node_ej_ovc = vcbase[self._node_fp]  # one VC each
        for arr in vars(self).values():
            if isinstance(arr, _np.ndarray):
                arr.flags.writeable = False
        # plain-list mirror for the route table's scalar lookups
        self._ovc_base_l = vcbase.tolist()


def _layout_for(sim) -> _Layout:
    """The compiled layout ``sim``'s point borrows, built on first use.

    Called once per point, under the fabric's lock.  A route depends on
    the fabric and the VC counts only (through the flat output-VC
    numbering), so layouts that differ in buffer depths or latencies
    alone share one :class:`_RouteTable`.
    """
    config = sim.config
    key = (sim.local_vcs, sim.global_vcs, config.local_buffer_phits,
           config.global_buffer_phits, config.local_latency,
           config.global_latency, config.router_latency)
    fabric = sim._fabric
    layouts = fabric.layouts
    with fabric.lock:
        layout = layouts.pop(key, None)
        if layout is None:
            routes = next((known._routes for shape, known in layouts.items()
                           if shape[:2] == key[:2]), None)
            if len(layouts) >= MAX_LAYOUTS:
                del layouts[next(iter(layouts))]  # least recently used out
            layout = _Layout(fabric, *key)
            layout._routes = routes if routes is not None else _RouteTable(
                fabric.topo, fabric.wiring, layout._nout, layout._ovc_base_l,
                fabric.lock)
        layouts[key] = layout  # most recently used last
    return layout


class ArrayCore:
    """Structure-of-arrays state and kernels for one ``Simulator``.

    Constructed for a point the core has won, at its first step
    (``corechoice._decide``): it borrows its fabric's compiled
    :class:`_Layout` and allocates only what a point mutates.  It keeps
    no reference to the simulator: every entry point takes it as ``sim``.
    """

    def __init__(self, sim) -> None:
        #: flits buffered across all input VCs ("anything to allocate?")
        self.buffered = 0
        # the static half, by reference: topo, dimensions, the read-only
        # arrays and the route table
        vars(self).update(vars(_layout_for(sim)))
        self._horizon = sim._horizon
        self._router_latency = sim._router_latency
        i64 = _np.int64
        np_ports = self._np_ports
        vc_count = len(self._vb_port)

        # ---- what a point mutates: port/VC state
        self._ip_busy = _np.zeros(np_ports, i64)
        self._ip_rr = _np.zeros(np_ports, i64)
        self._ip_buffered = _np.zeros(np_ports, i64)
        self._vb_head = _np.full(vc_count, -1, i64)
        self._vb_tail = _np.full(vc_count, -1, i64)
        self._vb_occ = _np.zeros(vc_count, i64)
        self._vb_route_op = _np.full(vc_count, -1, i64)
        self._vb_route_fovc = _np.full(vc_count, -1, i64)
        self._op_busy = _np.zeros(np_ports, i64)
        self._op_rr = _np.zeros(np_ports, i64)
        self._ov_credits = self._ov_credits0.copy()
        self._ov_owner = _np.full(vc_count, -1, i64)

        # ---- growable flit / packet pools (free-list recycled)
        for name in self._FL_ARRAYS + self._PK_ARRAYS:
            setattr(self, name, _np.zeros(0, bool if name in self._FLAGS else i64))
        self._fl_free: list[int] = []
        self._fl_used = 0
        self._pk_free: list[int] = []
        self._pk_used = 0
        self._pkt_obj: list = []
        #: packets :meth:`inject` has handed out and the arrays have not
        #: seen yet (see _flush_injections)
        self._staged: list[Packet] = []

        # ---- wheels: the simulator's own (still empty) timing-wheel
        # slots, holding chunk lists here — one (ids, payload) pair per
        # batched append; a slot only ever holds one target cycle
        self._arr_ring: list[list] = sim._arr_wheel
        self._cr_ring: list[list] = sim._cr_wheel
        config = sim.config
        self._is_vct = sim.fc.whole_packet_reservation
        self._age_arb = config.arbitration == "age"
        self._packet_phits = config.packet_phits
        self._record_hops = config.record_hops
        # every packet has the same phit size, so the flit split is fixed:
        # the one the flow-control policy gives the wheel
        self._flit_sizes: tuple = tuple(flit.size for flit in sim.fc.flits_of(
            self._new_packet(-1, 0, 1, 0)))
        # single-flit packets (VCT, or WH with flit >= packet): every
        # flit is head and tail, so routes are never held and output-VC
        # ownership never engages — the allocator skips that machinery
        self._sf = len(self._flit_sizes) == 1

        #: earliest cycle the allocator could grant — the one thing it
        #: keeps between cycles: :meth:`_alloc` sets it after a pass
        #: without a grant, :meth:`step` resets it when an arrival, a
        #: credit or an injection lands
        self._next_alloc_t = 0
        #: (observer-list identity, batch forms) cache, see
        #: _delivery_batch_observers
        self._obs_batch: tuple = (None, None)

    #: the flit pool's columns.  ``_fl_eff_op`` / ``_fl_eff_fovc`` cache
    #: the next-hop decision per flit: the (output, VC) it requests at the
    #: router it currently sits in.  Minimal routing makes this a pure
    #: function of (packet route, hop), so it is written once at injection
    #: and refreshed at each grant instead of being re-derived from the
    #: route pool on every alloc scan
    _FL_ARRAYS = ("_fl_pkt", "_fl_size", "_fl_idx", "_fl_head", "_fl_tail",
                  "_fl_next", "_fl_eff_op", "_fl_eff_fovc")
    #: the packet pool's: what the kernels read, then the identity of a
    #: lazy packet (``_ensure_pkt`` rebuilds the object from it on demand)
    _PK_ARRAYS = ("_pk_birth", "_pk_off", "_pk_hop", "_pk_nh", "_pk_ej_op",
                  "_pk_ej_ovc", "_pk_pid", "_pk_src", "_pk_dst", "_pk_rid",
                  "_pk_lazy")
    _FLAGS = ("_fl_head", "_fl_tail", "_pk_lazy")  # bool columns; else int64

    def _take_slots(self, n: int, free: list, used: str, arrays: tuple):
        """``n`` slots of one pool: recycled ones first, off the end of its
        free list, then a contiguous block past its ``used`` mark, the
        pool's ``arrays`` grown to hold it."""
        slots = _np.empty(n, _np.int64)
        take = min(n, len(free))
        if take:
            slots[:take] = free[:-take - 1:-1]
            del free[-take:]
        if take < n:
            start = getattr(self, used)
            end = start + n - take
            setattr(self, used, end)
            if end > len(getattr(self, arrays[0])):
                for name in arrays:
                    setattr(self, name, _grow(getattr(self, name), end))
                # one object slot per packet slot (nothing to add when it
                # was the flit pool that grew)
                self._pkt_obj.extend(
                    [None] * (len(self._pk_birth) - len(self._pkt_obj)))
            slots[take:] = _np.arange(start, end)
        return slots

    # ------------------------------------------------------------ injection
    def _enqueue(self, srcs, dsts, births, pids):
        """Queue packets ``srcs[i] -> dsts[i]`` at their injection ports and
        return their slots: the one way a packet enters the arrays.

        ``srcs`` / ``dsts`` are node index arrays in call order, ``pids``
        an array and ``births`` an array or one cycle for all.  Every
        packet lands *lazy* — identity in the packet SoA, no object — and
        is split the one fixed way (``_flit_sizes``).  The callers keep
        the counts nothing here can know: ``buffered``, the simulator's
        ``packets_in_flight`` and the statistics.
        """
        nb = len(srcs)
        sizes = self._flit_sizes
        nf = len(sizes)
        node_rt = self._node_rt
        routes = self._routes
        rid = routes.rids(node_rt[srcs] * self._nr + node_rt[dsts])
        # loaded after the ids: every row and hop ``rid`` names is in them
        pr_off, pr_nh = routes.pr_off, routes.pr_nh
        rt_op, rt_fovc = routes.rt_op, routes.rt_fovc
        ps = self._take_slots(nb, self._pk_free, "_pk_used", self._PK_ARRAYS)
        fs = self._take_slots(nb * nf, self._fl_free, "_fl_used",
                              self._FL_ARRAYS)
        self._pk_pid[ps] = pids
        self._pk_src[ps] = srcs
        self._pk_dst[ps] = dsts
        self._pk_rid[ps] = rid
        self._pk_lazy[ps] = True
        self._pk_birth[ps] = births
        self._pk_hop[ps] = 0
        off = pr_off[rid]
        nh = pr_nh[rid]
        ej_op = self._node_ej_op[dsts]
        ej_ovc = self._node_ej_ovc[dsts]
        self._pk_off[ps] = off
        self._pk_nh[ps] = nh
        self._pk_ej_op[ps] = ej_op
        self._pk_ej_ovc[ps] = ej_ovc
        # next hop at the injection router (hop 0): the first stored hop,
        # or straight to eject when src and dst share a router
        in_rt = nh > 0
        eff_op = _np.where(in_rt, rt_op[off], ej_op)
        eff_fovc = _np.where(in_rt, rt_fovc[off], ej_ovc)
        self._fl_next[fs] = -1
        if nf == 1:  # every flit is its packet: head, tail, no link
            fl_pkt, fl_idx, fl_size = ps, 0, sizes[0]
            heads = tails = fs
        else:
            # flit j of packet i sits in slot fs[i * nf + j]
            fl_pkt = _np.repeat(ps, nf)
            fl_idx = _np.tile(_np.arange(nf), nb)
            fl_size = _np.tile(sizes, nb)
            eff_op = _np.repeat(eff_op, nf)
            eff_fovc = _np.repeat(eff_fovc, nf)
            by_pkt = fs.reshape(nb, nf)
            heads, tails = by_pkt[:, 0], by_pkt[:, -1]
            self._fl_next[by_pkt[:, :-1]] = by_pkt[:, 1:]
        self._fl_pkt[fs] = fl_pkt
        self._fl_size[fs] = fl_size
        self._fl_idx[fs] = fl_idx
        self._fl_head[fs] = fl_idx == 0
        self._fl_tail[fs] = fl_idx == nf - 1
        self._fl_eff_op[fs] = eff_op
        self._fl_eff_fovc[fs] = eff_fovc
        # ---- FIFO appends: one chain (first flit, last flit, packets) per
        # injection VC.  Strictly ascending sources — what a Bernoulli
        # batch emits — are distinct nodes: every chain is one packet
        ivcs = self._node_ivc[srcs]
        npk = 1
        if bool((srcs[1:] <= srcs[:-1]).any()):
            # several packets of a node: a stable sort by injection VC
            # brings them together in call order; link each to the next
            order = _np.argsort(ivcs, kind="stable")
            ivcs, heads, tails = ivcs[order], heads[order], tails[order]
            same = ivcs[1:] == ivcs[:-1]
            self._fl_next[tails[:-1][same]] = heads[1:][same]
            starts = _np.concatenate(([0], (~same).nonzero()[0] + 1))
            npk = _np.diff(starts, append=nb)
            ivcs, heads, tails = ivcs[starts], heads[starts], tails[starts + npk - 1]
        ends = self._vb_tail[ivcs]
        em = ends < 0
        self._vb_head[ivcs[em]] = heads[em]
        self._fl_next[ends[~em]] = heads[~em]
        self._vb_tail[ivcs] = tails
        self._vb_occ[ivcs] += npk * self._packet_phits
        self._ip_buffered[self._vb_port[ivcs]] += npk * nf
        return ps

    def inject_batch(self, sim, srcs, dsts, t: int) -> None:
        """Consume one cycle's batched injections without Packet objects.

        What ``traffic.inject_batch`` returned, in its order (ascending
        for the shipped processes, but nothing here relies on it).  The
        packets stay *lazy*: an object is only reconstructed if something
        needs it (:meth:`_ensure_pkt`).
        """
        nb = len(srcs)
        # a registered process is outside input: hold it to what
        # ``Simulator.inject_packet`` asks of the scalar loop
        if len(dsts) != nb or (srcs == dsts).any():
            raise ValueError("source and destination nodes must differ")
        pid0 = sim._next_pid
        sim._next_pid = pid0 + nb
        self._enqueue(srcs, dsts, t, _np.arange(pid0, pid0 + nb))
        self.buffered += nb * len(self._flit_sizes)
        sim.packets_in_flight += nb

    def inject(self, sim, src: int, dst: int, t: int) -> Packet:
        """``Simulator.inject_packet`` on the array state (``src != dst``).

        The caller gets its ``Packet`` now, with everything the wheel
        would have done by now done — pid, statistics, the in-flight and
        buffered counts; the arrays learn of it at the next flush.
        """
        pkt = self._new_packet(sim._next_pid, src, dst, t)
        sim._next_pid += 1
        self._staged.append(pkt)
        self.buffered += len(self._flit_sizes)
        sim.packets_in_flight += 1
        return pkt

    def _flush_injections(self) -> None:
        """Enqueue the packets :meth:`inject` handed out since the last
        flush: their callers hold the objects, so these slots are not
        lazy, and each object is stamped with its whole route."""
        staged, self._staged = self._staged, []
        ps = self._enqueue(_np.array([pkt.src for pkt in staged]),
                           _np.array([pkt.dst for pkt in staged]),
                           _np.array([pkt.birth for pkt in staged]),
                           _np.array([pkt.pid for pkt in staged]))
        self._pk_lazy[ps] = False
        pkt_obj = self._pkt_obj
        for pkt, slot, rid in zip(staged, ps.tolist(),
                                  self._pk_rid[ps].tolist()):
            pkt_obj[slot] = pkt
            self._stamp_route(pkt, rid)

    def _new_packet(self, pid: int, src: int, dst: int, birth: int) -> Packet:
        topo = self.topo
        sr, dr = topo.router_of_node(src), topo.router_of_node(dst)
        return Packet(pid, src, dst, self._packet_phits, birth,
                      sr, topo.group_of(sr), dr, topo.group_of(dr))

    def _stamp_route(self, pkt: Packet, rid: int) -> None:
        """Give the unrouted ``pkt`` what walking its route ``rid`` leaves
        (a rewind rolls it back to the granted prefix) — with
        ``record_hops``, by walking it for the hop log."""
        if self._record_hops:
            pkt.hops_log = [(int(kind), port, vc) for _, kind, port, _, vc
                            in walk(self.topo, self._wiring, pkt)]
        else:
            pkt.restore(self._routes.final[rid])

    def _ensure_pkt(self, ps: int) -> Packet:
        """The Packet object of slot ``ps``, a lazy one rebuilt exactly
        as :meth:`inject` and its flush would have built it."""
        pkt = self._pkt_obj[ps]
        if pkt is not None:
            return pkt
        pkt = self._new_packet(int(self._pk_pid[ps]), int(self._pk_src[ps]),
                               int(self._pk_dst[ps]), int(self._pk_birth[ps]))
        self._stamp_route(pkt, int(self._pk_rid[ps]))
        self._pk_lazy[ps] = False
        self._pkt_obj[ps] = pkt
        return pkt

    def _delivery_batch_observers(self, sim):
        """Batch forms of the delivery observers, or ``False``.

        ``False`` means at least one observer has no ``on_eject_batch``
        — deliveries must materialize the Packet and fire scalar.  The
        result is cached on the observer list's identity (the list is
        rebound copy-on-write by every attach/detach).
        """
        obs = sim._delivery_observers
        key, val = self._obs_batch
        if key is obs:
            return val
        fns = []
        for fn in obs:
            bf = getattr(getattr(fn, "__self__", None), "on_eject_batch", None)
            if bf is None:
                fns = False
                break
            fns.append(bf)
        self._obs_batch = (obs, fns)
        return fns

    # ------------------------------------------------------------ main loop
    def step(self, sim) -> None:
        """``Simulator.step`` on the array state: one cycle, batched."""
        t = sim.now
        slot = t % self._horizon
        chunks = self._arr_ring[slot]
        if chunks:
            vb_tail = self._vb_tail
            popped = 0
            for ivcs, flits in chunks:
                tails = vb_tail[ivcs]
                em = tails < 0
                self._vb_head[ivcs[em]] = flits[em]
                self._fl_next[tails[~em]] = flits[~em]
                vb_tail[ivcs] = flits
                self._vb_occ[ivcs] += self._fl_size[flits]
                self._ip_buffered[self._vb_port[ivcs]] += 1
                popped += len(ivcs)
            self._arr_ring[slot] = []
            sim._pending_events -= popped
            self.buffered += popped
            sim._last_progress = t
            self._next_alloc_t = 0
        cchunks = self._cr_ring[slot]
        if cchunks:
            popped = phits = 0
            for ovcs, amounts in cchunks:
                self._ov_credits[ovcs] += amounts
                popped += len(ovcs)
                phits += int(amounts.sum())
            self._cr_ring[slot] = []
            sim.credit_phits += phits
            sim._pending_events -= popped
            sim._last_progress = t
            self._next_alloc_t = 0
        traffic = sim.traffic
        if traffic is not None:
            # batched-injection protocol (see processes.BernoulliTraffic):
            # one cycle's (srcs, dsts) in bulk when the process offers
            # it, its own per-packet loop otherwise (each call staged by
            # ``inject``).  Packets handed out before this cycle's batch
            # flush first so FIFO order within each injection VC is
            # preserved.
            inject_batch = getattr(traffic, "inject_batch", None)
            batch = None if inject_batch is None else inject_batch(sim, t)
            if batch is None:
                traffic.inject(sim, t)
            elif len(batch[0]):
                if self._staged:
                    self._flush_injections()
                self.inject_batch(sim, batch[0], batch[1], t)
                self._next_alloc_t = 0
        if self._staged:
            self._flush_injections()
            self._next_alloc_t = 0
        if self.buffered and t >= self._next_alloc_t:
            self._alloc(sim, t)
        sim.now = t + 1

    def _alloc(self, sim, t: int) -> None:
        """One cycle's allocation: a function of the arrays and ``t``."""
        # the ports worth scanning hold flits (ascending flat port id is
        # the wheel's scan order).  When an eighth of the fabric does,
        # scan all of it — the fabric's own layout, nothing to build, and
        # the buffered-head filter below drops the idle VCs anyway;
        # otherwise lay the same columns out over the active ports only
        active = self._ip_buffered.nonzero()[0]
        if 8 * len(active) >= self._np_ports:
            sp, off = self._vb_port, self._vb_vcidx
            nvp, vcb = self._vb_nvc, self._vb_vcbase
        else:
            nvc = self._ip_nvc[active]
            sp = _np.repeat(active, nvc)
            off = _np.arange(len(sp)) - _np.repeat(_np.cumsum(nvc) - nvc, nvc)
            nvp, vcb = self._ip_nvc[sp], self._ip_vcbase[sp]
        # the round-robin VC scan as one (port, offset) pair matrix,
        # port-major / offset-minor: for each port, offset o visits VC
        # (rr + o) mod nvc.  The first *sendable* pair per port wins —
        # exactly the wheel's scan-and-break — and port-major order
        # makes "first" a plain first-occurrence.
        vi = self._ip_rr[sp] + off
        vi -= (vi >= nvp) * nvp
        ivc = vcb + vi
        head = self._vb_head[ivc]
        pi = (head >= 0).nonzero()[0]  # pairs with a buffered flit
        sp = sp[pi]
        ivc = ivc[pi]
        vi = vi[pi]
        head = head[pi]
        eff_op = self._fl_eff_op[head]
        eff_fovc = self._fl_eff_fovc[head]
        if not self._sf:
            # a multi-flit packet holds its route while flits follow the
            # head, and owns the output VC it streams into (single-flit:
            # routes are never held, the cached next hop is the live one)
            rop = self._vb_route_op[ivc]
            held = rop >= 0
            eff_op = _np.where(held, rop, eff_op)
            eff_fovc = _np.where(held, self._vb_route_fovc[ivc], eff_fovc)
        takes = self._ov_credits[eff_fovc] >= self._fl_size[head]
        if not self._sf:
            owner = self._ov_owner[eff_fovc]
            takes &= _np.where(held, owner == self._fl_pkt[head],
                               self._fl_tail[head] | (owner < 0))
        # fused input-port and output readiness
        busy = _np.maximum(self._op_busy[eff_op], self._ip_busy[sp])
        sendable = (busy <= t) & (self._op_eject[eff_op] | takes)
        si = sendable.nonzero()[0]
        if not len(si):
            # every pair waits on a busy timer (a known cycle) or on
            # credits / ownership (an arrival, a credit or an injection
            # away — ``step`` reopens the gate for those): no grant is
            # possible before the earliest timer still running
            serialising = busy[busy > t]
            self._next_alloc_t = (int(serialising.min()) if len(serialising)
                                  else _ALLOC_IDLE)
            return
        # first sendable pair per port: pairs are in (port, offset)
        # order, so sp[si] is sorted and a neighbour-diff flags each
        # port's first occurrence — the wheel's winning VC
        ssp = sp[si]
        first = _np.empty(len(ssp), bool)
        first[0] = True
        first[1:] = ssp[1:] != ssp[:-1]
        w = si[first]
        sp = ssp[first]
        sflit = head[w]
        sivc = ivc[w]
        svi = vi[w]
        sop = eff_op[w]
        sfovc = eff_fovc[w]

        # ---- per-output arbitration (rr: distance past the pointer;
        # age: oldest birth, then lowest input index — wheel keys verbatim)
        lidx = self._ip_lidx[sp]
        nin = self._nin
        if self._age_arb:
            order = _np.lexsort((lidx, self._pk_birth[self._fl_pkt[sflit]], sop))
        else:
            order = _np.lexsort(((lidx - self._op_rr[sop]) % nin, sop))
        ssop = sop[order]
        firsts = _np.empty(len(order), bool)
        firsts[0] = True
        firsts[1:] = ssop[1:] != ssop[:-1]
        winners = order[firsts]  # one per requested output, by ascending output
        # wheel grant order: ascending flat port id of each output's
        # *first requester* (requests-dict insertion order per router,
        # routers in ascending id)
        by_port = _np.lexsort((sp, sop))
        bp_sop = sop[by_port]
        bp_first = _np.empty(len(by_port), bool)
        bp_first[0] = True
        bp_first[1:] = bp_sop[1:] != bp_sop[:-1]
        first_sp = sp[by_port[bp_first]]  # aligned: unique outputs ascending
        winners = winners[_np.argsort(first_sp, kind="stable")]

        self._apply_grants(sim, t, sp[winners], sivc[winners], svi[winners],
                           sflit[winners], sop[winners], sfovc[winners])

    def _apply_grants(self, sim, t, wp, wivc, wvi, wflit, wop, wfovc) -> None:
        fl_next = self._fl_next
        sf = self._sf
        size = self._fl_size[wflit]
        pslot = self._fl_pkt[wflit]
        if not sf:
            tail = self._fl_tail[wflit]
            head = self._fl_head[wflit]
        # FIFO pop + port/output bookkeeping
        nxt = fl_next[wflit]
        self._vb_head[wivc] = nxt
        drained = nxt < 0
        if drained.any():  # rare at saturation: VC emptied by this pop
            self._vb_tail[wivc[drained]] = -1
        fl_next[wflit] = -1
        self._vb_occ[wivc] -= size
        self._ip_buffered[wp] -= 1
        self.buffered -= len(wp)
        sim.grants += len(wp)
        busy = t + size
        self._ip_busy[wp] = busy
        self._op_busy[wop] = busy
        self._ip_rr[wp] = (wvi + 1) % self._ip_nvc[wp]
        self._op_rr[wop] = (self._ip_lidx[wp] + 1) % self._nin
        eject = self._op_eject[wop]
        if sf:
            # single-flit: every winner is its packet's only flit (a
            # packet appears at most once per grant batch), and routes
            # are never held — skip the hold/release machinery
            self._pk_hop[pslot] += 1
        else:
            self._pk_hop[pslot[head]] += 1  # one head per packet per cycle
            # route hold (head, more flits follow) / release (tail of a
            # multi-flit packet)
            hold = head & ~tail
            self._vb_route_op[wivc[hold]] = wop[hold]
            self._vb_route_fovc[wivc[hold]] = wfovc[hold]
            own = hold & ~eject
            self._ov_owner[wfovc[own]] = pslot[own]
            rel = tail & ~head
            self._vb_route_op[wivc[rel]] = -1
            self._vb_route_fovc[wivc[rel]] = -1
            free = rel & ~eject
            self._ov_owner[wfovc[free]] = -1

        # ---- link sends: debit credits, schedule arrivals by delay class
        ne = ~eject
        if ne.any():
            ne_fovc = wfovc[ne]
            ne_size = size[ne]
            self._ov_credits[ne_fovc] -= ne_size
            if self._is_vct:
                delay = self._op_delay_vct[wop[ne]]
            else:
                delay = self._op_lat[wop[ne]] + ne_size + self._router_latency
            dest = self._ov_dest_ivc[ne_fovc]
            ne_flit = wflit[ne]
            # refresh the sent flits' next-hop decision for the router
            # they are entering (pk_hop already advanced for heads)
            ne_ps = pslot[ne]
            hop = self._pk_hop[ne_ps]
            in_rt = hop < self._pk_nh[ne_ps]
            routes = self._routes
            rt_op, rt_fovc = routes.rt_op, routes.rt_fovc
            ridx = _np.minimum(self._pk_off[ne_ps] + hop, len(rt_op) - 1)
            self._fl_eff_op[ne_flit] = _np.where(
                in_rt, rt_op[ridx], self._pk_ej_op[ne_ps])
            self._fl_eff_fovc[ne_flit] = _np.where(
                in_rt, rt_fovc[ridx], self._pk_ej_ovc[ne_ps])
            ring = self._arr_ring
            horizon = self._horizon
            dl = delay.tolist()
            classes = set(dl)
            if len(classes) == 1:  # common: one delay class
                ring[(t + dl[0]) % horizon].append((dest, ne_flit))
            else:
                # distinct delays land in distinct ring slots (horizon
                # exceeds any delay), so class order is irrelevant
                for d in classes:
                    m = delay == d
                    ring[(t + d) % horizon].append((dest[m], ne_flit[m]))
            sim._pending_events += len(ne_flit)

        # ---- upstream credit returns, grouped by link latency
        up = self._vb_up_ovc[wivc]
        um = up >= 0
        if um.any():
            u_ovc = up[um]
            u_lat = self._vb_up_lat[wivc[um]]
            u_size = size[um]
            cring = self._cr_ring
            horizon = self._horizon
            ll = u_lat.tolist()
            classes = set(ll)
            if len(classes) == 1:
                cring[(t + ll[0]) % horizon].append((u_ovc, u_size))
            else:
                for lv in classes:
                    m = u_lat == lv
                    cring[(t + lv) % horizon].append((u_ovc[m], u_size[m]))
            sim._pending_events += len(u_ovc)
        sim._last_progress = t

        # ---- ejected flits leave the pool; tails deliver (in grant order)
        if eject.any():
            self._fl_free.extend(wflit[eject].tolist())
            deliver = eject if sf else (eject & tail)
            if deliver.any():
                dslots = pslot[deliver]
                dones = busy[deliver]
                # all-lazy deliveries with batch-capable sinks never
                # materialize a Packet: the ledger's sums and the latency
                # samples come straight from the SoA, in grant order (a
                # lazy packet took its minimal route: no misroutes)
                batch_obs = self._delivery_batch_observers(sim)
                if (batch_obs is not False
                        and bool(self._pk_lazy[dslots].all())):
                    nd = len(dslots)
                    lats = dones - self._pk_birth[dslots]
                    sim.delivered += nd
                    sim.latency_sum += int(lats.sum())
                    sim.hops_sum += int(
                        self._routes.pr_hops[self._pk_rid[dslots]].sum())
                    sim.packets_in_flight -= nd
                    for fn in batch_obs:
                        fn(lats, dones)
                    self._pk_lazy[dslots] = False
                    self._pk_free.extend(dslots.tolist())
                else:
                    pobj = self._pkt_obj
                    pk_free = self._pk_free
                    ensure = self._ensure_pkt
                    deliver_one = sim._deliver
                    for slot_, done in zip(dslots.tolist(), dones.tolist()):
                        deliver_one(ensure(slot_), done)
                        pobj[slot_] = None
                        pk_free.append(slot_)

    def vc_occupancy(self, sim) -> dict:
        """``Simulator.vc_occupancy`` on the array state: capacity minus
        credits, summed per (kind, VC) key."""
        keys = self._occ_keys
        occupancy = _np.bincount(self._ov_occ_key,
                                 weights=self._ov_credits0 - self._ov_credits,
                                 minlength=len(keys) + 1)
        return dict(zip(keys, occupancy[:-1].astype(_np.int64).tolist()))

    # -------------------------------------------------------- materialization
    def _rewind_in_flight_packets(self) -> None:
        """Roll live packets' hop counters back to their granted prefix.

        A packet leaves injection with the counters of its whole route,
        and the wheel advances them per remaining grant (``min_hop``
        reads ``g_hops`` for the VC): each restarts unrouted and walks
        its first ``pk_hop`` hops again; a prefilled hop log is cut to
        the same prefix.
        """
        topo = self.topo
        lazy = self._pk_lazy
        for ps in range(self._pk_used):
            pkt = self._pkt_obj[ps]
            if pkt is None:
                if not lazy[ps]:
                    continue
                pkt = self._ensure_pkt(ps)  # live lazy packet: reify it
            done = int(self._pk_hop[ps])
            if pkt.hops_log is not None:
                del pkt.hops_log[done:]
            pkt.restore()
            # done == nh + 1 for a WH packet whose head already ejected:
            # the eject hop it then takes last changes no counter
            for _ in islice(walk(topo, self._wiring, pkt), done):
                pass

    def materialize(self, sim) -> None:
        """Write the array state back into the simulator's object graph.

        One-way, and only ever called by ``Simulator._leave_core``, which
        drops this core: afterwards the run continues on the wheel path,
        byte-identically — every piece of engine state (FIFOs,
        occupancies, allocated routes, credit/owner/busy/rr state, the
        timing wheels) is reconstructed exactly as the wheel would have
        built it — and a ``StreamRandom`` the traffic installed is swapped
        for the plain generator standing at the same word.
        """
        routers = sim.routers
        if self._staged:
            self._flush_injections()
        if type(sim.rng_traffic) is StreamRandom:  # the wheel draws at C speed
            sim.rng_traffic = sim.rng_traffic.release()
        self._rewind_in_flight_packets()
        nin, nout = self._nin, self._nout
        fl_pkt, fl_size = self._fl_pkt, self._fl_size
        fl_idx, fl_head, fl_tail = self._fl_idx, self._fl_head, self._fl_tail
        pkt_obj = self._pkt_obj
        flit_cache: dict[int, Flit] = {}

        def fobj(s: int) -> Flit:
            f = flit_cache.get(s)
            if f is None:
                f = Flit(pkt_obj[fl_pkt[s]], int(fl_idx[s]), int(fl_size[s]),
                         bool(fl_head[s]), bool(fl_tail[s]))
                flit_cache[s] = f
            return f

        for r, router in enumerate(routers):
            pending = 0
            for i, ip in enumerate(router.inputs):
                fp = r * nin + i
                ip.busy_until = int(self._ip_busy[fp])
                ip.rr = int(self._ip_rr[fp])
                ip.buffered = int(self._ip_buffered[fp])
                pending += ip.buffered
                base = int(self._ip_vcbase[fp])
                for v, vcb in enumerate(ip.vcs):
                    ivc = base + v
                    vcb.fifo.clear()
                    s = int(self._vb_head[ivc])
                    while s >= 0:
                        vcb.fifo.append(fobj(s))
                        s = int(self._fl_next[s])
                    vcb.occupancy = int(self._vb_occ[ivc])
                    rop = int(self._vb_route_op[ivc])
                    if rop >= 0:
                        vcb.route_out = rop % nout
                        vcb.route_vc = int(self._vb_route_fovc[ivc]
                                           - self._ovc_base[rop])
                    else:
                        vcb.route_out = None
                        vcb.route_vc = None
            router.pending = pending
            for o, out in enumerate(router.outputs):
                fo = r * nout + o
                out.busy_until = int(self._op_busy[fo])
                out.rr = int(self._op_rr[fo])
                b = int(self._ovc_base[fo])
                for v in range(len(out.credits)):
                    out.credits[v] = int(self._ov_credits[b + v])
                    owner = int(self._ov_owner[b + v])
                    out.owner[v] = None if owner < 0 else pkt_obj[owner].pid
        sim._active = {r.rid for r in routers if r.pending}

        # wheels: expand each slot's chunks, in place, into the wheel's
        # tuple format, preserving append order (chunks were pushed in
        # grant order)
        vb_port, vb_vcidx = self._vb_port, self._vb_vcidx
        arr_wheel, cr_wheel = self._arr_ring, self._cr_ring
        for s in range(self._horizon):
            chunks, arr_wheel[s] = arr_wheel[s], []
            bucket = arr_wheel[s]
            for ivcs, flits in chunks:
                for ivc, fs in zip(ivcs.tolist(), flits.tolist()):
                    fp = int(vb_port[ivc])
                    bucket.append((routers[fp // nin], fp % nin,
                                   int(vb_vcidx[ivc]), fobj(fs)))
            chunks, cr_wheel[s] = cr_wheel[s], []
            cbucket = cr_wheel[s]
            for ovcs, amounts in chunks:
                for fovc, amount in zip(ovcs.tolist(), amounts.tolist()):
                    fo = int(self._ovc_out[fovc])
                    out = routers[fo // nout].outputs[fo % nout]
                    cbucket.append((out, int(fovc - self._ovc_base[fo]),
                                    int(amount)))


__all__ = ["ArrayCore"]
