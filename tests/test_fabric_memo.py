"""The compiled fabric: what outlives a point, and what must not.

A process compiles each fabric once (``repro.topology.fabric``) and
every point on it borrows the topology, the array core's static layout
and the minimal-route table.  Sharing is only sound if what is shared is
a pure function of its key, immutable or append-only, bounded, safe
under two threads and blind to the points that used it — the tables
below pin each of those.  The property "a record does not know what ran
before it" lives with the other engine properties
(``tests/test_engine_properties.py``).
"""

from __future__ import annotations

import gc
import sys
import threading
import types
import weakref

import numpy as np
import pytest
from helpers import FABRICS

from repro.facade import run_point
from repro.network import arraysim
from repro.network.config import SimConfig
from repro.network.simulator import Simulator, build_simulator
from repro.registry import TOPOLOGY_REGISTRY
from repro.runplan.cache import canonical_record_json
from repro.topology import Dragonfly, PortKind
from repro.topology.fabric import (
    MAX_FABRICS,
    MAX_LAYOUTS,
    clear_fabrics,
    fabric_cache_info,
    fabric_for,
)
from repro.traffic.patterns import pattern_by_name
from repro.traffic.processes import BernoulliTraffic


@pytest.fixture(autouse=True)
def cold_memo(core_wins_everywhere):
    """Every test starts and ends on an empty memo — and, the fabrics
    here being tiny, with the offered-load rule pinned to the core."""
    clear_fabrics()
    yield
    clear_fabrics()


def _auto(**knobs) -> SimConfig:
    return SimConfig(routing="minimal", engine="auto", **knobs)


def _built(config: SimConfig) -> Simulator:
    """An ``auto`` simulator whose core has built its arrays."""
    sim = build_simulator(config)
    sim.step()
    assert sim._core is not None
    return sim


def _record(config: SimConfig, pattern="uniform", load=0.5) -> str:
    return canonical_record_json(run_point(config, pattern, load, 50, 50))


# ------------------------------------------------------------- the memo key
class _RecordingConfig:
    """A ``SimConfig`` that remembers which fields were read off it."""

    def __init__(self, config: SimConfig) -> None:
        self.__dict__["_config"] = config
        self.__dict__["read"] = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


@pytest.mark.parametrize("name", TOPOLOGY_REGISTRY.available())
def test_from_config_reads_only_the_fields_its_class_declares(name):
    cls = TOPOLOGY_REGISTRY.get(name)
    proxy = _RecordingConfig(SimConfig(topology=name))
    cls.from_config(proxy)
    assert proxy.read, "from_config read nothing: what sizes this fabric?"
    assert proxy.read <= set(cls.config_fields), (
        f"{cls.__name__}.from_config reads {sorted(proxy.read)} but declares "
        f"{cls.config_fields}: two configs differing in an undeclared field "
        "would share one fabric")


@pytest.mark.parametrize("base,knob", [
    (dict(h=2), dict(h=3)),
    (dict(h=2), dict(p=1)),
    (dict(h=2), dict(a=3)),
    (dict(h=2), dict(arrangement="consecutive")),
    (FABRICS["flattened_butterfly"], dict(fb_routers=8)),
    (FABRICS["flattened_butterfly"], dict(p=3)),
    (FABRICS["torus"], dict(torus_rows=4)),
    (FABRICS["torus"], dict(torus_cols=5)),
    (FABRICS["torus"], dict(p=1)),
])
def test_a_topology_knob_selects_another_fabric(base, knob):
    one, other = fabric_for(_auto(**base)), fabric_for(_auto(**{**base, **knob}))
    assert one is not other and one.topo is not other.topo
    assert fabric_for(_auto(**base)) is one


@pytest.mark.parametrize("knob,same_routes", [
    (dict(local_vcs=4), False), (dict(global_vcs=3), False),
    # a route is (output port, output VC) per hop: the VC counts number
    # the VCs, buffers and latencies do not enter
    (dict(local_buffer_phits=64), True), (dict(global_buffer_phits=512), True),
    (dict(local_latency=5), True), (dict(global_latency=50), True),
    (dict(router_latency=1), True),
])
def test_a_router_knob_shares_the_topology_but_not_the_arrays(knob, same_routes):
    one, other = _built(_auto(h=2)), _built(_auto(h=2, **knob))
    assert one.topo is other.topo
    assert one._core._ov_credits0 is not other._core._ov_credits0
    assert (one._core._routes is other._core._routes) == same_routes
    pattern, load = ("advg+1", 0.4) if same_routes else ("uniform", 0.5)
    warm = _record(_auto(h=2, **knob), pattern, load)  # on the first point's routes
    clear_fabrics()
    assert _record(_auto(h=2, **knob), pattern, load) == warm


def test_points_on_one_fabric_borrow_the_identical_objects():
    one = _built(_auto(h=2, seed=1))
    # none of these shapes the fabric: seed, flow control, packet size,
    # arbitration, another fabric's size knobs, the hop log
    other = _built(_auto(h=2, seed=9, flow_control="wh", packet_phits=40,
                         arbitration="age", fb_routers=5, torus_rows=7,
                         record_hops=True))
    wheel = build_simulator(SimConfig(h=2, routing="olm", seed=4))
    assert one.topo is other.topo is wheel.topo
    assert one._core._routes is other._core._routes
    static = [name for name, value in vars(one._core).items()
              if isinstance(value, np.ndarray) and not value.flags.writeable]
    assert len(static) >= 20
    # the allocator's full scan is among them: one set per compiled fabric
    assert {"_vb_port", "_vb_vcidx", "_vb_nvc", "_vb_vcbase"} <= set(static)
    for name in static:
        assert getattr(one._core, name) is getattr(other._core, name), name
    info = fabric_cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 2


def test_a_class_registered_under_an_old_name_gets_its_own_fabric():
    def register(arrangement):
        @TOPOLOGY_REGISTRY.register("dragonfly-rewired", description="test")
        class Rewired(Dragonfly):
            @classmethod
            def from_config(cls, config):
                return cls(config.h, arrangement=arrangement)
        return Rewired

    try:
        first = register("palmtree")
        cfg = _auto(topology="dragonfly-rewired", h=2)
        assert type(build_simulator(cfg).topo) is first
        TOPOLOGY_REGISTRY.unregister("dragonfly-rewired")
        second = register("consecutive")
        topo = build_simulator(cfg).topo
        assert type(topo) is second and topo.arrangement.name == "consecutive"
    finally:
        TOPOLOGY_REGISTRY.unregister("dragonfly-rewired")


def test_a_fabric_that_declares_no_fields_is_refused():
    @TOPOLOGY_REGISTRY.register("undeclared", description="test")
    class Undeclared:
        @classmethod
        def from_config(cls, config):
            return Dragonfly(config.h)

    try:
        with pytest.raises(TypeError, match="Undeclared.*config_fields"):
            build_simulator(_auto(topology="undeclared", h=2))
    finally:
        TOPOLOGY_REGISTRY.unregister("undeclared")


# ------------------------------------------------------------------ the bound
def test_one_fabric_too_many_evicts_the_least_recently_used():
    configs = [_auto(topology="flattened_butterfly", fb_routers=4 + i)
               for i in range(MAX_FABRICS + 1)]
    before = _record(configs[0])
    first = fabric_for(configs[0])
    kept = [fabric_for(cfg) for cfg in configs[1:]]
    assert fabric_cache_info().currsize == MAX_FABRICS
    assert [fabric_for(cfg) for cfg in configs[1:]] == kept
    assert fabric_for(configs[0]) is not first  # evicted, compiled again ...
    assert _record(configs[0]) == before  # ... to the same bytes


def test_one_layout_too_many_evicts_the_least_recently_used():
    configs = [_auto(h=2, local_vcs=3 + i) for i in range(MAX_LAYOUTS + 1)]
    before = _record(configs[0])
    sims = [_built(cfg) for cfg in configs[:MAX_LAYOUTS]]
    layouts = fabric_for(configs[0]).layouts
    _built(configs[0])  # used again: the second-built is now the eviction candidate
    sims.append(_built(configs[-1]))
    assert len(layouts) == MAX_LAYOUTS

    def kept(sim) -> bool:
        return any(sim._core._routes is lay._routes for lay in layouts.values())

    assert [kept(sim) for sim in sims] == [True, False, True, True, True]
    sims[1].inject_packet(0, sims[1].topo.num_nodes - 1)  # still a working core
    sims[1].run_until_drained(10_000)
    assert _record(configs[1]) == _record(configs[1].with_(engine="wheel"))
    assert _record(configs[0]) == before


def test_an_evicted_layout_takes_its_routes_only_if_nobody_shares_them():
    configs = [_auto(h=2, router_latency=i) for i in range(MAX_LAYOUTS + 1)]
    sims = [_built(cfg) for cfg in configs]
    layouts = fabric_for(configs[0]).layouts
    assert len(layouts) == MAX_LAYOUTS
    assert len({id(sim._core._op_delay_vct) for sim in sims}) == len(sims)
    # five layouts, one table: the evicted layout's routes live on in the rest
    assert len({id(sim._core._routes) for sim in sims}) == 1
    assert all(lay._routes is sims[0]._core._routes for lay in layouts.values())


# ---------------------------------------------------------------- immutability
def test_writing_to_a_borrowed_array_raises():
    core = _built(_auto(h=2))._core
    layout = arraysim._layout_for(build_simulator(_auto(h=2)))
    arrays = {name: value for name, value in vars(layout).items()
              if isinstance(value, np.ndarray)}
    assert len(arrays) >= 20
    for name, arr in arrays.items():
        assert getattr(core, name) is arr
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def _reachable_instances(root) -> list:
    """Instances reachable from ``root`` through data (not through code)."""
    skip = (type, types.ModuleType, types.FunctionType, types.MethodType,
            types.BuiltinFunctionType)
    seen, stack, found = {id(root)}, [root], []
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, skip):
                continue
            seen.add(id(ref))
            stack.append(ref)
            found.append(ref)
    return found


def test_a_compiled_fabric_holds_no_reference_to_a_point():
    cfg = _auto(h=2, record_hops=True)
    sim = build_simulator(cfg, BernoulliTraffic(
        pattern_by_name("uniform", fabric_for(cfg).topo), 0.6))
    sim.add_delivery_observer(lambda pkt, cycle: None)  # packets get built
    sim.run(120)
    core_ref, sim_ref = weakref.ref(sim._core), weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert sim_ref() is None and core_ref() is None  # freed by refcount
    finally:
        gc.enable()
    fabric = fabric_for(cfg)
    [layout] = fabric.layouts.values()
    assert layout._routes.final  # the point left its routes behind, only them
    held = _reachable_instances(fabric)
    assert not [obj for obj in held
                if isinstance(obj, (Simulator, arraysim.ArrayCore))]


# ----------------------------------------- the layout is what routers would say
@pytest.mark.parametrize("knobs", [
    *FABRICS.values(),
    dict(h=3, local_vcs=4, global_vcs=3, local_latency=7, router_latency=2,
         local_buffer_phits=40, arrangement="consecutive"),
    dict(h=2, a=3, p=1),
], ids=repr)
def test_the_layout_equals_the_object_routers_wiring(knobs):
    sim = build_simulator(_auto(**knobs))
    layout = arraysim._layout_for(sim)
    routers = sim._build_routers()
    nin, nout = len(routers[0].inputs), len(routers[0].outputs)
    assert (layout._nr, layout._nin, layout._nout) == (len(routers), nin, nout)
    ip_vcbase, vb_port, vb_vcidx, vb_nvc, vb_vcbase = [], [], [], [], []
    for r, router in enumerate(routers):
        for i, ip in enumerate(router.inputs):
            ip_vcbase.append(len(vb_port))
            vb_vcbase += [len(vb_port)] * len(ip.vcs)
            vb_port += [r * nin + i] * len(ip.vcs)
            vb_vcidx += range(len(ip.vcs))
            vb_nvc += [len(ip.vcs)] * len(ip.vcs)
    ovc_base, ovc_out, credits, lat, eject = [], [], [], [], []
    for r, router in enumerate(routers):
        for o, out in enumerate(router.outputs):
            ovc_base.append(len(ovc_out))
            ovc_out += [r * nout + o] * len(out.credits)
            credits += out.credits
            lat.append(out.latency)
            eject.append(out.kind is PortKind.EJECT)
    dest_ivc, up_ovc, up_lat = ([-1] * len(ovc_out), [-1] * len(vb_port),
                                [0] * len(vb_port))
    for r, router in enumerate(routers):
        for o, out in enumerate(router.outputs):
            if out.kind is PortKind.EJECT:
                continue
            obase = ovc_base[r * nout + o]
            dbase = ip_vcbase[out.dest_router * nin + out.dest_port]
            for v in range(len(out.credits)):
                dest_ivc[obase + v] = dbase + v
                up_ovc[dbase + v] = obase + v
                up_lat[dbase + v] = out.latency
    # vc_occupancy's (kind, VC) key per output VC, in the order a walk
    # of the routers first meets it; an eject VC takes the spare slot
    keys, occ_key = [], []
    for router in routers:
        for out in router.outputs:
            for v in range(len(out.credits)):
                key = None if out.kind is PortKind.EJECT else (int(out.kind), v)
                if key is not None and key not in keys:
                    keys.append(key)
                occ_key.append(key)
    assert layout._occ_keys == keys
    occ_key = [len(keys) if key is None else keys.index(key) for key in occ_key]
    topo = sim.topo
    node_rt = [topo.router_of_node(n) for n in range(topo.num_nodes)]
    node_k = [topo.node_index(n) for n in range(topo.num_nodes)]
    expected = dict(
        _ip_nvc=[len(ip.vcs) for router in routers for ip in router.inputs],
        _ip_vcbase=ip_vcbase, _vb_port=vb_port, _vb_vcidx=vb_vcidx,
        _vb_nvc=vb_nvc, _vb_vcbase=vb_vcbase,
        _ip_lidx=list(range(nin)) * len(routers),
        _ovc_base=ovc_base, _ovc_out=ovc_out, _ov_credits0=credits,
        _op_lat=lat, _op_eject=eject,
        _op_delay_vct=[x + 1 + sim.config.router_latency for x in lat],
        _ov_dest_ivc=dest_ivc, _vb_up_ovc=up_ovc, _vb_up_lat=up_lat,
        _ov_occ_key=occ_key,
        _node_rt=node_rt, _node_kidx=node_k,
        _node_fp=[r * nin + k for r, k in zip(node_rt, node_k)],
        _node_ivc=[ip_vcbase[r * nin + k] for r, k in zip(node_rt, node_k)],
        _node_ej_op=[r * nout + k for r, k in zip(node_rt, node_k)],
        _node_ej_ovc=[ovc_base[r * nout + k] for r, k in zip(node_rt, node_k)],
    )
    arrays = {name for name, value in vars(layout).items()
              if isinstance(value, np.ndarray)}
    assert arrays == set(expected)
    for name, values in expected.items():
        assert getattr(layout, name).tolist() == values, name


# ------------------------------------- a superset of pairs, packet by packet
#: small enough that a saturated window touches every router pair
SMALL_FABRICS = {
    "dragonfly": dict(h=1),
    "flattened_butterfly": dict(topology="flattened_butterfly", fb_routers=6,
                                p=2),
    "torus": dict(topology="torus", torus_rows=3, torus_cols=3, p=2),
}


def _delivery_log(config: SimConfig, load: float, cycles: int) -> list:
    sim = build_simulator(config, BernoulliTraffic(
        pattern_by_name("uniform", fabric_for(config).topo), load))
    log = []
    sim.add_delivery_observer(lambda pkt, cycle: log.append(
        (pkt.pid, pkt.src, pkt.dst, cycle, tuple(pkt.hops_log), pkt.g_hops,
         pkt.local_hops_group, pkt.local_hops_total, pkt.prev_local_type,
         pkt.last_local_vc)))
    sim.run(cycles)
    sim.traffic = None
    sim.run_until_drained(100_000)
    return log


@pytest.mark.parametrize("fabric", SMALL_FABRICS)
def test_the_second_point_extends_the_first_points_routes(fabric):
    cfg = _auto(record_hops=True, seed=6, **SMALL_FABRICS[fabric])
    points = ((0.1, 150), (1.0, 400))
    light, heavy = (_delivery_log(cfg, *point) for point in points)
    [layout] = fabric_for(cfg).layouts.values()
    routes, topo = layout._routes, layout.topo

    def pairs(log) -> set:
        return {(topo.router_of_node(src), topo.router_of_node(dst))
                for _, src, dst, *_ in log}

    assert pairs(light) < pairs(heavy)  # the warm table had to grow
    assert len(routes.final) == int((routes.pair_rid >= 0).sum()) == len(pairs(heavy))
    for point, shared in zip(points, (light, heavy)):
        clear_fabrics()
        assert _delivery_log(cfg, *point) == shared  # a cold fabric's log
        assert _delivery_log(cfg.with_(engine="wheel"), *point) == shared


# ------------------------------------------------ two threads, one cold fabric
def test_two_threads_compile_one_cold_fabric():
    # h=3: 114 routers, so a short window still misses hundreds of pairs;
    # uniform/advg+1 overlap in the pairs they touch, advg+1/advl+1 are
    # disjoint (inter-group against intra-group)
    cfg = _auto(h=3, seed=2)
    points = {"uniform": 0.6, "advg+1": 0.4, "advl+1": 0.5}
    serial = {}
    for pattern, load in points.items():
        clear_fabrics()
        serial[pattern] = _record(cfg, pattern, load)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_ in range(20):
            clear_fabrics()
            pair = (("uniform", "advg+1") if round_ % 2 else ("advg+1", "advl+1"))
            barrier = threading.Barrier(2)
            got, fabrics = {}, []

            def work(pattern):
                barrier.wait(timeout=30)
                got[pattern] = _record(cfg, pattern, points[pattern])
                fabrics.append(fabric_for(cfg))

            threads = [threading.Thread(target=work, args=(pattern,))
                       for pattern in pair]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert got == {pattern: serial[pattern] for pattern in pair}, round_
            assert fabrics[0] is fabrics[1] and len(fabrics[0].layouts) == 1
            assert fabric_cache_info().misses == 1
    finally:
        sys.setswitchinterval(interval)
