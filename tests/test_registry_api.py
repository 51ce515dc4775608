"""The unified component registry: registration, introspection, errors."""

import pytest

from repro.network.config import SimConfig
from repro.network.simulator import build_simulator
from repro.registry import (
    ARBITER_REGISTRY,
    FLOW_CONTROL_REGISTRY,
    PATTERN_REGISTRY,
    PROCESS_REGISTRY,
    ROUTING_REGISTRY,
    TOPOLOGY_REGISTRY,
    DuplicateComponentError,
    Registry,
    UnknownComponentError,
    all_registries,
)
from repro.topology.dragonfly import Dragonfly


def test_register_direct_and_decorator():
    reg = Registry("widget")
    reg.register("alpha", object(), description="first")

    @reg.register("beta")
    class Beta:
        """A beta widget."""

    assert set(reg.available()) == {"alpha", "beta"}
    assert reg.get("beta") is Beta
    assert reg.describe()["alpha"] == "first"
    # description defaults to the first docstring line
    assert reg.describe()["beta"] == "A beta widget."


def test_duplicate_name_rejected():
    reg = Registry("widget")
    reg.register("x", 1)
    with pytest.raises(DuplicateComponentError, match="already registered"):
        reg.register("x", 2)
    assert reg.get("x") == 1
    reg.register("x", 2, overwrite=True)
    assert reg.get("x") == 2


def test_unknown_name_error_text_with_suggestion():
    reg = Registry("flavor")
    reg.register("vanilla", 1)
    reg.register("chocolate", 2)
    with pytest.raises(UnknownComponentError) as exc:
        reg.get("vanila")
    msg = str(exc.value)
    assert "unknown flavor 'vanila'" in msg
    assert "chocolate" in msg and "vanilla" in msg  # known names listed
    assert "did you mean 'vanilla'?" in msg
    # the error is both a ValueError (legacy contract) and a KeyError (mapping)
    assert isinstance(exc.value, ValueError)
    assert isinstance(exc.value, KeyError)


def test_get_with_default_follows_mapping_semantics():
    reg = Registry("thing")
    reg.register("a", 1)
    assert reg.get("a", 99) == 1
    assert reg.get("missing", 99) == 99
    assert reg.get("missing", None) is None
    with pytest.raises(UnknownComponentError):
        reg.get("missing")


def test_registry_is_a_mapping():
    reg = Registry("thing")
    reg.register("a", 1)
    reg.register("b", 2)
    assert reg == {"a": 1, "b": 2}
    assert "a" in reg and "z" not in reg
    assert len(reg) == 2
    assert sorted(reg) == ["a", "b"]
    assert reg["b"] == 2
    reg.unregister("b")
    assert "b" not in reg
    with pytest.raises(UnknownComponentError):
        reg.unregister("b")


def test_all_registries_lists_every_component_kind():
    regs = all_registries()
    assert set(regs) == {"topology", "routing", "flow-control", "arbitration",
                         "traffic-pattern", "traffic-process", "engine"}
    assert "dragonfly" in regs["topology"].available()
    assert regs["engine"].available() == ("auto", "reference", "wheel")
    assert "olm" in regs["routing"].available()
    assert regs["flow-control"].available() == ("vct", "wh")
    assert regs["arbitration"].available() == ("age", "random", "rr")
    assert "uniform" in regs["traffic-pattern"].available()
    assert "bernoulli" in regs["traffic-process"].available()
    for registry in regs.values():
        for name, description in registry.describe().items():
            assert description, f"{registry.kind} {name!r} lacks a description"


def test_third_party_pattern_via_decorator():
    from repro.traffic.patterns import TrafficPattern, pattern_by_name

    @PATTERN_REGISTRY.register("all-to-zero", description="everyone floods node 0")
    class AllToZero(TrafficPattern):
        """Everyone sends to node 0 (node 0 bounces to 1)."""

        name = "all-to-zero"

        def dest(self, src, topo, rng):
            return 0 if src != 0 else 1

    try:
        topo = Dragonfly(2)
        pattern = pattern_by_name("all-to-zero", topo)
        assert isinstance(pattern, AllToZero)
        assert pattern.dest(5, topo, None) == 0
    finally:
        PATTERN_REGISTRY.unregister("all-to-zero")
    assert "all-to-zero" not in PATTERN_REGISTRY


def test_third_party_topology_selected_by_config():
    @TOPOLOGY_REGISTRY.register("dragonfly-consecutive",
                                description="dragonfly with consecutive links")
    class ConsecutiveDragonfly(Dragonfly):
        """Dragonfly hard-wired to the consecutive arrangement."""

        @classmethod
        def from_config(cls, config):
            return cls(config.h, p=config.p, a=config.a,
                       arrangement="consecutive")

    try:
        cfg = SimConfig(h=2, topology="dragonfly-consecutive", routing="minimal")
        sim = build_simulator(cfg)
        assert isinstance(sim.topo, ConsecutiveDragonfly)
        assert sim.topo.arrangement.name == "consecutive"
        pkt = sim.inject_packet(0, sim.topo.num_nodes - 1)
        sim.run_until_drained(50_000)
        assert pkt.delivered_cycle is not None
    finally:
        TOPOLOGY_REGISTRY.unregister("dragonfly-consecutive")
    with pytest.raises(ValueError, match="unknown topology"):
        SimConfig(topology="dragonfly-consecutive")


def test_config_names_validated_against_registries():
    with pytest.raises(ValueError, match="unknown topology.*did you mean"):
        SimConfig(topology="dragonfy")
    with pytest.raises(ValueError, match="unknown routing.*did you mean"):
        SimConfig(routing="olmm")
    with pytest.raises(ValueError, match="unknown flow control"):
        SimConfig(flow_control="bubble")
    with pytest.raises(ValueError, match="unknown arbitration"):
        SimConfig(arbitration="lottery")


def test_registered_pattern_with_required_args_gets_clear_error():
    from repro.traffic.extra import NodeShift
    from repro.traffic.patterns import TrafficPattern, pattern_by_name

    topo = Dragonfly(2)

    @PATTERN_REGISTRY.register("needy", description="requires a ctor argument")
    class Needy(TrafficPattern):
        def __init__(self, knob: int) -> None:
            self.knob = knob

        def dest(self, src, topo, rng):
            return (src + self.knob) % topo.num_nodes

    try:
        with pytest.raises(ValueError, match="cannot be built from a bare name"):
            pattern_by_name("needy", topo)
        assert pattern_by_name("needy", topo, knob=2).knob == 2
    finally:
        PATTERN_REGISTRY.unregister("needy")
    shifted = pattern_by_name("shift", topo, offset=3)
    assert isinstance(shifted, NodeShift) and shifted.offset == 3


def test_spec_prefixes_do_not_shadow_registered_names():
    from repro.traffic.patterns import TrafficPattern, pattern_by_name

    topo = Dragonfly(2)

    @PATTERN_REGISTRY.register("mixed-hot", description="prefix-sharing plugin")
    class MixedHot(TrafficPattern):
        """Plugin whose name shares the 'mixed' spec prefix."""

        def dest(self, src, topo, rng):
            return (src + 1) % topo.num_nodes

    try:
        assert isinstance(pattern_by_name("mixed-hot", topo), MixedHot)
    finally:
        PATTERN_REGISTRY.unregister("mixed-hot")
    # malformed spec-like names fall through to the registry error, not int()
    with pytest.raises(ValueError, match="unknown traffic pattern"):
        pattern_by_name("advglobal", topo)
    with pytest.raises(ValueError, match="unknown traffic pattern"):
        pattern_by_name("advg+x", topo)


def test_routing_registry_equals_legacy_dict_shape():
    # the Mapping face keeps the pre-registry contract alive
    from repro.core import OlmRouting, routing_by_name

    assert ROUTING_REGISTRY["olm"] is OlmRouting
    assert routing_by_name("olm") is OlmRouting
    assert dict(ROUTING_REGISTRY) == {name: ROUTING_REGISTRY[name]
                                      for name in ROUTING_REGISTRY.available()}


def test_flow_control_from_config():
    from repro.network.flowcontrol import VirtualCutThrough, Wormhole

    vct = FLOW_CONTROL_REGISTRY.get("vct").from_config(SimConfig())
    assert isinstance(vct, VirtualCutThrough)
    wh = FLOW_CONTROL_REGISTRY.get("wh").from_config(SimConfig(flow_control="wh"))
    assert isinstance(wh, Wormhole) and wh.flit_size == 10


def test_process_registry_contents():
    from repro.traffic.extra import TraceReplay
    from repro.traffic.processes import BernoulliTraffic, BurstTraffic

    assert PROCESS_REGISTRY.get("bernoulli") is BernoulliTraffic
    assert PROCESS_REGISTRY.get("burst") is BurstTraffic
    assert PROCESS_REGISTRY.get("trace") is TraceReplay


def test_arbiter_registry_builds_strategies():
    from repro.network.arbitration import AgeArbiter, RandomArbiter, RoundRobinArbiter

    assert ARBITER_REGISTRY.get("rr") is RoundRobinArbiter
    assert ARBITER_REGISTRY.get("random") is RandomArbiter
    assert ARBITER_REGISTRY.get("age") is AgeArbiter
    sim = build_simulator(SimConfig(arbitration="age", routing="minimal"))
    assert isinstance(sim.arbiter, AgeArbiter)
