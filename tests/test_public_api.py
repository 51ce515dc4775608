"""Public API surface: imports, exports, docstrings."""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.registry",
    "repro.facade",
    "repro.topology",
    "repro.topology.base",
    "repro.topology.dragonfly",
    "repro.topology.arrangements",
    "repro.topology.ring",
    "repro.topology.validate",
    "repro.network",
    "repro.network.config",
    "repro.network.packet",
    "repro.network.flowcontrol",
    "repro.network.arbitration",
    "repro.network.buffers",
    "repro.network.ports",
    "repro.network.router",
    "repro.network.simulator",
    "repro.core",
    "repro.core.base",
    "repro.core.paritysign",
    "repro.core.trigger",
    "repro.core.minimal",
    "repro.core.valiant",
    "repro.core.piggyback",
    "repro.core.par",
    "repro.core.rlm",
    "repro.core.olm",
    "repro.core.ofar",
    "repro.traffic",
    "repro.traffic.patterns",
    "repro.traffic.processes",
    "repro.traffic.extra",
    "repro.metrics",
    "repro.metrics.statistics",
    "repro.metrics.probes",
    "repro.metrics.hub",
    "repro.runplan",
    "repro.runplan.spec",
    "repro.runplan.scheduler",
    "repro.runplan.cache",
    "repro.runplan.aggregate",
    "repro.runplan.runner",
    "repro.serve",
    "repro.serve.app",
    "repro.serve.jobs",
    "repro.serve.protocol",
    "repro.serve.runner",
    "repro.serve.settings",
    "repro.serve.httpd",
    "repro.serve.testclient",
    "repro.analysis",
    "repro.analysis.bounds",
    "repro.analysis.cdg",
    "repro.experiments",
    "repro.experiments.presets",
    "repro.experiments.figures",
    "repro.experiments.registry",
    "repro.experiments.reporting",
    "repro.experiments.svgplot",
    "repro.experiments.cli",
]


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_module_imports_and_documented(module):
    mod = importlib.import_module(module)
    assert mod.__doc__ and mod.__doc__.strip(), f"{module} lacks a docstring"


def test_top_level_exports_resolve():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_version_string():
    import repro

    major, *_ = repro.__version__.split(".")
    assert major.isdigit()


@pytest.mark.parametrize("package", ["repro.core", "repro.traffic", "repro.metrics",
                                     "repro.analysis", "repro.experiments",
                                     "repro.topology", "repro.network"])
def test_subpackage_all_exports_resolve(package):
    mod = importlib.import_module(package)
    for name in getattr(mod, "__all__", []):
        assert getattr(mod, name) is not None, f"{package}.{name}"


def test_public_classes_have_docstrings():
    from repro.core import ROUTING_REGISTRY

    for cls in ROUTING_REGISTRY.values():
        assert cls.__doc__
        assert any(getattr(base, "decide", None) and base.decide.__doc__
                   for base in cls.__mro__)


def test_facade_and_registry_exports_pinned():
    """The Session/registry surface of the redesigned public API."""
    import repro

    for name in ("session", "Session", "RunResult", "Registry",
                 "UnknownComponentError", "DuplicateComponentError",
                 "all_registries", "TOPOLOGY_REGISTRY", "ROUTING_REGISTRY",
                 "FLOW_CONTROL_REGISTRY", "ARBITER_REGISTRY",
                 "PATTERN_REGISTRY", "PROCESS_REGISTRY", "Topology"):
        assert name in repro.__all__, name
        assert getattr(repro, name) is not None


def test_backward_compat_shims_unchanged():
    """The pre-redesign imports that are still documented keep working;
    the shims PR 13 deleted on purpose stay deleted."""
    import repro.experiments
    import repro.metrics
    import repro.network.flowcontrol
    import repro.runplan
    from repro import SimConfig, Simulator, build_simulator  # noqa: F401
    from repro.core import ROUTING_REGISTRY, routing_by_name

    sim = build_simulator(SimConfig(h=2, routing="minimal"))
    assert routing_by_name("olm").name == "olm"
    assert "olm" in ROUTING_REGISTRY
    assert repro.metrics.occupancy_snapshot and repro.metrics.injection_backlog
    for owner, gone in [
        (sim, "on_packet_delivered"),
        (repro.network.flowcontrol, "flow_control_by_name"),
        (repro.metrics, "ThroughputProbe"),
        (repro.runplan, "run_stream"),
        # PR 17: the executor layer — ``jobs`` / ``scheduler=`` replace it
        (repro.runplan, "SerialExecutor"),
        (repro.runplan, "ProcessExecutor"),
        (repro.runplan, "EXECUTOR_REGISTRY"),
        (repro.runplan, "resolve_executor"),
        (repro, "EXECUTOR_REGISTRY"),
        (repro.experiments, "load_sweep"),
    ]:
        assert not hasattr(owner, gone), gone


def test_simulator_is_topology_agnostic():
    """The engine resolves the fabric via TOPOLOGY_REGISTRY, never directly
    (through the per-process memo, which is the one place that asks)."""
    import inspect

    import repro.network.simulator as engine
    import repro.topology.fabric as memo

    src = inspect.getsource(engine)
    assert "Dragonfly" not in src
    assert "fabric_for(config)" in src
    memo_src = inspect.getsource(memo)
    assert "Dragonfly" not in memo_src
    assert "TOPOLOGY_REGISTRY.get(config.topology)" in memo_src
