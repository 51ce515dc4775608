"""Cycle-level network simulator substrate.

Models FIFO input-buffered virtual-channel routers with credit-based
flow control, link latency pipelines and per-port serialization — the
same router architecture as the paper's in-house simulator.
"""

from repro.network.arbitration import Arbiter, RoundRobinArbiter, RandomArbiter, AgeArbiter
from repro.network.config import SimConfig
from repro.network.flowcontrol import FlowControl, VirtualCutThrough, Wormhole
from repro.network.packet import Packet, Flit
from repro.network.simulator import Simulator, DeadlockError, build_simulator
from repro.registry import ARBITER_REGISTRY, ENGINE_REGISTRY, FLOW_CONTROL_REGISTRY

# the frozen seed engine registers here (its module must stay untouched)
if "reference" not in ENGINE_REGISTRY:
    from repro.network.reference import ReferenceSimulator

    ENGINE_REGISTRY.register(
        "reference", ReferenceSimulator,
        description="frozen seed engine (fidelity baseline, slow)")

__all__ = [
    "SimConfig",
    "FlowControl",
    "VirtualCutThrough",
    "Wormhole",
    "FLOW_CONTROL_REGISTRY",
    "Arbiter",
    "RoundRobinArbiter",
    "RandomArbiter",
    "AgeArbiter",
    "ARBITER_REGISTRY",
    "Packet",
    "Flit",
    "Simulator",
    "DeadlockError",
    "build_simulator",
    "ENGINE_REGISTRY",
]
