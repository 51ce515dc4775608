"""Ablations of the design choices around the contribution.

Not paper figures — these probe the knobs docs/DESIGN.md §5 calls out, each as
a throughput floor or spread at h=2 over 600 + 600 cycles (the cheapest
windows at which the margins of the original 1 200-cycle runs hold):

* global-link arrangement (palm tree vs consecutive) under ADVG+h,
* misrouting-trigger candidate sampling width,
* output arbitration policy,
* global-link latency.

(The OFAR-vs-OLM congestion ablation lives in ``tests/test_ofar.py``.)
"""

import pytest

from repro.facade import Session
from repro.network.config import SimConfig
from repro.network.simulator import Simulator
from repro.traffic.patterns import AdversarialGlobal, UniformRandom
from repro.traffic.processes import BernoulliTraffic


def throughput(pattern, load: float, **config) -> float:
    sim = Simulator(SimConfig(h=2, seed=5, **config),
                    BernoulliTraffic(pattern, load))
    sim.run(600)
    return Session(sim=sim).measure(600).throughput


@pytest.mark.parametrize("arrangement", ["palmtree", "consecutive"])
def test_arrangement_routes_advgh(arrangement):
    """ADVG+h is arrangement-dependent, but Valiant delivers under both."""
    assert throughput(AdversarialGlobal(2), 0.5, routing="valiant",
                      arrangement=arrangement) > 0.2


@pytest.mark.parametrize("candidates", [1, 4, 8])
def test_trigger_candidate_width(candidates):
    """Even one sampled candidate finds escape routes under ADVG+1."""
    assert throughput(AdversarialGlobal(1), 0.5, routing="olm",
                      misroute_candidates=candidates) > 0.3


def test_arbitration_policy_is_second_order():
    """Round-robin vs random vs age-based output arbitration under UN:
    the allocator policy moves throughput by well under 15 %."""
    result = {policy: throughput(UniformRandom(), 0.6, routing="olm",
                                 arbitration=policy)
              for policy in ("rr", "random", "age")}
    assert min(result.values()) > 0.85 * max(result.values()), result


@pytest.mark.parametrize("global_latency", [50, 100, 200])
def test_global_latency_degrades_gracefully(global_latency):
    """Longer global wires need deeper buffers; throughput holds up."""
    assert throughput(UniformRandom(), 0.5, routing="rlm",
                      global_latency=global_latency) > 0.25
