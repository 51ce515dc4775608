"""The batched-injection RNG-stream contract.

``BernoulliTraffic.inject_batch`` must consume the traffic RNG stream
draw-for-draw identically to the scalar ``inject`` loop — for **every**
registered pattern — and ``BurstTraffic``'s bulk-destination path must
leave the injection sequence untouched.  These tests pin the contract
directly, below the engine layer; the golden matrix pins it end to end.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.traffic.extra  # noqa: F401 - populate PATTERN_REGISTRY
from repro.network.config import SimConfig
from repro.registry import PATTERN_REGISTRY
from repro.topology import Dragonfly
from repro.traffic.mtstream import StreamRandom
from repro.traffic.processes import BernoulliTraffic, BurstTraffic

TOPO = Dragonfly(2)
SEED = 1234
CYCLES = 30
#: constructor kwargs for registered patterns that need them
PATTERN_KWARGS = {"mixed": dict(p_global=0.4, global_offset=2)}


class _CaptureSim:
    """The minimal simulator surface an injection process touches."""

    def __init__(self, seed: int) -> None:
        self.topo = TOPO
        self.config = SimConfig(h=2, seed=seed)
        self.rng_traffic = random.Random(seed)
        self.pairs: list[tuple[int, int]] = []

    def inject_packet(self, src: int, dst: int, now: int) -> None:
        self.pairs.append((src, dst))


def _build(name):
    return PATTERN_REGISTRY.get(name)(**PATTERN_KWARGS.get(name, {}))


@pytest.mark.parametrize("name", sorted(PATTERN_REGISTRY.available()))
def test_inject_batch_matches_scalar_draw_for_draw(name):
    """Per cycle: identical (src, dst) pairs, identical stream position."""
    pattern_a, pattern_b = _build(name), _build(name)
    scalar_sim, batch_sim = _CaptureSim(SEED), _CaptureSim(SEED)
    scalar = BernoulliTraffic(pattern_a, load=0.9)
    batched = BernoulliTraffic(pattern_b, load=0.9)
    for cycle in range(CYCLES):
        scalar_sim.pairs.clear()
        scalar.inject(scalar_sim, cycle)
        out = batched.inject_batch(batch_sim, cycle)
        assert out is not None, "batch declined on a plain Random"
        srcs, dsts = out
        batch_pairs = list(zip(srcs.tolist(), dsts.tolist()))
        assert batch_pairs == scalar_sim.pairs, f"cycle {cycle}"
    # the wrapper must sit exactly where the scalar stream sits: any
    # further draws, made directly on the traffic RNG, must agree
    assert isinstance(batch_sim.rng_traffic, StreamRandom)
    for _ in range(200):
        assert (scalar_sim.rng_traffic.random()
                == batch_sim.rng_traffic.random())
        assert (scalar_sim.rng_traffic.randrange(997)
                == batch_sim.rng_traffic.randrange(997))


@pytest.mark.parametrize("name", sorted(PATTERN_REGISTRY.available()))
def test_inject_batch_interleaves_with_scalar_fallback(name):
    """Alternating batch and scalar cycles stays on one stream."""
    pattern_a, pattern_b = _build(name), _build(name)
    scalar_sim, mixed_sim = _CaptureSim(SEED + 1), _CaptureSim(SEED + 1)
    scalar = BernoulliTraffic(pattern_a, load=0.7)
    mixed = BernoulliTraffic(pattern_b, load=0.7)
    for cycle in range(CYCLES):
        scalar_sim.pairs.clear()
        scalar.inject(scalar_sim, cycle)
        if cycle % 3 == 2:  # scalar fallback through the installed wrapper
            mixed_sim.pairs.clear()
            mixed.inject(mixed_sim, cycle)
            assert mixed_sim.pairs == scalar_sim.pairs, f"cycle {cycle}"
        else:
            srcs, dsts = mixed.inject_batch(mixed_sim, cycle)
            assert (list(zip(srcs.tolist(), dsts.tolist()))
                    == scalar_sim.pairs), f"cycle {cycle}"


def test_inject_batch_declines_on_foreign_rng():
    class NotQuiteRandom(random.Random):
        pass

    sim = _CaptureSim(SEED)
    sim.rng_traffic = NotQuiteRandom(SEED)
    traffic = BernoulliTraffic(_build("uniform"), load=0.5)
    assert traffic.inject_batch(sim, 0) is None
    assert isinstance(sim.rng_traffic, NotQuiteRandom)  # left untouched


def test_inject_batch_zero_load_is_empty_and_streamless():
    sim = _CaptureSim(SEED)
    before = sim.rng_traffic.getstate()
    traffic = BernoulliTraffic(_build("uniform"), load=0.0)
    srcs, dsts = traffic.inject_batch(sim, 0)
    assert srcs.size == 0 and dsts.size == 0
    assert sim.rng_traffic.getstate() == before  # no wrapper, no draws


def test_deterministic_patterns_use_vector_path_and_draw_nothing():
    sim = _CaptureSim(SEED)
    traffic = BernoulliTraffic(_build("shift"), load=0.9)
    ref = random.Random(SEED)
    for cycle in range(10):
        srcs, dsts = traffic.inject_batch(sim, cycle)
        n = TOPO.num_nodes
        hits = [node for node in range(n) if ref.random() < 0.9 / 8]
        assert srcs.tolist() == hits  # only the gates consumed the stream
        assert dsts.tolist() == [(s + 1) % n for s in srcs.tolist()]
    assert traffic._dest_map is not None  # vector table was built


@pytest.mark.parametrize("name", sorted(PATTERN_REGISTRY.available()))
def test_burst_bulk_destinations_match_per_packet_loop(name):
    """BurstTraffic's deterministic fast path preserves the sequence."""
    pattern = _build(name)
    fast_sim = _CaptureSim(SEED)
    BurstTraffic(_build(name), packets_per_node=3).inject(fast_sim, 0)
    # reference: the original per-packet destination loop
    ref_sim = _CaptureSim(SEED)
    rng = ref_sim.rng_traffic
    expected = []
    for node in range(TOPO.num_nodes):
        for _ in range(3):
            d = pattern.dest(node, TOPO, rng)
            if d != node:
                expected.append((node, d))
    assert fast_sim.pairs == expected
    if pattern.deterministic:
        # and the stream must be untouched by the fast path
        assert (fast_sim.rng_traffic.getstate()
                == random.Random(SEED).getstate())


def test_dest_map_rebuilds_on_topology_change():
    traffic = BernoulliTraffic(_build("bitcomp"), load=0.9)
    sim_small = _CaptureSim(SEED)
    traffic.inject_batch(sim_small, 0)
    first = traffic._dest_map
    big = Dragonfly(3)
    sim_big = _CaptureSim(SEED)
    sim_big.topo = big
    traffic.inject_batch(sim_big, 0)
    assert traffic._dest_map is not first
    assert traffic._dest_map.size == big.num_nodes


def test_planned_gates_and_walk_gates_share_one_stream():
    """Mixing the planner's gate-only cycles and the walker keeps stream order."""
    ref = random.Random(77)
    sr = StreamRandom(random.Random(77))
    nodes, draws = sr.next_cycle(100, 0.4)
    assert draws is None
    assert nodes.tolist() == [i for i in range(100) if ref.random() < 0.4]
    hits_ref = []
    for i in range(200):
        if ref.random() < 0.25:
            hits_ref.append((i, ref.randrange(53)))
    hits = []
    sr.walk_gates(200, 0.25, lambda i: hits.append((i, sr.randrange(53))))
    assert hits == hits_ref
    assert sr.next_cycle(5, 0.4)[0].tolist() == \
        [i for i in range(5) if ref.random() < 0.4]


# ------------------------------------------------- the plan, window by window
@pytest.mark.parametrize("p", [2 ** -3, 0.0875, 1 / 3, 1.0, 1.5])
def test_integer_gate_verdict_is_random_below_p(p):
    """The planner's integer gate agrees with ``random() < p`` at its edge.

    ``random()`` on words ``(w0, w1)`` is ``((w0 >> 5) * 2**26 + (w1 >> 6))
    * 2**-53``; the pairs below put that integer one below, at and one
    above ``ceil(p * 2**53)``, in both word parities of the window.
    """
    thr = math.ceil(min(p, 1.0) * 2 ** 53)
    pairs = []
    for x in (thr - 1, thr, thr + 1):
        if 0 <= x < 2 ** 53:
            # low bits of each word are not read by random(): vary them
            pairs.append(((x >> 26) << 5 | 31, (x & (2 ** 26 - 1)) << 6 | 1))
            pairs.append(((x >> 26) << 5, (x & (2 ** 26 - 1)) << 6))
    words = [w for pair in pairs for w in pair]

    def stream(prefix):
        sr = StreamRandom(random.Random(0))
        sr._words = np.array(prefix + words + [0] * 8, dtype=np.uint32)
        sr._pos = 0
        return sr

    for prefix in ([], [0]):  # even and odd word offsets
        want = []
        sr = stream(prefix)
        sr.getrandbits(32 * len(prefix))
        for _ in pairs:
            want.append(sr.random() < p)
        sr = stream(prefix)
        pos, _, ne = sr._gate_hits(p)
        odd = len(prefix)
        run = pos[ne + 1:-1] if odd else pos[:ne]
        got = [c in set(run.tolist()) for c in range(odd, odd + 2 * len(pairs), 2)]
        assert got == want
    assert any(want) and (p >= 1 or not all(want))


class _Ring:
    """A topology surface for any node count: one node per router, one
    router per group, so ADVG+1 draws ``randrange(1)`` per packet."""

    a = p = 1

    def __init__(self, n: int) -> None:
        self.num_nodes = self.num_groups = n

    def router_of_node(self, node: int) -> int:
        return node

    def group_of(self, router: int) -> int:
        return router


_FABRICS = {2: _Ring(2), 5: _Ring(5), 72: TOPO, 342: Dragonfly(3),
            1056: Dragonfly(4)}
_FOREIGN = [lambda r: r.random(), lambda r: r.randrange(1000)] + [
    (lambda k: lambda r: r.getrandbits(k))(k) for k in (1, 31, 32, 33, 64)]


@given(n=st.sampled_from(sorted(_FABRICS)),
       p=st.sampled_from([1e-4, 0.0125, 0.0875, 0.125, 1.0]),
       name=st.sampled_from(["uniform", "shift", "advg"]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_the_stream_contract_holds_over_many_plan_windows(n, p, name, seed):
    """Thousands of words past the first window, foreign draws and a
    ``release()`` included: every cycle is the scalar loop's, and the
    stream stands where the scalar loop's does."""
    scalar_sim, batch_sim = _CaptureSim(seed), _CaptureSim(seed)
    scalar_sim.topo = batch_sim.topo = _FABRICS[n]
    load = p * scalar_sim.config.packet_phits
    scalar = BernoulliTraffic(_build(name), load)
    batched = BernoulliTraffic(_build(name), load)
    events = random.Random(seed)
    released = False
    windows, last = 0, None
    cycle = 0
    while windows < 4:  # the first window, then three more
        assert cycle < 20_000, "the run never left its first windows"
        scalar_sim.pairs.clear()
        scalar.inject(scalar_sim, cycle)
        srcs, dsts = batched.inject_batch(batch_sim, cycle)
        assert list(zip(srcs.tolist(), dsts.tolist())) == scalar_sim.pairs, cycle
        rng = batch_sim.rng_traffic
        if rng._words is not last:
            windows, last = windows + 1, rng._words
        if events.random() < 0.2:  # a burst, a hand injection, ...
            draw = events.choice(_FOREIGN)
            assert draw(rng) == draw(scalar_sim.rng_traffic), cycle
        if windows == 2 and not released:  # leaving the core, and back
            released = True
            batch_sim.rng_traffic = rng.release()
            assert (batch_sim.rng_traffic.getstate()
                    == scalar_sim.rng_traffic.getstate())
        cycle += 1
    assert ([batch_sim.rng_traffic.getrandbits(32) for _ in range(100)]
            == [scalar_sim.rng_traffic.getrandbits(32) for _ in range(100)])
