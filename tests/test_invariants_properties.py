"""Property and corruption tests for the physical-invariant verifier.

Two directions, both required for trust in ``repro verify-results``:

* **no false positives** — randomized (but seeded) simulation points
  across the wheel and auto engines pass the full invariant set, and
  verification never changes the record bytes;
* **no false negatives** — every checker in the registry demonstrably
  *fires*: a deliberately corrupted record or hub (a dropped packet, a
  doubled latency integral, a negative occupancy) fails exactly the
  invariant that guards against it.
"""

import pickle
import random

import pytest

from repro.analysis.invariants import (
    DEFAULT_TOLERANCE,
    InvariantViolation,
    LIVE_CHECKS,
    RECORD_CHECKS,
    Check,
    ResultReport,
    VerifyReport,
    check_record,
    dragonfly_nodes,
    enforce,
    iter_records,
    render_markdown,
    verify_result,
)
from repro.experiments.presets import cross_topology_config, get_scale
from repro.facade import run_drain, run_point, run_transient, session
from repro.metrics.hub import MetricsHub
from repro.network.config import SimConfig
from repro.runplan.cache import canonical_record_json
from repro.topology.base import PortKind

ENGINES = ("wheel", "auto")


def _checks_by_name(rec, tolerance=DEFAULT_TOLERANCE):
    return {c.check: c for c in check_record(rec, tolerance=tolerance)}


# ------------------------------------------------- verified runs (property)

def _random_points(n, seed=20130807):
    """Seeded random draw over the steady-point configuration space."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        points.append({
            "engine": rng.choice(ENGINES),
            "routing": rng.choice(("minimal", "valiant", "olm")),
            "load": round(rng.uniform(0.15, 0.4), 2),
            "seed": rng.randrange(1, 1000),
        })
    return points


@pytest.mark.parametrize("point", _random_points(5))
def test_verified_steady_point_passes_and_preserves_bytes(point):
    config = SimConfig(h=2, routing=point["routing"], seed=point["seed"],
                       engine=point["engine"])
    plain = run_point(config, "uniform", point["load"], 500, 1000)
    checked = run_point(config, "uniform", point["load"], 500, 1000,
                        verify="full")
    assert canonical_record_json(plain) == canonical_record_json(checked)


@pytest.mark.parametrize("engine", ENGINES)
def test_verified_run_matches_across_fabrics(engine):
    scale = get_scale("smoke")
    config = cross_topology_config("torus", scale=scale,
                                   routing="minimal").with_(engine=engine)
    plain = run_point(config, "uniform", 0.25, scale.warmup, 1000)
    checked = run_point(config, "uniform", 0.25, scale.warmup, 1000,
                        verify="full")
    assert canonical_record_json(plain) == canonical_record_json(checked)


@pytest.mark.parametrize("engine", ENGINES)
def test_verified_drain_and_transient_run(engine):
    config = SimConfig(h=2, routing="minimal", seed=5, engine=engine)
    plain = run_drain(config, "uniform", 10, 100_000)
    checked = run_drain(config, "uniform", 10, 100_000, verify="full")
    assert canonical_record_json(plain) == canonical_record_json(checked)
    rec = run_transient(config, "uniform", 0.2, 5, 4000, 1000,
                        bucket=100, verify="full")
    assert rec["kind"] == "transient"


def test_a_verified_core_point_stays_on_its_core(monkeypatch):
    """The hub a verified point measures through keeps the array core:
    minimal routing at h=4, load 0.3 is the core's under the real rule,
    verified or not, and its record is the wheel's."""
    import repro.facade as facade

    sessions = []
    opened = facade.session

    def spy(*args, **kwargs):
        sessions.append(opened(*args, **kwargs))
        return sessions[-1]

    monkeypatch.setattr(facade, "session", spy)
    config = SimConfig(h=4, routing="minimal", seed=2, engine="auto")
    checked = run_point(config, "uniform", 0.3, 100, 200, verify="flow")
    wheel = run_point(config.with_(engine="wheel"), "uniform", 0.3, 100, 200)
    assert [s.sim.engine_path for s in sessions] == ["core", "wheel"]
    assert canonical_record_json(checked) == canonical_record_json(wheel)


def test_verified_records_pass_record_checks():
    config = SimConfig(h=2, routing="valiant", seed=11)
    rec = run_point(config, "uniform", 0.3, 500, 1000)
    rec.update(pattern="uniform", routing="valiant", h=2, load=0.3)
    checks = check_record(rec)
    assert checks, "a full steady record must apply some invariants"
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]


# ---------------------------------------------- live corruption (hub state)

def _instrumented_window(load=0.35, cycles=800, bucket=100, engine="wheel"):
    s = session(SimConfig(h=2, routing="minimal", seed=3,
                          engine="wheel" if engine == "wheel" else "auto"),
                pattern="uniform", load=load)
    s.warmup(300)
    hub = MetricsHub(s.sim, bucket=bucket)
    s.run(cycles)
    assert s.sim.engine_path == engine
    return s, hub


@pytest.fixture(params=["wheel", "core"])
def hub_engine(request):
    """A corruption must fail its check on both engines a hub watches
    (``core``: the rule pinned, so the h=2 window keeps its array core)."""
    if request.param == "core":
        request.getfixturevalue("core_wins_everywhere")
    return request.param


def test_live_checks_pass_on_honest_window():
    s, hub = _instrumented_window()
    try:
        report = hub.verify(full=True)
        assert report["ok"], report.failures
        assert {c["check"] for c in report.checks} >= set(LIVE_CHECKS)
    finally:
        hub.detach()


def test_dropped_packet_fails_flow_conservation(hub_engine):
    s, hub = _instrumented_window(engine=hub_engine)
    try:
        s.sim._next_pid += 1  # one injection counted, never queued
        report = hub.verify(full=True)
        assert not report["ok"]
        assert not report.check("flow_conservation")["ok"]
        with pytest.raises(InvariantViolation):
            enforce(report)
    finally:
        hub.detach()


def test_scaled_latency_fails_little_law():
    s, hub = _instrumented_window()
    try:
        for b in hub._buckets:  # latency integral no longer matches L
            b.latencies[:] = [2 * lat for lat in b.latencies]
        report = hub.verify(full=True)
        little = report.check("little_law")
        assert little is not None and not little["ok"]
        assert not report["ok"]
    finally:
        hub.detach()


def test_negative_occupancy_fails_occupancy_check(hub_engine):
    s, hub = _instrumented_window(engine=hub_engine)
    try:
        # credits nobody returned, on the first local/global output VC
        core = s.sim._core
        if core is None:
            out = next(o for r in s.sim.routers for o in r.outputs
                       if o.kind is not PortKind.EJECT)
            out.credits[0] += 1_000_000
        else:
            core._ov_credits[core._ov_credits0.nonzero()[0][0]] += 1_000_000
        report = hub.verify(full=True)
        assert s.sim.engine_path == hub_engine
        assert not report.check("occupancy_nonnegative")["ok"]
    finally:
        hub.detach()


def test_impossible_latency_fails_live_floor():
    s, hub = _instrumented_window()
    try:
        # one packet beats its own serialization
        next(b for b in hub._buckets if b.latencies).latencies[0] = 1
        report = hub.verify(full=True)
        assert not report.check("latency_floor")["ok"]
    finally:
        hub.detach()


def test_invariant_violation_pickles_with_report():
    report = VerifyReport(ok=False, checks=[
        {"check": "little_law", "ok": False, "detail": "x"}])
    err = InvariantViolation(report)
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, InvariantViolation)
    assert clone.report == report
    assert "little_law" in str(clone)


# ------------------------------------------- record corruption (per checker)

def _steady_record():
    nodes = dragonfly_nodes(2)
    return {
        "pattern": "uniform", "routing": "minimal", "h": 2,
        "throughput": 0.3, "delivered": 2700,
        "delivered_phits": 0.3 * nodes * 1000,
        "generated": 2700, "start_cycle": 1000, "end_cycle": 2000,
        "mean_latency": 60.0, "latency_p50": 55, "latency_p95": 90,
        "latency_p99": 110, "max_latency": 150, "mean_hops": 2.5,
    }


def _drain_record():
    return {
        "kind": "drain", "pattern": "uniform", "h": 2,
        "packets_per_node": 10, "generated": 720, "delivered": 720,
        "delivered_phits": 5760, "drain_cycles": 500,
        "start_cycle": 0, "end_cycle": 500,
        "mean_latency": 120.0, "max_latency": 400,
    }


def _transient_record():
    return {
        "kind": "transient", "bucket": 100, "start_cycle": 0,
        "end_cycle": 400, "throughput_series": [0.5, 0.4, 0.35, 0.3],
        "recovered": True, "recovery_cycles": 200,
        "baseline_throughput": 0.3,
    }


def test_honest_synthetic_records_pass_every_applied_check():
    for rec in (_steady_record(), _drain_record(), _transient_record()):
        for check in check_record(rec):
            assert check.ok, check


@pytest.mark.parametrize("corrupt,check_name", [
    (lambda r: r.update(delivered=-1), "counters"),
    (lambda r: r.update(delivered_phits=100), "counters"),  # phits<packets
    (lambda r: r.update(throughput=1.2), "throughput_bounds"),
    (lambda r: r.update(global_misroute_fraction=1.4), "throughput_bounds"),
    (lambda r: r.update(throughput=0.95), "capacity_bounds"),  # > (g-1)/g
    (lambda r: r.update(latency_p50=200), "latency_ordering"),
    (lambda r: r.update(mean_latency=500), "latency_ordering"),  # > max
    (lambda r: r.update(mean_latency=2.0), "latency_floor"),
    (lambda r: r.update(latency_p50=1), "latency_floor"),
    (lambda r: r.update(delivered_phits=21601), "throughput_consistency"),
], ids=["negative-counter", "phits-lt-packets", "throughput-gt-1",
        "misroute-fraction", "over-capacity", "p50-gt-p95", "mean-gt-max",
        "latency-under-floor", "p50-under-serialization", "non-integer-nodes"])
def test_steady_corruption_fires_checker(corrupt, check_name):
    rec = _steady_record()
    corrupt(rec)
    named = _checks_by_name(rec)
    assert check_name in named, f"{check_name} did not apply"
    assert not named[check_name].ok


def test_adversarial_capacity_bound_fires():
    rec = _steady_record()
    rec.update(pattern="advg+1", routing="minimal",
               throughput=0.2, delivered_phits=0.2 * 72 * 1000)
    named = _checks_by_name(rec)
    assert not named["capacity_bounds"].ok  # 0.2 > 1/(2h^2) = 0.125


@pytest.mark.parametrize("corrupt,check_name", [
    (lambda r: r.update(delivered=719), "drain_conservation"),
    (lambda r: r.update(generated=721), "drain_conservation"),
    (lambda r: r.update(drain_cycles=400), "drain_conservation"),
    (lambda r: r.update(max_latency=600), "drain_latency"),
], ids=["lost-packet", "generated-mismatch", "window-mismatch",
        "latency-gt-drain"])
def test_drain_corruption_fires_checker(corrupt, check_name):
    rec = _drain_record()
    corrupt(rec)
    named = _checks_by_name(rec)
    assert not named[check_name].ok


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(throughput_series=[0.5, 0.4]),  # span != window
    lambda r: r.update(recovery_cycles=900),  # outside the window
    lambda r: r.update(recovered=False),  # but recovery != window
    lambda r: r.update(baseline_throughput=1.5),
], ids=["short-series", "recovery-outside", "recovered-flag", "baseline"])
def test_transient_corruption_fires_checker(corrupt):
    rec = _transient_record()
    corrupt(rec)
    assert not _checks_by_name(rec)["transient_window"].ok


def test_ci_sanity_fires_on_bad_replica_groups():
    good = {"replicas": 2, "seeds": [1, 2], "throughput": 0.3,
            "throughput_ci": 0.01}
    assert _checks_by_name(good)["ci_sanity"].ok
    for corrupt in ({"throughput_ci": -0.1}, {"seeds": [1, 1]},
                    {"replicas": 1}):
        rec = dict(good, **corrupt)
        assert not _checks_by_name(rec)["ci_sanity"].ok, corrupt


def test_registry_covers_every_corruption_target():
    names = [name for name, _ in RECORD_CHECKS]
    assert names == ["counters", "throughput_bounds", "capacity_bounds",
                     "latency_ordering", "latency_floor",
                     "throughput_consistency", "drain_conservation",
                     "drain_latency", "transient_window", "ci_sanity"]


# ------------------------------------------------------- figure-level checks

def test_verify_result_cross_record_node_consistency():
    a, b = _steady_record(), _steady_record()
    b["delivered_phits"] = b["throughput"] * 36 * 1000  # half the fabric
    b["h"] = None
    result = {"id": "fig4a", "description": "d",
              "series": {"minimal": [a, b]}}
    report = verify_result(result)
    assert not report.ok
    assert any(label == "<cross-record>" for label, _ in report.failures)


def test_report_tallies_and_failures_read_off_its_checks():
    """Tallies and failures are views of the one ``(label, Check)`` list:
    every registered invariant first, in registry order, then any other
    verdict the list carries (a live gate, ``record_identity``)."""
    a, b = _steady_record(), _steady_record()
    b["delivered_phits"] = b["throughput"] * 36 * 1000  # half the fabric
    b["h"] = None
    report = verify_result({"id": "fig4a", "description": "d",
                            "series": {"minimal": [a, b]}})
    tallies = report.tallies()
    assert list(tallies) == [name for name, _ in RECORD_CHECKS]
    assert sum(applied for applied, _ in tallies.values()) == len(report.checks)
    assert sum(failed for _, failed in tallies.values()) == len(report.failures)
    assert report.failures == [(label, c) for label, c in report.checks
                               if not c.ok]
    assert tallies["drain_conservation"] == [0, 0]
    cross = [c.check for label, c in report.checks if label == "<cross-record>"]
    assert cross == ["throughput_consistency"]

    extra = ResultReport(figure="live", description="d", records=1, checks=[
        ("dragonfly/wheel", Check("counters", True)),
        ("dragonfly/wheel", Check("record_identity", False, detail="differs")),
    ])
    assert not extra.ok
    assert list(extra.tallies())[-1] == "record_identity"
    assert extra.tallies()["record_identity"] == [1, 1]
    assert extra.tallies()["counters"] == [1, 0]
    assert [c.check for _, c in extra.failures] == ["record_identity"]


def test_markdown_lists_the_cross_record_failure_like_any_other():
    a, b = _steady_record(), _steady_record()
    b["delivered_phits"] = b["throughput"] * 36 * 1000  # half the fabric
    b["h"] = None
    report = verify_result({"id": "fig4a", "description": "d",
                            "series": {"minimal": [a, b]}})
    md = render_markdown([report])
    assert "## ❌ fig4a — d" in md
    assert "| throughput_consistency | 2/3 | ❌ |" in md
    assert "- ❌ `<cross-record>` **throughput_consistency**:" in md
    assert f"{len(report.failures)} check(s) ❌" in md


def test_iter_records_rejects_malformed_series():
    with pytest.raises(ValueError):
        list(iter_records({"series": "nope"}))
    with pytest.raises(ValueError):
        list(iter_records({"series": {"a": [1, 2]}}))
