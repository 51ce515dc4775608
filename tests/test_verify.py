"""Shape-verification module: claim predicates and markdown rendering."""


from repro.experiments.verify import (
    check_burst,
    check_cross_topology,
    check_mixed,
    check_table1,
    check_threshold_advg,
    check_threshold_uniform,
    check_vct_advgh,
    check_vct_uniform,
    low_load_latency,
    mean_drain,
    render_experiments_md,
    saturation,
)


def sweep_points(loads_thr, lat0=120.0):
    return [{"load": load, "throughput": thr, "mean_latency": lat0 + 100 * i}
            for i, (load, thr) in enumerate(loads_thr)]


def test_helpers():
    pts = sweep_points([(0.1, 0.1), (0.5, 0.45)])
    assert saturation(pts) == 0.45
    assert low_load_latency(pts) == 120.0
    assert mean_drain([{"drain_cycles": 10}, {"drain_cycles": 30}]) == 20.0
    assert saturation([]) == 0.0


def good_uniform_result():
    mk = lambda sat: sweep_points([(0.2, 0.2), (0.8, sat)])
    return {
        "id": "fig5a",
        "description": "demo",
        "series": {
            "par62": mk(0.62), "olm": mk(0.61), "rlm": mk(0.60),
            "minimal": mk(0.55), "pb": mk(0.55),
        },
    }


def test_uniform_claims_pass():
    claims = check_vct_uniform(good_uniform_result())
    assert all(c.ok for c in claims)


def test_uniform_claims_fail_when_olm_weak():
    r = good_uniform_result()
    r["series"]["olm"] = sweep_points([(0.2, 0.2), (0.8, 0.40)])
    claims = check_vct_uniform(r)
    assert not all(c.ok for c in claims)


def test_advgh_claims():
    mk = lambda sat: sweep_points([(0.1, 0.1), (0.5, sat)])
    r = {"id": "fig5c", "series": {
        "par62": mk(0.40), "olm": mk(0.39), "rlm": mk(0.38),
        "valiant": mk(0.28), "pb": mk(0.30),
    }}
    assert all(c.ok for c in check_vct_advgh(r))
    r["series"]["par62"] = r["series"]["olm"] = r["series"]["rlm"] = mk(0.2)
    assert not all(c.ok for c in check_vct_advgh(r))


def test_mixed_and_burst_claims():
    mix = lambda v: [{"global_pct": p, "throughput": v} for p in (0, 100)]
    r = {"id": "fig6a", "series": {
        "par62": mix(0.7), "olm": mix(0.7), "rlm": mix(0.6), "pb": mix(0.5),
    }}
    assert all(c.ok for c in check_mixed(r))
    drain = lambda v: [{"global_pct": p, "drain_cycles": v} for p in (0, 100)]
    rb = {"id": "fig6b", "series": {"olm": drain(40), "rlm": drain(45), "pb": drain(100)}}
    assert all(c.ok for c in check_burst(rb))
    rb_bad = {"id": "fig6b", "series": {"olm": drain(95), "rlm": drain(99), "pb": drain(100)}}
    assert not any(c.ok for c in check_burst(rb_bad))


def test_table1_claim():
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    res = run_experiment("tab1")
    claims = check_table1(res)
    assert claims[0].ok
    assert EXPERIMENTS["tab1"].check(res)[0].ok


def xtopo_points(sat, lat0):
    """Curve tracking offered load up to a saturation plateau."""
    return [{"load": load, "throughput": min(load, sat),
             "mean_latency": lat0 * (1 + 2 * i)}
            for i, load in enumerate((0.1, 0.4, 0.8))]


def good_xtopo_result():
    return {"id": "xtopo1", "series": {
        "dragonfly/minimal": xtopo_points(0.65, 115.0),
        "dragonfly/valiant": xtopo_points(0.40, 240.0),
        "flattened_butterfly/minimal": xtopo_points(0.80, 21.0),
        "flattened_butterfly/valiant": xtopo_points(0.78, 32.0),
        "torus/minimal": xtopo_points(0.25, 190.0),
        "torus/valiant": xtopo_points(0.22, 430.0),
    }}


def test_cross_topology_claims_pass():
    claims = check_cross_topology(good_xtopo_result())
    assert len(claims) == 4
    assert all(c.ok for c in claims)


def test_cross_topology_claims_fail_on_broken_fabric():
    # a deadlocked torus (throughput collapse) must trip the first claim
    r = good_xtopo_result()
    r["series"]["torus/valiant"] = [
        {"load": load, "throughput": 0.01, "mean_latency": 9000.0}
        for load in (0.1, 0.4, 0.8)
    ]
    claims = check_cross_topology(r)
    assert not claims[0].ok
    # and Valiant beating minimal on a fabric trips the ordering claim
    r = good_xtopo_result()
    r["series"]["dragonfly/valiant"] = xtopo_points(0.90, 240.0)
    assert not check_cross_topology(r)[1].ok


def test_threshold_claims_compare_saturation_throughputs():
    mk = lambda sat: sweep_points([(0.2, 0.2), (0.8, sat)])
    cautious = {"id": "fig10", "series": {
        "th=30%": mk(0.60), "th=45%": mk(0.58), "th=60%": mk(0.50)}}
    (un,) = check_threshold_uniform(cautious)
    assert un.ok
    assert un.detail == "th=30%=0.600, th=45%=0.580, th=60%=0.500"
    aggressive_loses, near_best = check_threshold_advg(cautious)
    assert not aggressive_loses.ok and near_best.ok
    aggressive = {"id": "fig11", "series": {
        "th=30%": mk(0.30), "th=45%": mk(0.40), "th=60%": mk(0.45)}}
    assert not check_threshold_uniform(aggressive)[0].ok
    assert [c.ok for c in check_threshold_advg(aggressive)] == [True, False]


def test_render_markdown():
    from repro.experiments.registry import run_experiment

    results = {"tab1": run_experiment("tab1")}
    md = render_experiments_md(results)
    assert "# EXPERIMENTS" in md
    assert "tab1" in md
    assert "shape checks pass" in md
    assert "| claim | ok | measured |" in md


def test_claim_row_rendering():
    drain = lambda v: [{"global_pct": p, "drain_cycles": v} for p in (0, 100)]
    bad = {"id": "fig6b", "description": "demo",
           "series": {"olm": drain(95), "rlm": drain(99), "pb": drain(100)}}
    md = render_experiments_md({"fig6b": bad})
    assert "**0 shape checks pass, 2 fail.**" in md
    assert ("| Burst: RLM drains far faster than PB (paper ~42.5% of PB's "
            "time) | ❌ | measured 99.0% of PB |") in md
    good = dict(bad, series={"olm": drain(40), "rlm": drain(45), "pb": drain(100)})
    assert "| ✅ | measured 45.0% of PB |" in render_experiments_md({"fig6b": good})


def test_checked_in_results_hold_the_orderings_no_claim_words():
    """Orderings the deleted ``benchmarks/`` tree asserted that none of
    the 46 claims states, kept on the committed ``tiny`` results:
    PAR-6/2's burst drain against PB (Figs 6b/9b), every WH mechanism
    near minimal under UN (Fig 8a), and a strict win over Valiant under
    ADVG+h (Figs 5c/8c)."""
    from pathlib import Path

    from repro.experiments.reporting import load_result

    results = Path(__file__).resolve().parent.parent / "results"
    series = {f: load_result(results / f"{f}.json")["series"]
              for f in ("fig5c", "fig6b", "fig8a", "fig8c", "fig9b")}
    for fig, bound in (("fig6b", 0.80), ("fig9b", 0.85)):
        drains = series[fig]
        assert mean_drain(drains["par62"]) < bound * mean_drain(drains["pb"])
    sat = {m: saturation(p) for m, p in series["fig8a"].items()}
    assert min(sat["par62"], sat["rlm"], sat["pb"]) >= 0.75 * sat["minimal"]
    for fig, mechs in (("fig5c", ("par62", "olm", "rlm")),
                       ("fig8c", ("par62", "rlm"))):
        sat = {m: saturation(p) for m, p in series[fig].items()}
        assert all(sat[m] > sat["valiant"] for m in mechs), sat
