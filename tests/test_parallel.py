"""Parallel sweep execution through the run-plan layer.

Historic home of the ``repro.experiments.parallel`` compat tests; that
shim is gone and the same guarantees are now pinned directly against
:mod:`repro.runplan`: identical records under any pool size, result
order preserved, and figures unchanged by ``jobs``.
"""

import pytest

from repro.network.config import paper_vct_config
from repro.runplan import RunPoint, RunSpec, execute, execute_points


def test_parallel_matches_serial():
    spec = RunSpec(config=paper_vct_config(h=2, routing="minimal", seed=3),
                   pattern="uniform", loads=(0.1, 0.3), warmup=300, measure=300)
    assert execute(spec, jobs=2) == execute(spec)


def test_run_points_order_preserved():
    cfg = paper_vct_config(h=2, routing="minimal", seed=1)
    points = [RunPoint(config=cfg, pattern="uniform", load=load,
                       warmup=200, measure=200)
              for load in (0.3, 0.1, 0.2)]
    results = execute_points(points, jobs=3)
    assert [r["load"] for r in results] == [0.3, 0.1, 0.2]


def test_single_point_short_circuits_the_pool():
    cfg = paper_vct_config(h=2, routing="minimal", seed=1)
    point = RunPoint(config=cfg, pattern="uniform", load=0.1,
                     warmup=200, measure=200)
    results = execute_points([point], jobs=4)
    assert len(results) == 1


def test_multi_series_over_one_pool():
    loads = (0.1, 0.2)
    points = [
        RunPoint(config=paper_vct_config(h=2, routing=name, seed=2),
                 pattern="advg+1", load=load, warmup=250, measure=250,
                 series=name)
        for name in ("minimal", "valiant")
        for load in loads
    ]
    from repro.runplan import series_map

    series = series_map(execute_points(points, jobs=2))
    assert set(series) == {"minimal", "valiant"}
    for pts in series.values():
        assert [p["load"] for p in pts] == list(loads)


@pytest.mark.parametrize("jobs", [1, 2])
def test_figure_runner_workers_equivalent(jobs):
    from repro.experiments import run_experiment
    from repro.experiments.registry import clear_cache

    # ``jobs`` is not in the memo key (it cannot change a record), so
    # drop the memo or the jobs=2 leg would be a replay, not a pool run
    clear_cache()
    res = run_experiment("fig5b", scale="smoke", seed=4, jobs=jobs)
    sat = {m: max(p["throughput"] for p in pts) for m, pts in res["series"].items()}
    assert all(v > 0 for v in sat.values())
    if jobs == 1:
        test_figure_runner_workers_equivalent.cache = res  # type: ignore[attr-defined]
    else:
        assert res == test_figure_runner_workers_equivalent.cache  # type: ignore[attr-defined]
