"""CLI behaviour."""

import json
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser, main
from repro.runplan import ResultCache


def test_parser_rejects_no_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4a" in out and "tab1" in out and "fig9b" in out


def test_run_tab1(capsys):
    assert main(["run", "tab1"]) == 0
    out = capsys.readouterr().out
    assert "parity-sign" in out
    assert "odd-" in out


def test_run_with_json_output(tmp_path, capsys):
    path = tmp_path / "tab1.json"
    assert main(["run", "tab1", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["id"] == "tab1"
    capsys.readouterr()


def test_run_json_dir(tmp_path, capsys):
    assert main(["run", "tab1", "--json-dir", str(tmp_path)]) == 0
    assert (tmp_path / "tab1.json").exists()
    capsys.readouterr()


def test_run_unknown_experiment():
    with pytest.raises(ValueError):
        main(["run", "figZZ"])


def test_list_components(capsys):
    assert main(["list-components"]) == 0
    out = capsys.readouterr().out
    for kind in ("topology:", "routing:", "flow-control:", "arbitration:",
                 "traffic-pattern:", "traffic-process:"):
        assert kind in out
    for name in ("dragonfly", "olm", "vct", "rr", "uniform", "bernoulli"):
        assert name in out
    # all three shipped fabrics are registered (the CI smoke relies on this)
    for fabric in ("dragonfly", "flattened_butterfly", "torus"):
        assert fabric in out


def test_point_command_round_trips_config(tmp_path, capsys):
    from repro.network.config import SimConfig

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SimConfig(h=2, routing="minimal").to_dict()))
    out_path = tmp_path / "point.json"
    assert main(["point", "--config", str(cfg_path), "--pattern", "uniform",
                 "--load", "0.2", "--warmup", "200", "--measure", "200",
                 "--json", str(out_path)]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["config"]["routing"] == "minimal"
    assert payload["result"]["delivered"] > 0
    assert "latency_p99" in payload["result"]


def test_point_emits_strict_json_for_empty_window(tmp_path, capsys):
    out_path = tmp_path / "empty.json"
    assert main(["point", "--load", "0.0", "--warmup", "0", "--measure", "5",
                 "--json", str(out_path)]) == 0
    text = out_path.read_text()
    assert "NaN" not in text  # strict-JSON consumers must be able to parse it
    payload = json.loads(text)
    assert payload["result"]["delivered"] == 0
    assert payload["result"]["mean_latency"] is None
    capsys.readouterr()


def test_point_command_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"rooting": "olm"}))
    assert main(["point", "--config", str(cfg_path), "--measure", "10"]) == 2
    assert "unknown SimConfig field" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["point", "sweep"])
def test_missing_config_file_exits_2(tmp_path, capsys, command):
    missing = tmp_path / "missing.json"
    assert main([command, "--config", str(missing), "--measure", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_point_engine_flag_selects_backend(tmp_path, capsys):
    out_path = tmp_path / "point.json"
    assert main(["point", "--engine", "auto", "--pattern", "uniform",
                 "--load", "0.2", "--warmup", "100", "--measure", "100",
                 "--json", str(out_path)]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["config"]["engine"] == "auto"
    assert payload["result"]["delivered"] > 0


def test_point_engine_flag_did_you_mean(capsys):
    assert main(["point", "--engine", "whel", "--measure", "10"]) == 2
    err = capsys.readouterr().err
    assert "unknown engine 'whel'" in err
    assert "did you mean 'wheel'?" in err


def _sweep_args(tmp_path, name, *extra):
    out = tmp_path / f"{name}.json"
    return out, ["sweep", "--routing", "minimal", "--pattern", "uniform",
                 "--loads", "0.1,0.2", "--warmup", "200", "--measure", "200",
                 "--json", str(out), *extra]


def test_sweep_command_writes_records(tmp_path, capsys):
    out, args = _sweep_args(tmp_path, "s1")
    assert main(args) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["config"]["routing"] == "minimal"
    assert [r["load"] for r in payload["records"]] == [0.1, 0.2]
    assert all(r["throughput"] > 0 for r in payload["records"])


def test_sweep_jobs_and_cache_reproduce_serial(tmp_path, capsys):
    cache = tmp_path / "runcache"
    out1, args1 = _sweep_args(tmp_path, "serial")
    out2, args2 = _sweep_args(tmp_path, "jobs2", "--jobs", "2")
    out3, args3 = _sweep_args(tmp_path, "replay", "--cache", str(cache))
    for args in (args1, args2, args3, args3):
        assert main(args) == 0
    capsys.readouterr()
    records = [json.loads(p.read_text())["records"] for p in (out1, out2, out3)]
    assert records[0] == records[1] == records[2]


def test_sweep_multi_seed_aggregates(tmp_path, capsys):
    out, args = _sweep_args(tmp_path, "ci", "--seeds", "2")
    assert main(args) == 0
    capsys.readouterr()
    records = json.loads(out.read_text())["records"]
    assert [r["load"] for r in records] == [0.1, 0.2]
    assert all(r["replicas"] == 2 and "throughput_ci" in r for r in records)


def test_sweep_rejects_bad_loads():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--loads", "0.1,abc"])


@pytest.mark.parametrize("argv, complaint", [
    (["run", "fig4a", "--jobs", "0"], "pool size >= 1 (1 runs inline), got '0'"),
    (["run", "fig4a", "--jobs", "-1"], "got '-1'"),
    (["sweep", "--jobs", "0"], "got '0'"),
    (["sweep", "--jobs", "-1"], "got '-1'"),
    (["sweep", "--jobs", "two"], "got 'two'"),
    # removed spellings: one pool size, one flag
    (["sweep", "--executor", "process"], "unrecognized arguments: --executor"),
    (["sweep", "--workers", "2"], "unrecognized arguments: --workers"),
    (["run", "fig4a", "--workers", "2"], "unrecognized arguments: --workers"),
])
def test_plan_commands_reject_bad_pool_arguments(argv, complaint, capsys):
    """``--jobs`` < 1 used to run serial silently; ``--executor`` and the
    ``--workers`` alias are gone (``serve --workers`` means threads and
    stays).  All are usage errors: exit 2, nothing simulated."""
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert complaint in capsys.readouterr().err


def test_sweep_payload_reports_jobs_not_an_executor(tmp_path, capsys):
    out, args = _sweep_args(tmp_path, "keys")
    assert main(args) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["jobs"] == 1 and "executor" not in payload


def test_sweep_defaults_to_auto_engine(tmp_path, capsys):
    out, args = _sweep_args(tmp_path, "auto")
    assert main(args) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["config"]["engine"] == "auto"
    # engine choice never leaks into the records: an explicit wheel run
    # lands byte-identical points
    out2, args2 = _sweep_args(tmp_path, "wheel", "--engine", "wheel")
    assert main(args2) == 0
    capsys.readouterr()
    wheel = json.loads(out2.read_text())
    assert wheel["config"]["engine"] == "wheel"
    assert wheel["records"] == payload["records"]


def test_sweep_engine_flag_did_you_mean(capsys):
    assert main(["sweep", "--engine", "whel", "--loads", "0.1"]) == 2
    assert "did you mean 'wheel'?" in capsys.readouterr().err


def test_sweep_config_file_seed_respected(tmp_path, capsys):
    from repro.network.config import SimConfig

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        SimConfig(h=2, routing="minimal", seed=42).to_dict()))
    out, args = _sweep_args(tmp_path, "seeded", "--config", str(cfg_path))
    assert main(args) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 42  # no --seed flag: file wins
    assert payload["seeds"] == [42]
    out2, args2 = _sweep_args(tmp_path, "override", "--config", str(cfg_path),
                              "--seed", "7")
    assert main(args2) == 0
    capsys.readouterr()
    assert json.loads(out2.read_text())["config"]["seed"] == 7


def test_sweep_topology_flag_selects_fabric(tmp_path, capsys):
    out, args = _sweep_args(tmp_path, "fb", "--topology", "flattened_butterfly",
                            "--scale", "smoke")
    assert main(args) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["config"]["topology"] == "flattened_butterfly"
    # sized to the smoke scale's canonical node count (36 routers x p=2)
    assert payload["config"]["fb_routers"] == 36
    assert all(r["throughput"] > 0 for r in payload["records"])


def test_sweep_topology_conflicts_with_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"routing": "minimal"}))
    _, args = _sweep_args(tmp_path, "conflict", "--config", str(cfg),
                          "--topology", "torus")
    assert main(args) == 2
    assert "not both" in capsys.readouterr().err


def test_sweep_topology_flag_rejects_unknown(tmp_path):
    _, args = _sweep_args(tmp_path, "bad", "--topology", "klein-bottle")
    assert main(args) == 2


# ----------------------------------------------- sharding / progress / cache
def test_shard_argument_rejects_bad_grammar(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--shard", "2"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig4a", "--shard", "3/2"])
    capsys.readouterr()


def test_sweep_shard_union_matches_serial(tmp_path, capsys):
    cache = tmp_path / "shardcache"
    full, args_full = _sweep_args(tmp_path, "full", "--loads", "0.1,0.2,0.3")
    out0, args0 = _sweep_args(tmp_path, "s0", "--loads", "0.1,0.2,0.3",
                              "--shard", "0/2", "--cache", str(cache))
    out1, args1 = _sweep_args(tmp_path, "s1", "--loads", "0.1,0.2,0.3",
                              "--shard", "1/2", "--cache", str(cache))
    for args in (args_full, args0, args1):
        assert main(args) == 0
    capsys.readouterr()
    serial = json.loads(full.read_text())["records"]
    p0 = json.loads(out0.read_text())
    p1 = json.loads(out1.read_text())
    assert p0["shard"] == "0/2" and p1["shard"] == "1/2"
    union = p0["records"] + p1["records"]
    canon = lambda rs: sorted(json.dumps(r, sort_keys=True) for r in rs)
    assert canon(union) == canon(serial)
    # the shared shard cache replays a full serial pass entirely
    replay, args_replay = _sweep_args(tmp_path, "replay3",
                                      "--loads", "0.1,0.2,0.3",
                                      "--cache", str(cache))
    assert main(args_replay) == 0
    capsys.readouterr()
    stats = json.loads((cache / "last_run.json").read_text())
    assert stats["hits"] == 3 and stats["misses"] == 0
    assert canon(json.loads(replay.read_text())["records"]) == canon(serial)


def test_sweep_progress_lines_on_stderr(tmp_path, capsys):
    _, args = _sweep_args(tmp_path, "prog", "--progress")
    assert main(args) == 0
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if ln.startswith("[")]
    assert len(lines) == 2  # one per point
    assert lines[0].startswith("[1/2]") and "computed" in lines[0]
    assert "seed=" in lines[0] and "load=0.1" in lines[0]


def test_run_progress_reports_cached_replays(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["run", "fig4a", "--scale", "smoke", "--cache", str(cache),
                 "--progress"]) == 0
    first = capsys.readouterr().err
    assert " computed " in first and " cached " not in first
    from repro.experiments.registry import clear_cache

    clear_cache()  # drop the in-process memo so the disk cache is consulted
    assert main(["run", "fig4a", "--scale", "smoke", "--cache", str(cache),
                 "--progress"]) == 0
    second = capsys.readouterr().err
    assert " cached " in second and " computed " not in second


def test_cache_stats_reports_entries_and_last_run(tmp_path, capsys):
    cache = tmp_path / "cache"
    _, args = _sweep_args(tmp_path, "warm", "--cache", str(cache))
    assert main(args) == 0
    capsys.readouterr()
    assert main(["cache", "stats", str(cache)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["entries"] == 2
    assert body["total_bytes"] > 0
    assert body["last_run"]["misses"] == 2 and body["last_run"]["hits"] == 0


def test_cache_stats_with_damaged_last_run_reports_null(tmp_path, capsys):
    cache = tmp_path / "cache"
    _, args = _sweep_args(tmp_path, "warm", "--cache", str(cache))
    assert main(args) == 0
    capsys.readouterr()
    (cache / "last_run.json").write_bytes(b"\xff\xfe\x00 not utf-8")
    assert main(["cache", "stats", str(cache)]) == 0
    out = capsys.readouterr().out
    assert '"last_run": null' in out
    assert json.loads(out)["entries"] == 2


def test_sweep_run_stats_sidecar_tracks_the_last_invocation(tmp_path, capsys):
    cache = tmp_path / "cache"
    _, args = _sweep_args(tmp_path, "stats", "--cache", str(cache))
    assert main(args) == 0
    assert ResultCache(cache).last_run_stats() == {"hits": 0, "misses": 2}
    assert main(args) == 0
    capsys.readouterr()
    assert ResultCache(cache).last_run_stats() == {"hits": 2, "misses": 0}


def test_identical_sweep_replay_leaves_run_stats_sidecar_untouched(tmp_path, capsys):
    """The sidecar is rewritten only when its counts change: an all-hit
    replay of the same sweep writes nothing, a different count does."""
    cache = tmp_path / "cache"
    _, args = _sweep_args(tmp_path, "same", "--cache", str(cache))
    assert main(args) == 0
    assert main(args) == 0  # all hits: 2/0
    sidecar = cache / ResultCache.RUN_STATS_NAME
    before = sidecar.stat()
    assert main(args) == 0  # the same 2/0 again
    after = sidecar.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)
    _, one = _sweep_args(tmp_path, "one", "--cache", str(cache),
                         "--loads", "0.1")
    assert main(one) == 0  # 1/0: rewritten
    capsys.readouterr()
    assert sidecar.stat().st_ino != before.st_ino
    assert ResultCache(cache).last_run_stats() == {"hits": 1, "misses": 0}
    assert not list(cache.glob("*.tmp")) and not list(cache.glob(".*.tmp"))


def _tiny_figure(loads, pattern="uniform"):
    """A catalogue row simulating one minimal h=2 curve over ``loads``."""
    from repro.experiments.figures import FigurePlan
    from repro.experiments.registry import ExperimentSpec
    from repro.network.config import paper_vct_config
    from repro.runplan import RunSpec, replica_seeds

    def build(scale, seed, seeds):
        spec = RunSpec(config=paper_vct_config(h=2, routing="minimal",
                                               seed=seed),
                       pattern=pattern, loads=loads, warmup=200, measure=200,
                       seeds=replica_seeds(seed, seeds), series="minimal")
        return FigurePlan([spec], pattern, ("minimal",))

    return ExperimentSpec(f"tiny-{pattern}-{len(loads)}", build, "throughput",
                          "tiny test figure", lambda result: [], "")


def _two_figure_catalogue(monkeypatch, second):
    from repro.experiments import cli, registry

    table = {row.id: row for row in (_tiny_figure((0.1, 0.2)), second)}
    monkeypatch.setattr(cli, "EXPERIMENTS", table)
    monkeypatch.setattr(registry, "EXPERIMENTS", table)


def test_run_all_sidecar_holds_the_whole_invocation(tmp_path, capsys, monkeypatch):
    """``run all --cache`` shares one cache object between its figures,
    so the sidecar holds the sum of their counts, not the last one's."""
    _two_figure_catalogue(monkeypatch, _tiny_figure((0.3, 0.4, 0.5)))
    cache = tmp_path / "cache"
    assert main(["run", "all", "--cache", str(cache)]) == 0
    assert ResultCache(cache).last_run_stats() == {"hits": 0, "misses": 5}
    from repro.experiments.registry import clear_cache

    clear_cache()  # drop the in-process memo so the disk cache is consulted
    assert main(["run", "all", "--cache", str(cache)]) == 0
    capsys.readouterr()
    assert ResultCache(cache).last_run_stats() == {"hits": 5, "misses": 0}


def test_a_run_with_failed_points_still_saves_its_counts(tmp_path, capsys, monkeypatch):
    _two_figure_catalogue(monkeypatch, _tiny_figure((0.3,), pattern="bogus"))
    cache = tmp_path / "cache"
    assert main(["run", "all", "--cache", str(cache)]) == 1
    assert "bogus" in capsys.readouterr().err
    assert ResultCache(cache).last_run_stats() == {"hits": 0, "misses": 3}


def test_an_interrupted_run_still_saves_its_counts(tmp_path, capsys, monkeypatch):
    from repro.experiments import reporting

    class Interrupting:
        def __call__(self, outcome):
            if outcome.completed >= 2:
                raise KeyboardInterrupt

    _two_figure_catalogue(monkeypatch, _tiny_figure((0.3, 0.4, 0.5)))
    monkeypatch.setattr(reporting, "ProgressPrinter", Interrupting)
    cache = tmp_path / "cache"
    assert main(["run", "all", "--cache", str(cache), "--progress"]) == 130
    assert "interrupted" in capsys.readouterr().err
    # every lookup of the first figure happens before its points run
    assert ResultCache(cache).last_run_stats() == {"hits": 0, "misses": 2}


def test_point_jsonl_bytes_are_pinned(tmp_path, capsys):
    """``point --jsonl`` writes the series records with the identifying
    fields in the meta row; the file is pinned byte for byte."""
    out = tmp_path / "series.jsonl"
    assert main(["point", "--pattern", "advg+1", "--load", "0.3",
                 "--warmup", "200", "--measure", "400", "--series", "100",
                 "--jsonl", str(out)]) == 0
    capsys.readouterr()
    pinned = Path(__file__).parent / "data" / "point_series.jsonl"
    assert out.read_bytes() == pinned.read_bytes()


def test_sweep_with_a_directory_for_last_run_still_writes_its_json(tmp_path, capsys):
    """An unwritable stats sidecar costs the sidecar, not the plan: the
    records are cached and ``--json`` is written, and ``cache stats``
    reports no last run."""
    cache = tmp_path / "cache"
    (cache / "last_run.json").mkdir(parents=True)
    out, args = _sweep_args(tmp_path, "dir", "--cache", str(cache))
    assert main(args) == 0
    assert len(json.loads(out.read_text())["records"]) == 2
    assert (cache / "last_run.json").is_dir()
    assert not list(cache.glob(".*.tmp"))  # the temp file is removed
    capsys.readouterr()
    assert main(["cache", "stats", str(cache)]) == 0
    out = capsys.readouterr().out
    assert '"last_run": null' in out
    assert json.loads(out)["entries"] == 2


def test_cache_prune_cli_age_and_dry_run(tmp_path, capsys):
    cache = tmp_path / "cache"
    _, args = _sweep_args(tmp_path, "warm", "--cache", str(cache))
    assert main(args) == 0
    capsys.readouterr()
    assert main(["cache", "prune", str(cache), "--older-than", "0s",
                 "--dry-run"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["removed"] == 2 and body["dry_run"] is True
    assert main(["cache", "stats", str(cache)]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 2  # intact
    assert main(["cache", "prune", str(cache), "--older-than", "1d"]) == 0
    assert json.loads(capsys.readouterr().out)["removed"] == 0
    assert main(["cache", "prune", str(cache), "--older-than", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["removed"] == 2


def test_cache_prune_keep_keys_protects_plan(tmp_path, capsys):
    cache = tmp_path / "cache"
    _, args = _sweep_args(tmp_path, "warm", "--cache", str(cache))
    assert main(args) == 0
    capsys.readouterr()
    # rebuild the very plan the sweep ran, in the serve submission shape
    from repro.experiments.presets import cross_topology_config, get_scale

    scale = get_scale("tiny")
    config = cross_topology_config("dragonfly", scale=scale,
                                   routing="minimal", seed=1,
                                   flow_control="vct")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"spec": {
        "config": config.to_dict(), "pattern": "uniform",
        "loads": [0.1, 0.2], "warmup": 200, "measure": 200}}))
    assert main(["cache", "prune", str(cache), "--older-than", "0s",
                 "--keep-keys", str(plan)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["protected"] == 2 and body["removed"] == 0


def test_cache_prune_requires_criterion(tmp_path, capsys):
    assert main(["cache", "prune", str(tmp_path)]) == 2
    assert "refusing to prune" in capsys.readouterr().err


def test_cache_prune_rejects_bad_age(tmp_path, capsys):
    assert main(["cache", "prune", str(tmp_path), "--older-than", "soon"]) == 2
    assert "--older-than" in capsys.readouterr().err
