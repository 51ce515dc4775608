"""``verify-results`` CLI behaviour: verdicts, reports, error paths.

Exit-code contract: 0 when every invariant passes, 1 when any check
fails, 2 on usage errors (missing file, malformed JSON, unknown figure
id) — each with an actionable message on stderr.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.invariants import dragonfly_nodes
from repro.experiments.cli import main

RESULTS = Path(__file__).parent.parent / "results"


def _figure_payload(throughput=0.3, **record_over):
    nodes = dragonfly_nodes(2)
    rec = {
        "pattern": "uniform", "routing": "minimal", "h": 2, "load": 0.3,
        "throughput": throughput,
        "delivered": 2700, "delivered_phits": throughput * nodes * 1000,
        "generated": 2700, "start_cycle": 1000, "end_cycle": 2000,
        "mean_latency": 60.0, "latency_p50": 55, "latency_p95": 90,
        "latency_p99": 110, "max_latency": 150, "mean_hops": 2.5,
    }
    rec.update(record_over)
    return {"id": "fig4a", "description": "synthetic fig4a",
            "series": {"minimal": [rec]}}


def _write(tmp_path, payload, name="result.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_valid_file_passes_with_report(tmp_path, capsys):
    path = _write(tmp_path, _figure_payload())
    assert main(["verify-results", path]) == 0
    out = capsys.readouterr().out
    assert "all ✅" in out
    assert "## ✅ fig4a" in out
    # every registered invariant is listed, applicable or not
    for name in ("counters", "capacity_bounds", "drain_conservation",
                 "ci_sanity"):
        assert name in out


def test_checked_in_results_directory_passes(capsys):
    assert main(["verify-results", str(RESULTS)]) == 0
    out = capsys.readouterr().out
    assert "all ✅" in out
    for fig in ("fig4a", "fig6b", "tab1", "trans1", "xtopo1"):
        assert f"## ✅ {fig}" in out


def test_corrupted_result_fails_with_exit_1(tmp_path, capsys):
    path = _write(tmp_path, _figure_payload(throughput=1.7))
    assert main(["verify-results", path]) == 1
    captured = capsys.readouterr()
    assert "❌" in captured.out
    assert "throughput_bounds" in captured.out
    assert "check(s) failed" in captured.err


def test_report_file_written(tmp_path, capsys):
    path = _write(tmp_path, _figure_payload())
    report = tmp_path / "out" / "verify.md"
    assert main(["verify-results", path, "--report", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out


def test_fail_fast_stops_at_first_failing_file(tmp_path, capsys):
    bad = _write(tmp_path, _figure_payload(throughput=1.7), "a_bad.json")
    good = _write(tmp_path, _figure_payload(), "b_good.json")
    assert main(["verify-results", "--fail-fast", bad, good]) == 1
    out = capsys.readouterr().out
    assert "1 result(s)" in out  # second file never verified


def test_tolerance_flag_widens_bounds(tmp_path, capsys):
    # (g-1)/g = 8/9; 0.95 fails at 5% tolerance but passes at 30%
    payload = _figure_payload(throughput=0.95)
    path = _write(tmp_path, payload)
    assert main(["verify-results", path]) == 1
    capsys.readouterr()
    assert main(["verify-results", path, "--tolerance", "0.3"]) == 0
    capsys.readouterr()
    assert main(["verify-results", path, "--tolerance", "-1"]) == 2
    assert "--tolerance" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["verify-results", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "no such file" in err and "results/" in err


def test_empty_directory_exits_2(tmp_path, capsys):
    assert main(["verify-results", str(tmp_path)]) == 2
    assert "no *.json result files" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"id": "fig4a", "series": {')
    assert main(["verify-results", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_non_object_payload_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert main(["verify-results", str(path)]) == 2
    assert "result object" in capsys.readouterr().err


def test_unknown_figure_id_exits_2(tmp_path, capsys):
    path = _write(tmp_path, dict(_figure_payload(), id="figZZ"))
    assert main(["verify-results", path]) == 2
    err = capsys.readouterr().err
    assert "unknown figure id 'figZZ'" in err
    assert "fig4a" in err and "tab1" in err  # lists the known ids


def test_malformed_series_exits_2(tmp_path, capsys):
    path = _write(tmp_path, dict(_figure_payload(), series={"a": ["x"]}))
    assert main(["verify-results", path]) == 2
    assert "is not a record" in capsys.readouterr().err


def test_live_rows_say_which_engine_path_they_took(tmp_path, capsys):
    path = _write(tmp_path, _figure_payload())
    assert main(["verify-results", path, "--live", "--engines", "wheel,auto",
                 "--topologies", "dragonfly"]) == 0
    out = capsys.readouterr().out
    assert "## ✅ live:dragonfly/wheel" in out
    assert "engine wheel (wheel: engine='wheel')" in out
    # smoke scale is h=2: 72 nodes x 0.3 / 8 phits — the wheel's point
    assert ("## ✅ live:dragonfly/auto" in out and "engine auto (wheel: "
            "offered 2.7 flits/cycle < 10 (vct))" in out)
    assert "little_law" not in out  # live gate failures would be listed



def test_live_record_identity_failure_is_reported(tmp_path, monkeypatch, capsys):
    """An instrumented run whose record differs from the plain run's is
    a ❌ ``record_identity`` verdict and exit 1."""
    import repro.facade

    run_point = repro.facade.run_point
    monkeypatch.setattr(repro.facade, "run_point", lambda *a, **kw: dict(
        run_point(*a, **kw), throughput=-1.0))
    path = _write(tmp_path, _figure_payload())
    assert main(["verify-results", path, "--live", "--engines", "wheel",
                 "--topologies", "dragonfly"]) == 1
    captured = capsys.readouterr()
    assert "## ❌ live:dragonfly/wheel" in captured.out
    assert "| record_identity | 0/1 | ❌ |" in captured.out
    assert "- ❌ `dragonfly/wheel` **record_identity**:" in captured.out
    assert "1 invariant check(s) failed" in captured.err


def test_run_verify_flag_passes_on_tab1(capsys):
    assert main(["run", "tab1", "--verify"]) == 0
    captured = capsys.readouterr()
    assert "Invariant verification" in captured.err
    assert "tab1" in captured.out
