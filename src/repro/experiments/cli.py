"""Command-line interface.

Examples::

    dragonfly-repro list
    dragonfly-repro list-components
    dragonfly-repro run fig5c --scale tiny --seed 2
    dragonfly-repro run all --scale smoke --json-dir results/
    dragonfly-repro run fig5a --jobs 4 --seeds 3 --cache .runcache
    dragonfly-repro point --pattern advg+h --load 0.3 --config cfg.json
    dragonfly-repro sweep --routing olm --pattern uniform --loads 0.1,0.3,0.5 \\
        --jobs 4 --seeds 3 --cache .runcache
    dragonfly-repro verify-results results/
    dragonfly-repro verify-results --live --report verify.md
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.experiments.registry import (
    EXPERIMENTS,
    FigureInterrupted,
    run_experiment,
)
from repro.experiments.reporting import format_result, save_result
from repro.metrics.hub import strict_jsonable


def _loads_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--loads wants comma-separated floats, got {text!r}") from None


def _shard_arg(text: str) -> str:
    from repro.runplan import parse_shard

    try:
        parse_shard(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return text


def _jobs_arg(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"--jobs wants a pool size >= 1 (1 runs inline), got {text!r}")
    return jobs


def _add_plan_arguments(cmd: argparse.ArgumentParser) -> None:
    """Run-plan execution knobs shared by ``run`` and ``sweep``."""
    cmd.add_argument("--jobs", type=_jobs_arg, default=1,
                     help="process-pool size (1 = inline, no pool)")
    cmd.add_argument("--seeds", type=int, default=1,
                     help="seed replicas per point; >1 reports mean ± 95%% CI")
    cmd.add_argument("--cache", metavar="DIR",
                     help="content-addressed result cache directory "
                          "(hits are replayed instead of re-simulated)")
    cmd.add_argument("--shard", type=_shard_arg, metavar="I/N",
                     help="execute only shard I of N (deterministic partition "
                          "of the plan by content hash; run every shard with "
                          "a shared --cache, then merge — the cache union is "
                          "byte-identical to a serial run)")
    cmd.add_argument("--progress", action="store_true",
                     help="print one line per completed point to stderr "
                          "(status, content-hash prefix, seed, ETA)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dragonfly-repro",
        description="Regenerate the tables and figures of García et al., ICPP 2013.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("list-components",
                   help="list every registered component (topologies, routings, "
                        "flow controls, arbiters, traffic) with descriptions")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (see 'list') or 'all'")
    run.add_argument("--scale", default="tiny",
                     help="tiny (h=2, default) | smoke | small (h=3) | paper (h=8, slow)")
    run.add_argument("--seed", type=int, default=1)
    _add_plan_arguments(run)
    run.add_argument("--json", help="write the result to this JSON file")
    run.add_argument("--json-dir", help="write one JSON per experiment into this directory")
    run.add_argument("--svg-dir", help="render one SVG figure per experiment into this directory")
    run.add_argument("--verify", action="store_true",
                     help="run the physical-invariant verifier "
                          "(repro.analysis.invariants) over every generated "
                          "figure; exit 1 if any check fails")
    point = sub.add_parser(
        "point", help="run one steady-state point through the Session API")
    point.add_argument("--config",
                       help="SimConfig JSON file (see SimConfig.to_dict); "
                            "defaults apply when omitted")
    point.add_argument("--pattern", default="uniform",
                       help="traffic pattern spec (uniform, advg+h, mixed:40, "
                            "or any registered pattern name)")
    point.add_argument("--load", type=float, default=0.5,
                       help="offered load in phits/(node*cycle)")
    point.add_argument("--engine", default=None,
                       help="engine (wheel, auto, reference; see "
                            "list-components): auto attaches the numpy "
                            "array core when the point qualifies and is a "
                            "wheel run otherwise; default: the --config "
                            "file's engine, else wheel")
    point.add_argument("--warmup", type=int, default=2000)
    point.add_argument("--measure", type=int, default=2000)
    point.add_argument("--auto-warmup", action="store_true",
                       help="replace the blind warm-up with the auto "
                            "steady-state rule (--warmup becomes the cap)")
    point.add_argument("--series", type=int, metavar="BUCKET", default=None,
                       help="collect BUCKET-cycle time series over the "
                            "measurement window (throughput, latency "
                            "percentiles, occupancy, misroute rates)")
    point.add_argument("--probe", action="store_true",
                       help="include end-of-run occupancy and "
                            "injection-backlog snapshots in the payload")
    point.add_argument("--jsonl", metavar="FILE",
                       help="write the series record stream (meta/bucket/"
                            "summary rows) as JSONL; implies --series 250 "
                            "unless --series is given")
    point.add_argument("--json", help="write config + result JSON to this file")
    sweep = sub.add_parser(
        "sweep", help="run a declarative load sweep through the run-plan layer")
    sweep.add_argument("--config",
                       help="SimConfig JSON file; overrides --preset/--routing")
    sweep.add_argument("--preset", default="vct", choices=("vct", "wh"),
                       help="paper flow-control preset (default vct)")
    sweep.add_argument("--topology", default=None,
                       help="fabric (dragonfly default | flattened_butterfly "
                            "| torus | any registered topology), sized to "
                            "the scale's node count like the xtopo1 figure; "
                            "incompatible with --config")
    sweep.add_argument("--routing", default="olm",
                       help="routing mechanism (see list-components)")
    sweep.add_argument("--engine", default="auto",
                       help="engine for every point (default auto: the "
                            "numpy array core where it wins the point — "
                            "minimal routing with rr/age arbitration and, "
                            "decided at the point's first cycle, enough "
                            "offered load for the fabric's size — and a "
                            "plain, numpy-free wheel run everywhere else; "
                            "pass wheel to keep the array core out — "
                            "records and cache keys are engine-invariant; "
                            "overrides the --config file's engine)")
    sweep.add_argument("--pattern", default="uniform",
                       help="traffic pattern spec (uniform, advg+h, mixed:40, ...)")
    sweep.add_argument("--loads", type=_loads_list,
                       help="comma-separated offered loads "
                            "(default: the scale's load grid)")
    sweep.add_argument("--scale", default="tiny",
                       help="scale preset fixing h and the measurement windows")
    sweep.add_argument("--warmup", type=int, help="override the scale's warm-up cycles")
    sweep.add_argument("--measure", type=int, help="override the scale's measure cycles")
    sweep.add_argument("--auto-warmup", action="store_true",
                       help="auto-detect steady state per point instead of "
                            "a blind warm-up (the warm-up cycles become a cap)")
    sweep.add_argument("--seed", type=int, default=None,
                       help="base seed (default: the --config file's seed, else 1)")
    _add_plan_arguments(sweep)
    sweep.add_argument("--raw", action="store_true",
                       help="emit one record per seed instead of mean ± CI")
    sweep.add_argument("--json", help="write the sweep payload to this JSON file")
    serve = sub.add_parser(
        "serve", help="run the simulation service (HTTP API over the run-plan layer)",
        description="Serve simulations over HTTP: POST /v1/jobs submits a "
                    "point or RunSpec grid, GET /v1/jobs/{id}/stream follows "
                    "the live metrics rows as JSONL, and identical concurrent "
                    "submissions coalesce onto one execution (content-hash "
                    "dedupe).  Uses uvicorn when installed, else a bundled "
                    "stdlib server.  See docs/SERVICE.md.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8000, help="bind port")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persistent content-addressed result cache, "
                            "shareable with offline 'run'/'sweep' --cache runs "
                            "(default: in-memory, lost on restart)")
    serve.add_argument("--workers", type=int, default=2,
                       help="simulation worker threads (jobs running at once)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="jobs allowed to wait; submissions beyond it are "
                            "rejected with HTTP 429")
    serve.add_argument("--job-timeout", type=float, default=300.0, metavar="SECONDS",
                       help="wall-clock budget per job before it is cancelled")
    serve.add_argument("--retry-after", type=int, default=2, metavar="SECONDS",
                       help="Retry-After header value on 429 responses")
    serve.add_argument("--bucket", type=int, default=250, metavar="CYCLES",
                       help="stream resolution for points without their own bucket")
    serve.add_argument("--max-points", type=int, default=512,
                       help="max run points one submission may expand to")
    serve.add_argument("--keep-jobs", type=int, default=256,
                       help="finished jobs retained for status/stream replay")
    serve.add_argument("--point-retries", type=int, default=1,
                       help="extra attempts per failing point before it is "
                            "quarantined into the job's point_errors")
    serve.add_argument("--verify", default="flow", choices=("flow", "full"),
                       help="per-point verification gate: 'flow' checks "
                            "flow conservation only, 'full' enforces the "
                            "whole physical-invariant set (Little's law, "
                            "bounds, occupancy); record bytes are identical "
                            "either way")
    vr = sub.add_parser(
        "verify-results",
        help="verify physical invariants over result JSON files (or live runs)",
        description="Prove result numbers are physically possible: flow "
                    "conservation, Little's law, capacity/bisection bounds, "
                    "latency floors, monotone counters and CI sanity over "
                    "every record of each figure payload (see "
                    "docs/VERIFICATION.md).  Prints a per-figure ✅/❌ "
                    "Markdown report; exits 0 when every check passes, 1 on "
                    "any failure, 2 on usage errors.")
    vr.add_argument("paths", nargs="*", default=["results"],
                    help="result JSON files or directories of them "
                         "(default: results/)")
    vr.add_argument("--tolerance", type=float, default=None,
                    help="relative tolerance for bound checks (default 0.05)")
    vr.add_argument("--fail-fast", action="store_true",
                    help="stop at the first result file with failures")
    vr.add_argument("--report", metavar="FILE",
                    help="also write the Markdown report to this file")
    vr.add_argument("--live", action="store_true",
                    help="additionally re-run a live engine × fabric matrix: "
                         "each combination runs twice (plain and instrumented "
                         "with the full invariant gate) and the two records "
                         "must be byte-identical")
    vr.add_argument("--engines", default="wheel,auto", metavar="LIST",
                    help="comma-separated engines for --live (wheel, auto, "
                         "reference)")
    vr.add_argument("--topologies", metavar="LIST",
                    default="dragonfly,flattened_butterfly,torus",
                    help="comma-separated fabrics for --live")
    vr.add_argument("--scale", default="smoke",
                    help="scale preset for --live runs (default smoke)")
    vr.add_argument("--load", type=float, default=0.3,
                    help="offered load for --live runs")
    cache = sub.add_parser(
        "cache", help="inspect or prune a result cache directory",
        description="Operate on the content-addressed result cache shared by "
                    "run/sweep --cache and serve --cache-dir: 'stats' reports "
                    "entry counts, bytes on disk and the hits and misses of "
                    "the last run/sweep invocation; 'prune' garbage-collects "
                    "old entries while protecting every key of a live plan.")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser(
        "stats", help="entry count, bytes, last run/sweep hits and misses")
    stats.add_argument("dir", help="cache directory")
    prune = cache_sub.add_parser("prune", help="remove stale cache entries")
    prune.add_argument("dir", help="cache directory")
    prune.add_argument("--older-than", metavar="AGE",
                       help="remove entries older than AGE (e.g. 45s, 30m, "
                            "12h, 7d; a bare number means seconds)")
    prune.add_argument("--keep-keys", metavar="PLAN.json",
                       help="never remove a key this plan would replay "
                            "(a submission JSON: {\"points\": [...]} or "
                            "{\"spec\"/\"specs\": ...}, same schema as the "
                            "serve API)")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what would be removed without deleting")
    return p


def _list_components() -> None:
    from repro.registry import all_registries

    for kind, registry in all_registries().items():
        print(f"{kind}:")
        described = registry.describe()
        if not described:
            print("  (none registered)")
        for name, description in described.items():
            print(f"  {name:12} {description}")
        print()


def _run_point(args) -> int:
    from repro.facade import session
    from repro.network.config import SimConfig

    try:
        if args.config:
            config = SimConfig.from_dict(json.loads(Path(args.config).read_text()))
        else:
            config = SimConfig()
        if args.engine is not None:
            config = config.with_(engine=args.engine)
    except (ValueError, OSError) as e:  # unknown engine, unreadable --config
        print(f"error: {e}", file=sys.stderr)
        return 2
    s = session(config, pattern=args.pattern, load=args.load,
                bucket=250 if args.series is None else args.series)
    if args.auto_warmup:
        s.warmup_until_steady(max_cycles=args.warmup)
    else:
        s.warmup(args.warmup)
    meta = {"pattern": args.pattern, "load": args.load,
            "config_hash": config.content_hash()}
    sr = s.measure_series(args.measure, meta=meta)
    payload = {
        "config": config.to_dict(),
        "pattern": args.pattern,
        "load": args.load,
        "result": strict_jsonable(sr.result.to_dict()),
    }
    if args.auto_warmup:
        payload["auto_warmup"] = strict_jsonable(dict(s.auto_warmup))
    if args.series is not None or args.jsonl:
        payload["series"] = strict_jsonable({
            "bucket": sr.bucket, "start_cycle": sr.start_cycle, **sr.series})
    if args.probe:
        from repro.metrics.probes import injection_backlog, occupancy_snapshot

        payload["probe"] = strict_jsonable({
            "occupancy": occupancy_snapshot(s.sim),
            "injection_backlog": injection_backlog(s.sim),
        })
    if args.jsonl:
        payload["jsonl"] = str(s.hub.write_jsonl(args.jsonl, meta=meta))
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.json:
        save_result(payload, args.json)
    return 0


def _progress_callback(args):
    """The ``on_result`` hook the plan commands share (``--progress``)."""
    if not getattr(args, "progress", False):
        return None
    from repro.experiments.reporting import ProgressPrinter

    return ProgressPrinter()


@contextlib.contextmanager
def _invocation_cache(directory):
    """The one :class:`~repro.runplan.ResultCache` every plan of a
    ``run`` / ``sweep`` invocation shares (``None`` without ``--cache``).

    Its hit and miss totals are saved to the ``last_run.json`` sidecar
    once, however the invocation ends — success, failed points or an
    interrupt — so ``cache stats`` reports the whole invocation (every
    figure of a ``run all``).  Library calls never write the sidecar.
    """
    if directory is None:
        yield None
        return
    from repro.runplan import ResultCache

    cache = ResultCache(directory)
    try:
        yield cache
    finally:
        cache.save_run_stats(cache.hits, cache.misses)


def _print_plan_errors(exc) -> None:
    """Render a :class:`PlanExecutionError`'s quarantined points."""
    print(f"error: {exc}", file=sys.stderr)
    for err in exc.errors:
        detail = err.describe()
        print(f"  point {detail['index']} ({detail.get('key', '?')!s:.12}…): "
              f"{detail['error']}: {detail['message']} "
              f"[attempts={detail['attempts']}"
              f"{', worker death' if detail['worker_death'] else ''}]",
              file=sys.stderr)


def _run_sweep(args) -> int:
    from repro.experiments.presets import cross_topology_config, get_scale
    from repro.network.config import SimConfig
    from repro.runplan import (
        PlanExecutionError,
        RunSpec,
        aggregate_replicas,
        execute,
        replica_seeds,
    )

    scale = get_scale(args.scale)
    try:
        if args.config:
            if args.topology is not None:
                raise ValueError(
                    "--config carries its own topology; pass one of "
                    "--config/--topology, not both"
                )
            config = SimConfig.from_dict(json.loads(Path(args.config).read_text()))
            if args.seed is not None:
                config = config.with_(seed=args.seed)
        else:
            config = cross_topology_config(
                args.topology or "dragonfly", scale=scale, routing=args.routing,
                seed=1 if args.seed is None else args.seed,
                flow_control=args.preset)
        config = config.with_(engine=args.engine)
    except (ValueError, OSError) as e:  # unknown engine, unreadable --config
        print(f"error: {e}", file=sys.stderr)
        return 2
    loads = args.loads or scale.loads_for(args.pattern)
    spec = RunSpec(
        config=config, pattern=args.pattern, loads=tuple(loads),
        warmup=scale.warmup if args.warmup is None else args.warmup,
        measure=scale.measure if args.measure is None else args.measure,
        seeds=replica_seeds(config.seed, args.seeds),
        steady=args.auto_warmup,
        series=config.routing,
    )
    aggregate = not args.raw and args.seeds > 1
    progress = _progress_callback(args)
    landed: list[dict] = []

    def collect(outcome) -> None:
        if outcome.record is not None:
            landed.append(outcome.record)
        if progress is not None:
            progress(outcome)

    def payload_for(records, *, partial: bool = False) -> dict:
        body = {
            "config": config.to_dict(),
            "pattern": spec.pattern,
            "loads": list(spec.loads),
            "warmup": spec.warmup,
            "measure": spec.measure,
            "seeds": list(spec.seeds),
            "auto_warmup": spec.steady,
            "jobs": args.jobs,
            "records": records,
        }
        if args.shard is not None:
            body["shard"] = args.shard
        if partial:
            body["partial"] = True
        return strict_jsonable(body)

    try:
        with _invocation_cache(args.cache) as cache:
            records = execute(spec, jobs=args.jobs, cache=cache,
                              aggregate=aggregate, shard=args.shard,
                              on_result=collect)
    except KeyboardInterrupt:
        payload = payload_for(aggregate_replicas(landed) if aggregate
                              else list(landed), partial=True)
        print(json.dumps(payload, indent=2, sort_keys=True))
        if args.json:
            save_result(payload, args.json)
        print(f"interrupted: {len(landed)} point(s) completed and cached; "
              "rerun with the same --cache to resume", file=sys.stderr)
        return 130
    except PlanExecutionError as e:
        _print_plan_errors(e)
        return 1
    payload = payload_for(records)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.json:
        save_result(payload, args.json)
    return 0


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _parse_age(text: str) -> float:
    """``45s`` / ``30m`` / ``12h`` / ``7d`` (bare numbers are seconds)."""
    text = text.strip()
    unit = 1.0
    if text and text[-1].lower() in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1].lower()]
        text = text[:-1]
    try:
        seconds = float(text) * unit
    except ValueError:
        raise ValueError(
            f"bad --older-than value {text!r}: want AGE like 45s, 30m, "
            "12h, 7d or a bare number of seconds") from None
    if seconds < 0:
        raise ValueError("--older-than must be >= 0")
    return seconds


def _run_cache(args) -> int:
    from repro.runplan import ResultCache, plan_keys

    cache = ResultCache(args.dir)
    if args.cache_command == "stats":
        payload = {
            "root": str(cache.root),
            "entries": len(cache),
            "total_bytes": cache.total_bytes(),
            "last_run": cache.last_run_stats(),
        }
        print(json.dumps(strict_jsonable(payload), indent=2, sort_keys=True))
        return 0
    # prune
    try:
        older_than = (None if args.older_than is None
                      else _parse_age(args.older_than))
        keep = None
        if args.keep_keys:
            from repro.serve.protocol import parse_submission

            plan = json.loads(Path(args.keep_keys).read_text())
            keep = plan_keys(parse_submission(plan, max_points=1_000_000).points)
        summary = cache.prune(older_than=older_than, keep=keep,
                              dry_run=args.dry_run)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _run_serve(args) -> int:
    from repro.serve import ServeSettings, create_app

    try:
        if not 1 <= args.port <= 65535:
            raise ValueError(f"--port must be between 1 and 65535 (got {args.port})")
        settings = ServeSettings(
            cache_dir=args.cache_dir, workers=args.workers,
            queue_limit=args.queue_limit, job_timeout=args.job_timeout,
            retry_after=args.retry_after, bucket=args.bucket,
            max_points=args.max_points, keep_jobs=args.keep_jobs,
            point_retries=args.point_retries, verify=args.verify)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    app = create_app(settings)
    try:
        import uvicorn
    except ImportError:
        from repro.serve.httpd import run

        run(app, args.host, args.port)
    else:  # pragma: no cover - uvicorn not in the pinned environment
        uvicorn.run(app, host=args.host, port=args.port)
    return 0


def _result_files(paths: list[str]) -> list[Path]:
    """Expand verify-results path arguments to result JSON files.

    Raises ``ValueError`` with an actionable message (exit 2 material)
    for a missing path or a directory with nothing to verify.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob("*.json"))
            if not found:
                raise ValueError(
                    f"no *.json result files in directory {path}; "
                    "generate some with 'run all --json-dir' first")
            files.extend(found)
        elif path.is_file():
            files.append(path)
        else:
            raise ValueError(
                f"no such file or directory: {path} — pass result JSON "
                "files or a directory of them (default: results/)")
    return files


def _load_result(path: Path) -> dict:
    """One figure payload from disk, validated enough to verify.

    Unknown figure ids are rejected (exit 2): an id outside the
    experiment registry means the file is not a result this tool knows
    how to interpret, not a failing result.
    """
    try:
        result = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON ({e}); was the file "
                         "truncated by an interrupted run?") from None
    if not isinstance(result, dict):
        raise ValueError(f"{path} does not hold a result object "
                         "(got a JSON " + type(result).__name__ + ")")
    figure = result.get("id")
    if figure not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        raise ValueError(
            f"{path}: unknown figure id {figure!r}; known ids: {known} "
            "(is this a sweep/point payload rather than a figure result?)")
    return result


def _verify_live_matrix(engines, topologies, *, scale_name: str, load: float,
                        tolerance: float) -> list:
    """Re-run an engine × fabric matrix under the live invariant gate.

    Each combination runs the same steady point twice — plain, and
    instrumented with the full invariant set enforced — and the two
    records must be byte-identical (the observation-only guarantee the
    whole shared cache rests on).  Returns one
    :class:`~repro.analysis.invariants.ResultReport` per combination;
    its heading says which engine path the plain run took and why (an
    ``auto`` row is a core run only where the core wins the point).
    """
    from repro.analysis.invariants import Check, InvariantViolation, verify_result
    from repro.experiments.presets import cross_topology_config, get_scale
    from repro.facade import point_record, run_point, session
    from repro.runplan.cache import canonical_record_json

    scale = get_scale(scale_name)
    # ≥4 completed default-width buckets so Little's law actually applies
    measure = max(scale.measure, 1000)
    reports = []
    for topo in topologies:
        for engine in engines:
            label = f"{topo}/{engine}"
            config = cross_topology_config(
                topo, scale=scale, routing="minimal").with_(engine=engine)
            # ``run_point``, spelt out to read the path off the simulator
            s = session(config, pattern="uniform", load=load)
            try:
                plain = point_record(s.warmup(scale.warmup).measure(measure),
                                     config, pattern="uniform", load=load)
                ran_on = f"{s.sim.engine_path}: {s.sim.engine_why}"
            finally:
                s.close()
            payload = {
                "id": f"live:{label}",
                "description": (f"live re-run, scale {scale_name}, uniform "
                                f"load {load:g}, engine {engine} "
                                f"({ran_on})"),
                "series": {label: [plain]},
            }
            report = verify_result(payload, tolerance=tolerance)
            try:
                checked = run_point(config, "uniform", load, scale.warmup,
                                    measure, verify="full")
            except InvariantViolation as e:
                report.checks.extend(
                    (label, Check(**c)) for c in e.report.get("checks", ())
                    if not c.get("ok", True))
            else:
                report.checks.append((label, Check(
                    "record_identity",
                    canonical_record_json(plain) == canonical_record_json(checked),
                    detail="the instrumented (verified) record must be "
                           "byte-identical to the plain run's: observation "
                           "never changes the measurement")))
            reports.append(report)
    return reports


def _run_verify_results(args) -> int:
    from repro.analysis.invariants import (
        DEFAULT_TOLERANCE,
        render_markdown,
        verify_result,
    )

    tolerance = (DEFAULT_TOLERANCE if args.tolerance is None
                 else args.tolerance)
    if tolerance < 0:
        print(f"error: --tolerance must be >= 0 (got {tolerance})",
              file=sys.stderr)
        return 2
    reports = []
    try:
        for path in _result_files(args.paths):
            report = verify_result(_load_result(path), tolerance=tolerance)
            reports.append(report)
            if args.fail_fast and not report.ok:
                break
        if args.live and not (args.fail_fast
                              and any(not r.ok for r in reports)):
            engines = [t for t in args.engines.split(",") if t.strip()]
            topologies = [t for t in args.topologies.split(",") if t.strip()]
            reports.extend(_verify_live_matrix(
                engines, topologies, scale_name=args.scale, load=args.load,
                tolerance=tolerance))
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    markdown = render_markdown(reports, tolerance=tolerance)
    print(markdown, end="")
    if args.report:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(markdown)
    failures = sum(len(r.failures) for r in reports)
    if failures:
        print(f"verify-results: {failures} invariant check(s) failed",
              file=sys.stderr)
        return 1
    return 0


def _run_experiments(args, cache) -> int:
    """``run``: the named catalogue entry, or every one for ``all``, all
    through one shared ``cache``."""
    from repro.runplan import PlanExecutionError

    progress = _progress_callback(args)
    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    verify_reports = []
    for exp_id in ids:
        try:
            result = run_experiment(exp_id, scale=args.scale, seed=args.seed,
                                    seeds=args.seeds, jobs=args.jobs,
                                    cache=cache, shard=args.shard,
                                    on_result=progress)
        except FigureInterrupted as e:
            result = dict(e.partial, id=exp_id)
            target = (args.json if args.json and len(ids) == 1
                      else (f"{args.json_dir.rstrip('/')}/{exp_id}.partial.json"
                            if args.json_dir else None))
            if target:
                save_result(result, target)
                print(f"interrupted: partial figure saved to {target}; "
                      "completed points are cached", file=sys.stderr)
            else:
                print("interrupted: completed points are cached — rerun "
                      "with the same --cache to resume", file=sys.stderr)
            return 130
        except PlanExecutionError as e:
            _print_plan_errors(e)
            return 1
        print(format_result(result))
        print()
        if args.verify:
            from repro.analysis.invariants import verify_result

            verify_reports.append(verify_result(result))
        if args.json and len(ids) == 1:
            save_result(result, args.json)
        if args.json_dir:
            save_result(result, f"{args.json_dir.rstrip('/')}/{exp_id}.json")
        if args.svg_dir and EXPERIMENTS[exp_id].simulated:
            from repro.experiments.svgplot import chart_from_result

            chart_from_result(result).save(f"{args.svg_dir.rstrip('/')}/{exp_id}.svg")
    if verify_reports:
        from repro.analysis.invariants import render_markdown

        print(render_markdown(verify_reports,
                              title="Invariant verification (run --verify)"),
              end="", file=sys.stderr)
        if any(not r.ok for r in verify_reports):
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for spec in EXPERIMENTS.values():
            print(f"{spec.id:8} {spec.description}")
        return 0
    if args.command == "list-components":
        _list_components()
        return 0
    if args.command == "point":
        return _run_point(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "verify-results":
        return _run_verify_results(args)
    with _invocation_cache(args.cache) as cache:
        return _run_experiments(args, cache)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
