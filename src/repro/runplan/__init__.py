"""Parallel experiment execution: declarative plans, scheduling, caching.

The subsystem behind every sweep in the repo::

    from repro.runplan import RunSpec, execute, replica_seeds

    spec = RunSpec(config=cfg, pattern="uniform",
                   loads=(0.1, 0.3, 0.5), warmup=2000, measure=2000,
                   seeds=replica_seeds(1, 3), series="olm")
    records = execute(spec, jobs=4, cache=".runcache")

A :class:`RunSpec` expands into independent :class:`RunPoint` jobs
(loads x seed replicas); ``jobs`` says how they are computed — inline
(``None`` / 1, :class:`SerialScheduler`) or on a pool of that many
processes (:class:`PoolScheduler`), with ``scheduler=`` taking any
instance that has ``run(fn, items)`` instead; a
content-addressed :class:`ResultCache` replays already-computed points
byte-identically; and multi-seed results are merged into mean ± 95%-CI
records by :func:`aggregate_replicas`.  Determinism is a contract:
the same plan yields identical records under any scheduler, pool size
or cache state (``tests/test_runplan.py``).
"""

from repro.runplan.aggregate import COORD_KEYS, aggregate_replicas
from repro.runplan.cache import (
    ResultCache,
    canonical_record_json,
    plan_keys,
    resolve_cache,
)
from repro.runplan.runner import (
    PointOutcome,
    execute,
    execute_point,
    execute_points,
    labeled_record,
    series_map,
)
from repro.runplan.scheduler import (
    PlanExecutionError,
    PointError,
    PoolScheduler,
    SerialScheduler,
)
from repro.runplan.spec import (
    POINT_SCHEMA_VERSION,
    RunPoint,
    RunSpec,
    expand_specs,
    in_shard,
    parse_shard,
    replica_seeds,
    shard_points,
)

__all__ = [
    "RunSpec",
    "RunPoint",
    "expand_specs",
    "replica_seeds",
    "POINT_SCHEMA_VERSION",
    "parse_shard",
    "in_shard",
    "shard_points",
    "SerialScheduler",
    "PoolScheduler",
    "PointError",
    "PlanExecutionError",
    "PointOutcome",
    "ResultCache",
    "resolve_cache",
    "plan_keys",
    "canonical_record_json",
    "COORD_KEYS",
    "aggregate_replicas",
    "execute",
    "execute_point",
    "execute_points",
    "labeled_record",
    "series_map",
]
