"""Wire protocol: submission payloads → run points, job content hashes.

``POST /v1/jobs`` accepts two JSON shapes:

* a **single point** — the payload *is* the point::

      {"config": {...}, "pattern": "uniform", "load": 0.3,
       "warmup": 2000, "measure": 2000}

  plus optional ``kind`` (``steady``/``drain``/``transient``),
  ``packets_per_node``, ``max_cycles``, ``bucket``, ``steady`` and
  ``series`` — the fields of :class:`~repro.runplan.spec.RunPoint`;

* a **run spec** — a full declarative grid under ``"spec"``::

      {"spec": {"config": {...}, "pattern": "uniform",
                "loads": [0.1, 0.3], "warmup": 2000, "measure": 2000,
                "replicas": 3},
       "aggregate": true}

  mirroring :class:`~repro.runplan.spec.RunSpec` (``seeds`` lists
  explicit replica seeds; ``replicas`` derives them from the config's
  base seed via :func:`~repro.runplan.spec.replica_seeds`).

Parsing is strict — unknown fields raise :class:`SubmissionError`
listing the known ones, and every structural error names the offending
field — so typos fail the request with 400, never a silently-wrong
simulation.  A parsed :class:`Submission` hashes to a deterministic
content key over its points' content hashes: the dedupe address under
which concurrent identical submissions coalesce.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.network.config import CANONICAL_JSON, SimConfig
from repro.runplan.spec import RunPoint, RunSpec, replica_seeds

#: bump when the submission grammar or job-key derivation changes
SERVE_SCHEMA_VERSION = 2

_POINT_FIELDS = frozenset({
    "config", "pattern", "kind", "load", "warmup", "measure",
    "packets_per_node", "max_cycles", "bucket", "steady", "series",
})
_SPEC_FIELDS = (_POINT_FIELDS - {"load"}) | {"loads", "seeds", "replicas"}


class SubmissionError(ValueError):
    """A malformed job payload (maps to HTTP 400)."""


@dataclass(frozen=True)
class Submission:
    """A parsed job: the flat points to run plus result-shaping flags.

    ``progress`` opts the job's row stream into per-point progress rows
    (``{"event": "point", ...}``) interleaved with the metrics rows —
    off by default so the streamed JSONL of an unadorned submission
    stays byte-identical across schema versions.
    """

    points: tuple[RunPoint, ...]
    aggregate: bool
    progress: bool = False

    @property
    def kind(self) -> str:
        kinds = {p.kind for p in self.points}
        return kinds.pop() if len(kinds) == 1 else "mixed"

    def key(self) -> str:
        """Content hash of the whole job — the dedupe address.

        Covers each point's own content hash (config, traffic, windows,
        schema version) plus the aggregation flag, so two submissions
        coalesce exactly when they would produce the same result
        payload.
        """
        blob = CANONICAL_JSON.encode({
            "schema": SERVE_SCHEMA_VERSION,
            "aggregate": self.aggregate,
            "progress": self.progress,
            "points": [p.key() for p in self.points],
        })
        return hashlib.sha256(blob.encode()).hexdigest()


def _reject_unknown(data: dict, allowed: frozenset, what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SubmissionError(
            f"unknown {what} field(s): {unknown}; known: {sorted(allowed)}")


def _config_of(data: dict) -> SimConfig:
    raw = data.get("config")
    if raw is None:
        return SimConfig()
    try:
        return SimConfig.from_dict(raw)
    except (TypeError, ValueError) as e:
        raise SubmissionError(f"bad config: {e}") from None


def _int_field(data: dict, name: str, default: int = 0) -> int:
    value = data.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SubmissionError(
            f"{name} must be a non-negative integer cycle count, "
            f"got {value!r}")
    return value


def _parse_point(payload: dict) -> RunPoint:
    _reject_unknown(payload, _POINT_FIELDS | {"aggregate", "progress"}, "point")
    config = _config_of(payload)
    load = payload.get("load")
    if load is not None and not isinstance(load, (int, float)):
        raise SubmissionError(f"load must be a number, got {load!r}")
    try:
        return RunPoint(
            config=config,
            pattern=str(payload.get("pattern", "uniform")),
            kind=payload.get("kind", "steady"),
            load=None if load is None else float(load),
            warmup=_int_field(payload, "warmup"),
            measure=_int_field(payload, "measure"),
            packets_per_node=payload.get("packets_per_node"),
            max_cycles=payload.get("max_cycles"),
            bucket=payload.get("bucket"),
            steady=bool(payload.get("steady", False)),
            series=str(payload.get("series", "")),
        )
    except (TypeError, ValueError) as e:
        raise SubmissionError(f"bad point: {e}") from None


def _parse_spec(payload: dict) -> tuple[RunSpec, int]:
    spec_data = payload["spec"]
    if not isinstance(spec_data, dict):
        raise SubmissionError(
            f"spec must be a JSON object, got {type(spec_data).__name__}")
    _reject_unknown(spec_data, _SPEC_FIELDS, "spec")
    config = _config_of(spec_data)
    loads = spec_data.get("loads", ())
    if not isinstance(loads, (list, tuple)) or any(
            not isinstance(x, (int, float)) or isinstance(x, bool) for x in loads):
        raise SubmissionError(f"loads must be a list of numbers, got {loads!r}")
    if "seeds" in spec_data and "replicas" in spec_data:
        raise SubmissionError("pass either seeds (explicit list) or "
                              "replicas (count from the config's seed), not both")
    if "seeds" in spec_data:
        seeds = spec_data["seeds"]
        if not isinstance(seeds, (list, tuple)) or any(
                not isinstance(s, int) or isinstance(s, bool) for s in seeds):
            raise SubmissionError(f"seeds must be a list of integers, got {seeds!r}")
        seeds = tuple(seeds)
    else:
        replicas = spec_data.get("replicas", 1)
        if not isinstance(replicas, int) or isinstance(replicas, bool) or replicas < 1:
            raise SubmissionError(
                f"replicas must be a positive integer, got {replicas!r}")
        seeds = replica_seeds(config.seed, replicas)
    try:
        spec = RunSpec(
            config=config,
            pattern=str(spec_data.get("pattern", "uniform")),
            loads=tuple(float(x) for x in loads),
            warmup=_int_field(spec_data, "warmup"),
            measure=_int_field(spec_data, "measure"),
            seeds=seeds,
            kind=spec_data.get("kind", "steady"),
            packets_per_node=spec_data.get("packets_per_node"),
            max_cycles=spec_data.get("max_cycles"),
            bucket=spec_data.get("bucket"),
            steady=bool(spec_data.get("steady", False)),
            series=str(spec_data.get("series", "")),
        )
    except (TypeError, ValueError) as e:
        raise SubmissionError(f"bad spec: {e}") from None
    return spec, len(seeds)


def parse_submission(payload, *, max_points: int = 512) -> Submission:
    """Parse a ``POST /v1/jobs`` body into a :class:`Submission`.

    Raises :class:`SubmissionError` (→ HTTP 400) on any structural
    problem; config errors surface the underlying ``SimConfig``
    message.
    """
    if not isinstance(payload, dict):
        raise SubmissionError(
            f"job payload must be a JSON object, got {type(payload).__name__}")
    aggregate = payload.get("aggregate")
    if aggregate is not None and not isinstance(aggregate, bool):
        raise SubmissionError(f"aggregate must be a boolean, got {aggregate!r}")
    progress = payload.get("progress", False)
    if not isinstance(progress, bool):
        raise SubmissionError(f"progress must be a boolean, got {progress!r}")
    if "spec" in payload:
        _reject_unknown(payload, frozenset({"spec", "aggregate", "progress"}), "job")
        spec, n_seeds = _parse_spec(payload)
        try:
            points = tuple(spec.expand())
        except (TypeError, ValueError) as e:
            raise SubmissionError(f"bad spec: {e}") from None
        if aggregate is None:
            aggregate = n_seeds > 1
    else:
        points = (_parse_point(payload),)
        aggregate = False
    if not points:
        raise SubmissionError(
            "spec expands to zero run points: steady/transient specs need "
            "a non-empty loads list, drain specs need packets_per_node")
    if len(points) > max_points:
        raise SubmissionError(
            f"spec expands to {len(points)} run points, over this "
            f"service's max_points limit of {max_points}; split the grid "
            "into smaller submissions")
    return Submission(points=points, aggregate=bool(aggregate),
                      progress=progress)
