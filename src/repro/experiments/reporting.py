"""Text rendering and JSON persistence of experiment results."""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path


class ProgressPrinter:
    """Render scheduler ``PointOutcome`` events as one-line progress rows.

    Plugs straight into the ``on_result`` callback surface of
    :func:`~repro.runplan.execute_points` (the CLI's ``--progress``
    flag): each completed point prints its status (``cached`` /
    ``computed`` / ``retried`` / ``failed``), a short content-hash
    prefix, the point's seed and x-coordinate, and an ETA extrapolated
    from the completed-point rate so far.  Lines go to ``stderr`` so
    they never mix with result JSON on ``stdout``.
    """

    def __init__(self, stream=None, clock=time.monotonic) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._started = None

    def _eta(self, completed: int, total: int) -> str:
        if self._started is None or not completed or completed >= total:
            return ""
        elapsed = self._clock() - self._started
        remaining = elapsed / completed * (total - completed)
        return f" eta={remaining:.0f}s"

    def __call__(self, outcome) -> None:
        if self._started is None:
            self._started = self._clock()
        point = outcome.point
        bits = [f"[{outcome.completed}/{outcome.total}]",
                f"{outcome.status:>8}", point.key()[:12],
                f"seed={point.config.seed}"]
        if point.load is not None:
            bits.append(f"load={point.load:g}")
        for name, value in point.coords:
            bits.append(f"{name}={value}")
        if outcome.attempts > 1:
            bits.append(f"attempts={outcome.attempts}")
        if outcome.error is not None:
            bits.append(f"error={outcome.error.error}")
        line = " ".join(bits) + self._eta(outcome.completed, outcome.total)
        print(line, file=self.stream, flush=True)


def save_result(result: dict, path: str | Path) -> None:
    """Write an experiment result to JSON (directories created as needed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True))


def load_result(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "YES" if value else "NO"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.3f}"
    return str(value)


def format_result(result: dict) -> str:
    """Render an experiment result as an aligned text table."""
    metric = result.get("metric", "throughput")
    lines = [f"# {result.get('id', '?')} — {result.get('description', '')}"
             f" [scale={result.get('scale', '?')}]"]
    for series_name, points in result["series"].items():
        lines.append(f"\n## {series_name}")
        if not points:
            continue
        if "second" in points[0]:  # Table I layout
            lines.append(f"{'first':>8} {'second':>8} | allowed")
            lines.append("-" * 28)
            for p in points:
                lines.append(f"{p['first']:>8} {p['second']:>8} | {_fmt(p['allowed'])}")
            continue
        x_key = _x_key(points[0])
        header = f"{x_key:>12} | {metric:>14}"
        lines.append(header)
        lines.append("-" * len(header))
        for p in points:
            lines.append(f"{_fmt(p.get(x_key)):>12} | {_fmt(p.get(metric)):>14}")
    return "\n".join(lines)


def _x_key(point: dict) -> str:
    for key in ("burst", "load", "global_pct", "first"):
        if key in point:
            return key
    return next(iter(point))

