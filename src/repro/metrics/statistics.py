"""Statistical tooling for simulation output.

Confidence intervals across independent seed replicas, and the
transient and warm-up tests read off a bucketed throughput series.
"""

from __future__ import annotations

import math

# two-sided Student-t 97.5% quantiles for df = 1..30 (95% CI)
_T975 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t_quantile_975(df: int) -> float:
    """Student-t 0.975 quantile (normal approximation beyond df=30)."""
    if df < 1:
        raise ValueError("df must be >= 1")
    return _T975[df - 1] if df <= 30 else 1.96


def mean_ci(values) -> tuple[float, float]:
    """Mean and 95% confidence half-width across independent replicas.

    Each value is an already-independent observation — e.g. the same
    sweep point simulated under different RNG seeds.  A single
    replica yields a zero half-width (no spread information); any NaN
    value poisons both outputs.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("need at least one replica value")
    if any(math.isnan(v) for v in values):
        return (math.nan, math.nan)
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return (mean, 0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = t_quantile_975(n - 1) * math.sqrt(var / n)
    return (mean, half)


def recovery_time(series, baseline: float, *, bucket: int,
                  rel_tolerance: float = 0.15, hold: int = 3) -> int | None:
    """Cycles until a bucketed series settles back onto ``baseline``.

    The transient burst-response metric: after a load step, the
    throughput series first spikes above the steady baseline (the
    network drains the backlog) and then returns to it.  Recovery is
    the offset of the first bucket from which every one of ``hold``
    consecutive buckets stays within ``rel_tolerance`` of ``baseline``
    (absolute tolerance when the baseline is zero).  Returns ``None``
    when the series never settles for ``hold`` buckets.
    """
    if hold < 1:
        raise ValueError("hold must be >= 1")
    tol = rel_tolerance * abs(baseline) if baseline else rel_tolerance
    series = list(series)
    run = 0
    for i, v in enumerate(series):
        run = run + 1 if abs(v - baseline) <= tol else 0
        if run >= hold:
            return (i - hold + 1) * bucket
    return None


def steady_state_reached(throughput_series, *, window: int = 5,
                         rel_tolerance: float = 0.1) -> bool:
    """Heuristic warm-up check: the last ``window`` samples are mutually
    within ``rel_tolerance`` of their own mean."""
    tail = list(throughput_series)[-window:]
    if len(tail) < window:
        return False
    mean = sum(tail) / len(tail)
    if mean == 0:
        return all(v == 0 for v in tail)
    return all(abs(v - mean) <= rel_tolerance * abs(mean) for v in tail)
