"""Measurement: windows over the engine's counters, steady state, statistics."""

from repro.metrics.hub import OBS_SCHEMA_VERSION, LatencyTap, MetricsHub
from repro.metrics.probes import injection_backlog, occupancy_snapshot
from repro.metrics.statistics import (
    mean_ci,
    recovery_time,
    steady_state_reached,
)

__all__ = [
    "MetricsHub",
    "LatencyTap",
    "OBS_SCHEMA_VERSION",
    "occupancy_snapshot",
    "injection_backlog",
    "mean_ci",
    "recovery_time",
    "steady_state_reached",
]
