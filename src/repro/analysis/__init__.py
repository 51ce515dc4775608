"""Analytical helpers: throughput bounds (§II) and the physical-invariant
verification layer, both stdlib-only.  The CDG deadlock checks (§III),
explored from the routing code, are :mod:`repro.analysis.cdg`, imported by
that name only: they need a graph library, and no simulation does."""

from repro.analysis.bounds import (
    advg_minimal_bound,
    advg_minimal_capacity,
    advg_valiant_local_bound,
    advl_minimal_bound,
    uniform_capacity,
)
from repro.analysis.invariants import (
    Check,
    InvariantViolation,
    VerifyReport,
    check_record,
    live_checks,
    render_markdown,
    verify_result,
)

__all__ = [
    "advg_minimal_bound",
    "advg_minimal_capacity",
    "advg_valiant_local_bound",
    "advl_minimal_bound",
    "uniform_capacity",
    "Check",
    "InvariantViolation",
    "VerifyReport",
    "check_record",
    "live_checks",
    "render_markdown",
    "verify_result",
]
