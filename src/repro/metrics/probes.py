"""Polling-free state snapshots of a live simulator.

`occupancy_snapshot` and `injection_backlog` are one-shot state reads
(no per-cycle cost; ``repro point --probe`` prints them).  Windows
are :class:`~repro.metrics.hub.MetricsHub` instances: totals from the
engine's delivery ledger (``Simulator.ledger``), time series from a
boundary sampler and latency samples from a delivery observer.
"""

from __future__ import annotations

from repro.topology.base import PortKind


def occupancy_snapshot(sim) -> dict:
    """Mean downstream occupancy fraction per port kind, plus the hottest link."""
    sums = {PortKind.LOCAL: 0.0, PortKind.GLOBAL: 0.0}
    counts = {PortKind.LOCAL: 0, PortKind.GLOBAL: 0}
    hottest = (0.0, None)
    for router in sim.routers:
        for out in router.outputs:
            if out.kind == PortKind.EJECT:
                continue
            frac = out.mean_occupancy_fraction()
            sums[out.kind] += frac
            counts[out.kind] += 1
            if frac > hottest[0]:
                hottest = (frac, (router.rid, int(out.kind), out.index))
    return {
        "local_mean": sums[PortKind.LOCAL] / max(1, counts[PortKind.LOCAL]),
        "global_mean": sums[PortKind.GLOBAL] / max(1, counts[PortKind.GLOBAL]),
        "hottest_fraction": hottest[0],
        "hottest_link": hottest[1],
    }


def injection_backlog(sim) -> dict:
    """Total and maximum source-queue occupancy in phits (saturation signal)."""
    total = 0
    worst = 0
    for router in sim.routers:
        for ip in router.inputs:
            if not ip.is_injection:
                continue
            occ = ip.vcs[0].occupancy
            total += occ
            worst = max(worst, occ)
    return {"total_phits": total, "max_phits": worst}
