"""The five workloads; ``make`` builds one by name."""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["make"]


def make(name: str, seed: int, sizes: Dict[str, Any]) -> Any:
    """The workload ``name`` with its inputs generated from ``seed``."""
    if name == "sqlj_oltp":
        from benchmarks.e2e.workloads.sqlj_oltp import SqljOltp
        return SqljOltp(name, seed, sizes)
    if name == "remote_read_mix":
        from benchmarks.e2e.workloads.remote_read_mix import RemoteReadMix
        return RemoteReadMix(name, seed, sizes)
    if name in ("ingest_snapshot", "ingest_lsm"):
        from benchmarks.e2e.workloads.ingest import Ingest
        return Ingest(name, seed, sizes)
    if name == "analytic_scan":
        from benchmarks.e2e.workloads.analytic_scan import AnalyticScan
        return AnalyticScan(name, seed, sizes)
    raise ValueError(f"unknown workload {name!r}")
