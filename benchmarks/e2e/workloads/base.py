"""The shape every workload has, and phase C of the durable ones."""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Dict, List, Optional, Sequence

import repro
from repro.engine.wal import scan_records

from benchmarks.e2e import harness
from benchmarks.e2e.harness import PassResult
from benchmarks.e2e.layers import Replayer
from benchmarks.e2e.oracle import Oracle
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.spec import FLUSH_POLICY

__all__ = ["Workload", "DurableWorkload"]


class Workload:
    """One named workload: inputs from the seed at construction, then
    ``setup`` (timed as ``setup_s``) -> ``run`` (the timed section) ->
    ``verify`` (oracle, recovery) -> ``teardown``, once per pass."""

    #: op kind -> latency class (``read`` / ``write`` / ``load``)
    CLASSES: Dict[str, str] = {}
    #: tables whose final state is compared with the oracle's
    TABLES: Sequence[str] = ()

    def __init__(self, name: str, seed: int, sizes: Dict[str, Any]) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.work: Optional[str] = None
        #: set by ``setup`` for a traced pass
        self.tracer: Optional[Tracer] = None
        self.replayer: Optional[Replayer] = None
        #: per-layer values only this workload can supply
        self.layer_values: Dict[str, float] = {}

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        """Build everything the timed section needs; with ``tracer``,
        also what the traced pass replays on."""
        raise NotImplementedError

    def run(self) -> PassResult:
        raise NotImplementedError

    def verify(self, result: PassResult) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release everything ``setup`` acquired; safe to call twice."""
        if self.replayer is not None:
            self.replayer.close()
            self.replayer = None
        self.tracer = None
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work = None

    def trace_extras(self) -> None:
        """Standalone spans the traced pass takes after its timed
        section (direct calls no op makes on its own)."""

    def samples(self) -> Dict[str, List[float]]:
        """Per-sample layer values the traced pass collected."""
        return self.replayer.samples if self.replayer else {}

    def rss_mb(self) -> float:
        """Peak RSS of the process that holds the engine."""
        return harness.peak_rss_mb()


class DurableWorkload(Workload):
    """An embedded durable database in the scratch directory."""

    storage = "snapshot"

    def open(self) -> Any:
        self.data_dir = os.path.join(self.work, "data")
        self.database = repro.open_database(
            self.data_dir, name=self.name, storage=self.storage,
            **FLUSH_POLICY,
        )
        return self.database

    def close_database(self) -> None:
        database, self.database = getattr(self, "database", None), None
        if database is not None:
            database.close()

    def teardown(self) -> None:
        self.close_database()
        super().teardown()

    def phase_c(self, result: PassResult, oracle: Oracle, session: Any) -> None:
        """Crash copy -> clean close -> reopen the copy -> every
        acknowledged row must be there.  Sets ``recovery_s`` and
        ``disk_bytes_per_row``."""
        crash = os.path.join(self.work, "crash")
        harness.crash_copy(self.data_dir, crash)
        with open(os.path.join(crash, "wal.log"), "rb") as handle:
            wal_records = len(scan_records(handle.read())[0])
        live = harness.check_tables(
            result, oracle, lambda sql: session.execute(sql).rows,
            self.TABLES, "final state",
        )
        self.close_database()
        disk = harness.dir_bytes(self.data_dir)
        snapshot = os.path.join(self.data_dir, "snapshot.db")
        self.layer_values["durability.checkpoint_bytes"] = (
            os.path.getsize(snapshot) if os.path.exists(snapshot) else 0
        )
        start = time.perf_counter()
        recovered = repro.open_database(crash, name=self.name + "_crash",
                                        **FLUSH_POLICY)
        try:
            probe = recovered.create_session(autocommit=True)
            probe.execute(f"select count(*) from {self.TABLES[0]}")
            recovery_s = time.perf_counter() - start
            harness.check_tables(
                result, oracle, lambda sql: probe.execute(sql).rows,
                self.TABLES, "after crash recovery",
            )
        finally:
            recovered.close()
        result.extras["recovery_s"] = recovery_s
        result.extras["disk_bytes_per_row"] = harness.ratio(disk, live)
        self.layer_values["durability.replay_records_per_s"] = (
            harness.ratio(wal_records, recovery_s)
        )
