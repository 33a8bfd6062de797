"""``ingest_snapshot`` / ``ingest_lsm``: one statement stream, two
storage engines (see ``spec.WORKLOADS`` for what runs and why)."""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

import repro

from benchmarks.e2e import gen, harness
from benchmarks.e2e.harness import PassResult, now
from benchmarks.e2e.layers import Replayer
from benchmarks.e2e.oracle import Oracle
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.workloads.base import DurableWorkload

DDL = [
    "create table facts (id integer, device integer, ts integer, "
    "reading integer, tag varchar(12))",
    "create index facts_device on facts (device)",
    "create table devices (device integer primary key, name varchar(16), "
    "last_ts integer, n integer)",
    "create index devices_device on devices (device)",
]
LOAD_DEVICES = "insert into devices values (?, ?, ?, ?)"
SQL = {
    "load": "insert into facts values (?, ?, ?, ?, ?)",
    "insert": "insert into facts values (?, ?, ?, ?, ?)",
    "update": "update devices set last_ts = ?, n = n + 1 where device = ?",
    "delete": "delete from devices where device = ?",
}
#: How often the traced LSM pass lists the data directory for new runs.
RUN_POLL_OPS = 64


class Ingest(DurableWorkload):
    CLASSES = {
        "load": "load", "insert": "write", "update": "write",
        "delete": "write",
    }
    TABLES = ("facts", "devices")

    def __init__(self, name: str, seed: int, sizes: Dict[str, Any]) -> None:
        super().__init__(name, seed, sizes)
        self.storage = name.rsplit("_", 1)[1]
        # The stream is generated under one label, so both engines get
        # byte-identical statements for a seed.
        inputs = gen.ingest_inputs(seed, sizes)
        self.devices = inputs["devices"]
        self.batches = inputs["batches"]
        self.ops = inputs["ops"]
        self.load_sampled = gen.sample_flags(
            gen.rng_for(seed, "ingest", "load-sample"),
            ["load"] * len(self.batches), sizes["trace_every"],
        )
        self.user_bytes = sum(
            gen.user_bytes(row) for batch in self.batches for row in batch
        ) + sum(gen.user_bytes(params) for _k, params, _s in self.ops)
        deletes = [p[0] for kind, p, _s in self.ops if kind == "delete"]
        #: a delete is replayed on the next key still present
        self.next_doomed = dict(zip(deletes, deletes[1:]))

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.work = harness.fresh_dir(self.name)
        database = self.open()
        self.connection = repro.DriverManager.get_connection(
            f"pydbc:standard:{self.name}", database=database
        )
        self.cursor = self.connection.cursor()
        for statement in DDL:
            self.cursor.execute(statement)
        self.cursor.executemany(LOAD_DEVICES, self.devices)
        if tracer is not None:
            self.replayer = Replayer(tracer, database, self.work)
            self.txn_cursor = repro.Connection(
                self.replayer.txn, owns_session=False
            ).cursor()

    # ------------------------------------------------------------------

    def run(self) -> PassResult:
        result = PassResult()
        tracer = self.tracer
        cursor = self.cursor
        outputs = result.outputs
        watch_runs = tracer is not None and self.storage == "lsm"
        self._runs_seen: Dict[str, int] = {}
        before = harness.counters()
        begin = now()
        stream = harness.Stream(
            begin, ["load"] * len(self.batches) + [op[0] for op in self.ops]
        )
        ends, calls = stream.ends, stream.lat
        # Phase A: bulk load.
        load_sql = SQL["load"]
        for index, batch in enumerate(self.batches):
            start = now()
            try:
                out: Any = cursor.executemany(load_sql, batch).rowcount
            except repro.ReproError as exc:
                out = exc
            end = now()
            stream.record(start, end)
            outputs.append(out)
            if tracer is not None:
                op = tracer.add("op.load", start, end, None, index)
                if self.load_sampled[index]:
                    self.replay("load", batch, op, index)
                    self.replayer.samples["dbapi.batch_row_us"].append(
                        (end - start) / 1e3 / len(batch)
                    )
        # Phase B: per-row autocommit stream.
        offset = len(self.batches)
        for index, (kind, params, sampled) in enumerate(self.ops, offset):
            start = now()
            try:
                out = cursor.execute(SQL[kind], params).rowcount
            except repro.ReproError as exc:
                out = exc
            end = now()
            stream.record(start, end)
            outputs.append(out)
            if tracer is not None:
                op = tracer.add("op." + kind, start, end, None, index)
                if sampled:
                    self.replay(kind, params, op, index)
                if watch_runs and index % RUN_POLL_OPS == 0:
                    self._note_runs()
        finished = now()
        result.timed_s = (finished - begin) / 1e9
        result.streams = [stream]
        result.counters = harness.delta(before, harness.counters())
        if watch_runs:
            self._note_runs()
            self.layer_values["lsm.bytes_written_per_user_byte"] = (
                harness.ratio(sum(self._runs_seen.values()), self.user_bytes)
            )
        result.rows = sum(out for out in outputs if isinstance(out, int))
        result.attempted = len(outputs)
        batches = len(self.batches)
        phase_a = harness.Stream(
            begin, stream.kinds[:batches], ends[:batches], calls[:batches],
            [sample for sample in stream.units if sample[0] <= ends[batches - 1]],
        )
        result.extras["load_rows_per_s"] = (
            sum(len(batch) for batch in self.batches)
            * harness.steady_rate([phase_a]) / batches
        )
        return result

    def _note_runs(self) -> None:
        """Run files are immutable and numbered upward, so listing the
        directory now and then sees every one a flush or compaction
        wrote (a victim outlives several flushes)."""
        for name in os.listdir(self.data_dir):
            if name.startswith("run-") and name not in self._runs_seen:
                try:
                    size = os.path.getsize(os.path.join(self.data_dir, name))
                except OSError:
                    continue
                self._runs_seen[name] = size

    # ------------------------------------------------------------------

    def replay(self, kind: str, params, op: int, op_id: int) -> None:
        rp = self.replayer
        # The commit path goes first: a rolled-back replay leaves
        # unsynced bytes in the live WAL, and the filesystem would
        # charge them to the scratch log's fsync.
        if kind == "load":
            rp.commit(op, op_id)
            rp.batch(op, op_id, SQL["load"], params)
            return
        if kind == "delete":
            params = (self.next_doomed.get(params[0]),)
            if params[0] is None:
                return
        sql = SQL[kind]
        rp.commit(op, op_id)
        with rp.tr.span("dbapi.execute", op, op_id) as execute:
            self.txn_cursor.execute(sql, params)
        rp.txn.rollback()
        rp.write(execute.id, op_id, kind, sql, params)

    def trace_extras(self) -> None:
        """Direct calls into the storage engine at the stream's end."""
        store = self.database.lsm_store
        if store is None:
            return
        with self.tracer.span("lsm.flush"):
            self.database.checkpoint()
        with self.tracer.span("lsm.compact"):
            store.compact(self.database)
        self.layer_values["lsm.runs"] = store.run_count()

    # ------------------------------------------------------------------

    def verify(self, result: PassResult) -> None:
        oracle = Oracle(DDL)
        oracle.load(LOAD_DEVICES, self.devices)
        expected: List[int] = []
        for batch in self.batches:
            oracle.load(SQL["load"], batch)
            expected.append(len(batch))
        for kind, params, _s in self.ops:
            expected.append(oracle.apply(SQL[kind], params))
        for index, (out, want) in enumerate(zip(result.outputs, expected)):
            if out != want:
                result.wrong(f"op {index} affected {out!r} rows, "
                             f"oracle {want}")
        self.phase_c(result, oracle, self.connection.session)
        oracle.close()
