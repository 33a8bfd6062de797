"""``analytic_scan``: in-memory scans, joins, aggregates and sorts, half
cached texts and half new ones (see ``spec.WORKLOADS``)."""

from __future__ import annotations

from typing import Any, Dict, Optional

import repro

from benchmarks.e2e import gen, harness
from benchmarks.e2e.harness import PassResult, now
from benchmarks.e2e.layers import Replayer
from benchmarks.e2e.oracle import Oracle, normalize
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.workloads.base import Workload

DDL = [
    "create table fact (id integer primary key, d1 integer, d2 integer, "
    "qty integer, price integer, flag varchar(4))",
    "create index fact_id on fact (id)",
    "create index fact_d1 on fact (d1)",
    "create table dim1 (d1 integer primary key, region varchar(12), "
    "weight integer)",
    "create index dim1_d1 on dim1 (d1)",
    "create table dim2 (d2 integer primary key, cat varchar(8))",
    "create index dim2_d2 on dim2 (d2)",
]
LOADS = {
    "fact": "insert into fact values (?, ?, ?, ?, ?, ?)",
    "dim1": "insert into dim1 values (?, ?, ?)",
    "dim2": "insert into dim2 values (?, ?)",
}
#: executor rate metric of each operator shape
RATES = {
    "filter": "executor.filter_scan_rows_per_s",
    "join": "executor.hash_join_rows_per_s",
    "agg": "executor.group_agg_rows_per_s",
    "sort": "executor.sort_rows_per_s",
}


class AnalyticScan(Workload):
    CLASSES = {"filter": "read", "join": "read", "agg": "read",
               "sort": "read"}
    TABLES = ("fact", "dim1", "dim2")

    def __init__(self, name: str, seed: int, sizes: Dict[str, Any]) -> None:
        super().__init__(name, seed, sizes)
        self.inputs = gen.analytic_inputs(seed, sizes)
        self.ops = self.inputs["ops"]

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.database = repro.Database(name=self.name)
        self.connection = repro.DriverManager.get_connection(
            f"pydbc:standard:{self.name}", database=self.database
        )
        self.cursor = cursor = self.connection.cursor()
        for statement in DDL:
            cursor.execute(statement)
        for table, sql in LOADS.items():
            rows = self.inputs[table]
            for start in range(0, len(rows), 1_000):
                cursor.executemany(sql, rows[start:start + 1_000])
        cursor.execute("analyze")
        # A long-running server's plan cache is full of other traffic:
        # fill it, so every new text in the timed section evicts.
        for sql in self.inputs["prewarm"]:
            cursor.execute(sql).fetchall()
        if tracer is not None:
            self.replayer = Replayer(tracer, self.database)
            self.replay_cursor = repro.Connection(
                self.replayer.auto, owns_session=False
            ).cursor()

    def teardown(self) -> None:
        connection = getattr(self, "connection", None)
        if connection is not None:
            connection.close()
            self.connection = None
        super().teardown()

    # ------------------------------------------------------------------

    def run(self) -> PassResult:
        result = PassResult()
        tracer = self.tracer
        cursor = self.cursor
        outputs = result.outputs
        scanned = 0
        before = harness.counters()
        begin = now()
        stream = harness.Stream(begin, [op[0] for op in self.ops])
        for index, (kind, (sql, distinct, base), sampled) in enumerate(
            self.ops
        ):
            start = now()
            try:
                out: Any = cursor.execute(sql).fetchall()
            except repro.ReproError as exc:
                out = exc
            end = now()
            stream.record(start, end)
            outputs.append(out)
            scanned += base
            if tracer is not None:
                op = tracer.add("op." + kind, start, end, None, index)
                if sampled:
                    self.replay(kind, sql, distinct, base, op, index)
        result.timed_s = (now() - begin) / 1e9
        result.streams = [stream]
        result.counters = harness.delta(before, harness.counters())
        result.rows = sum(len(out) for out in outputs if isinstance(out, list))
        result.attempted = len(self.ops)
        result.extras["scan_rows_per_s"] = (
            scanned * harness.steady_rate([stream]) / len(self.ops)
        )
        return result

    def replay(self, kind, sql, distinct, base, op, op_id) -> None:
        rp = self.replayer
        tr = rp.tr
        cursor = self.replay_cursor
        text = rp.respell(sql) if distinct else sql
        with tr.span("dbapi.execute", op, op_id) as execute:
            cursor.execute(text)
        with tr.span("dbapi.fetch", op, op_id) as fetch:
            fetched = len(cursor.fetchall())
        rp.samples["dbapi.fetch_row_us"].append(
            tr.duration(fetch.id) / 1e3 / max(1, fetched)
        )
        _engine, _result, run_ns = rp.select(
            execute.id, op_id, sql, (), miss=distinct
        )
        rp.samples[RATES[kind]].append(base / (run_ns / 1e9))

    # ------------------------------------------------------------------

    def verify(self, result: PassResult) -> None:
        oracle = Oracle(DDL)
        for table, sql in LOADS.items():
            oracle.load(sql, self.inputs[table])
        for (kind, (sql, _d, _b), _s), out in zip(self.ops, result.outputs):
            if isinstance(out, Exception):
                result.wrong(f"{kind} {sql!r} raised {out!r}")
                continue
            want = oracle.query(sql)
            if kind == "sort":
                # ORDER BY + LIMIT: the order is part of the answer.
                same = [tuple(row) for row in out] == list(
                    oracle.db.execute(sql).fetchall()
                )
            else:
                same = normalize(out) == want
            if not same:
                result.wrong(f"{kind} {sql!r}: {len(out)} rows differ "
                             f"from the oracle's {len(want)}")
        session = self.connection.session
        harness.check_tables(
            result, oracle, lambda sql: session.execute(sql).rows,
            self.TABLES, "final state",
        )
        oracle.close()
