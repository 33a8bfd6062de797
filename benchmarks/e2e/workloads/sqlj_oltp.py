"""``sqlj_oltp``: a translated SQLJ program on a durable embedded
database (see ``spec.WORKLOADS`` for what runs and why)."""

from __future__ import annotations

import importlib.util
import os
from typing import Any, Dict, Optional

import repro
from repro.translator import TranslationOptions, Translator

from benchmarks.e2e import gen, harness
from benchmarks.e2e.harness import PassResult, now
from benchmarks.e2e.layers import Replayer
from benchmarks.e2e.oracle import Oracle, normalize
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.workloads.base import DurableWorkload

PROGRAM = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "oltp.psqlj")

DDL = [
    "create table accounts (k integer primary key, owner varchar(20), "
    "balance integer, branch integer)",
    "create index accounts_k on accounts (k)",
    "create table transfers (tid integer primary key, src integer, "
    "dst integer, amount integer)",
    "create index transfers_tid on transfers (tid)",
]
LOAD = "insert into accounts values (?, ?, ?, ?)"
#: The dynamic-SQL read of the dbapi share; the SQLJ clauses' texts come
#: from the translated profile.
READ = "select k, owner, balance, branch from accounts where k = ?"
DEPOSIT = "update accounts set balance = balance + ? where k = ?"
WITHDRAW = "update accounts set balance = balance - ? where k = ?"
OPEN = "insert into accounts values (?, ?, ?, ?)"
LOG = "insert into transfers values (?, ?, ?, ?)"

#: Keys no generated op ever uses, for replaying inserts beside the
#: rows the real op committed.
REPLAY_KEY = 1_000_000_000
TRANSLATE_REPLAYS = 5


class SqljOltp(DurableWorkload):
    CLASSES = {
        "sqlj_read": "read", "dbapi_read": "read",
        "update": "write", "insert": "write", "transfer": "write",
    }
    TABLES = ("accounts", "transfers")

    def __init__(self, name: str, seed: int, sizes: Dict[str, Any]) -> None:
        super().__init__(name, seed, sizes)
        inputs = gen.sqlj_oltp_inputs(seed, sizes)
        self.accounts = inputs["accounts"]
        self.ops = inputs["ops"]
        self.user_bytes = sum(
            gen.user_bytes(params) for kind, params, _s in self.ops
            if self.CLASSES[kind] == "write"
        )

    # ------------------------------------------------------------------

    def translate(self, out_dir: str) -> Any:
        """Translate the program, online-checked against an exemplar
        database that holds the deployment schema."""
        exemplar = repro.Database(name="exemplar")
        session = exemplar.create_session(autocommit=True)
        for statement in DDL:
            session.execute(statement)
        translator = Translator(TranslationOptions(exemplar=exemplar))
        return translator.translate_file(PROGRAM, output_dir=out_dir)

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.work = harness.fresh_dir(self.name)
        generated = os.path.join(self.work, "generated")
        self.translation = self.translate(generated)
        #: the clauses' SQL as the translator wrote it into the profile
        self.entry_sql = [
            entry.sql for entry in self.translation.profiles[0].data
        ]
        module_name = f"oltp_{os.path.basename(self.work).replace('-', '_')}"
        spec = importlib.util.spec_from_file_location(
            module_name, self.translation.module_path
        )
        self.module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.module)
        database = self.open()
        self.connection = repro.DriverManager.get_connection(
            f"pydbc:standard:{self.name}", database=database
        )
        self.cursor = self.connection.cursor()
        for statement in DDL:
            self.cursor.execute(statement)
        for start in range(0, len(self.accounts), 1_000):
            self.cursor.executemany(LOAD, self.accounts[start:start + 1_000])
        self.context = repro.ConnectionContext(self.connection)
        if tracer is not None:
            self.replayer = Replayer(tracer, database, self.work)
            self.auto_context = repro.ConnectionContext(self.replayer.auto)
            self.replay_cursor = repro.Connection(
                self.replayer.auto, owns_session=False
            ).cursor()

    # ------------------------------------------------------------------

    def run(self) -> PassResult:
        result = PassResult()
        tracer = self.tracer
        module, context = self.module, self.context
        connection, cursor = self.connection, self.cursor
        outputs = result.outputs
        rows = 0
        before = harness.counters()
        begin = now()
        stream = harness.Stream(begin, [op[0] for op in self.ops])
        for index, (kind, params, sampled) in enumerate(self.ops):
            start = now()
            try:
                if kind == "sqlj_read":
                    out = module.read_account(context, *params)
                elif kind == "dbapi_read":
                    out = cursor.execute(READ, params).fetchall()
                elif kind == "update":
                    out = module.deposit(context, *params)
                elif kind == "insert":
                    out = module.open_account(context, *params)
                else:
                    connection.set_auto_commit(False)
                    try:
                        out = module.transfer(context, *params)
                    finally:
                        connection.set_auto_commit(True)
            except repro.ReproError as exc:
                out = exc
            end = now()
            stream.record(start, end)
            outputs.append(out)
            if tracer is not None:
                op = tracer.add("op." + kind, start, end, None, index)
                if sampled:
                    self.replay(kind, params, op, index)
        result.timed_s = (now() - begin) / 1e9
        result.streams = [stream]
        result.counters = harness.delta(before, harness.counters())
        for out in outputs:
            if isinstance(out, list):
                rows += len(out)
            elif isinstance(out, int):
                rows += out
        result.rows = rows
        result.attempted = len(self.ops)
        return result

    # ------------------------------------------------------------------

    def replay(self, kind: str, params, op: int, op_id: int) -> None:
        """Layer-by-layer replay of one sampled op (see ``layers.py``)."""
        rp = self.replayer
        tr = rp.tr
        module = self.module
        entries = self.entry_sql
        if kind == "sqlj_read":
            with tr.span("runtime.clause", op, op_id) as clause:
                module.read_account(self.auto_context, *params)
            _engine, result, _run_ns = rp.select(
                clause.id, op_id, entries[0], params, prepared=True
            )
            with tr.span("runtime.iterate", clause.id, op_id) as iterate:
                it = module.AccountIter(result)
                fetched = 0
                while it.next():
                    it.k(), it.owner(), it.balance(), it.branch()
                    fetched += 1
                it.close()
            self._per_row("runtime.iterator_row_us", iterate.id, fetched)
        elif kind == "dbapi_read":
            cursor = self.replay_cursor
            with tr.span("dbapi.execute", op, op_id) as execute:
                cursor.execute(READ, params)
            with tr.span("dbapi.fetch", op, op_id) as fetch:
                fetched = len(cursor.fetchall())
            self._per_row("dbapi.fetch_row_us", fetch.id, fetched)
            rp.select(execute.id, op_id, READ, params)
        elif kind == "update":
            # The clause level is replayed for reads only: around a
            # 10+ ms statement the runtime's microseconds drown in the
            # difference of two separately timed table scans.
            # The commit path goes first: a rolled-back replay leaves
            # unsynced bytes in the live WAL, and the filesystem would
            # charge them to the scratch log's fsync.
            k, amount = params
            rp.commit(op, op_id)
            rp.write(op, op_id, "update", entries[1], (amount, k),
                     prepared=True)
        elif kind == "insert":
            k, owner, balance, branch = params
            rp.commit(op, op_id)
            rp.write(op, op_id, "insert", entries[2],
                     (k + REPLAY_KEY, owner, balance, branch), prepared=True)
        else:
            tid, src, dst, amount = params
            rp.commit(op, op_id)
            rp.write(op, op_id, "update", entries[3], (amount, src),
                     prepared=True)
            rp.write(op, op_id, "update", entries[4], (amount, dst),
                     prepared=True)
            rp.write(op, op_id, "insert", entries[5],
                     (tid + REPLAY_KEY, src, dst, amount), prepared=True)

    def _per_row(self, metric: str, span_id: int, rows: int) -> None:
        self.replayer.samples[metric].append(
            self.tracer.duration(span_id) / 1e3 / max(1, rows)
        )

    def trace_extras(self) -> None:
        """Standalone spans after the timed section: the translator."""
        out_dir = os.path.join(self.work, "retranslate")
        for _ in range(TRANSLATE_REPLAYS):
            with self.tracer.span("translator.translate"):
                translation = self.translate(out_dir)
        clauses = sum(len(p.data) for p in translation.profiles)
        self.layer_values["translator.clauses"] = clauses

    # ------------------------------------------------------------------

    def verify(self, result: PassResult) -> None:
        oracle = Oracle(DDL)
        oracle.load(LOAD, self.accounts)
        for (kind, params, _s), out in zip(self.ops, result.outputs):
            if isinstance(out, Exception):
                result.wrong(f"{kind}{params} raised {out!r}")
                continue
            if kind in ("sqlj_read", "dbapi_read"):
                want: Any = oracle.query(READ, params)
                out = normalize(out)
            elif kind == "update":
                k, amount = params
                want = oracle.apply(DEPOSIT, (amount, k))
            elif kind == "insert":
                want = oracle.apply(OPEN, params)
            else:
                tid, src, dst, amount = params
                want = (
                    oracle.apply(WITHDRAW, (amount, src))
                    + oracle.apply(DEPOSIT, (amount, dst))
                    + oracle.apply(LOG, (tid, src, dst, amount))
                )
            if out != want:
                result.wrong(f"{kind}{params} returned {out!r}, "
                             f"oracle {want!r}")
        self.phase_c(result, oracle, self.connection.session)
        oracle.close()
