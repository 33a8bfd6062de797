"""``remote_read_mix``: read-only traffic over ``repro://`` to a server
in its own process (see ``spec.WORKLOADS`` for what runs and why)."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from collections import defaultdict
from typing import Any, Dict, List, Optional

import repro
from repro.server import protocol

from benchmarks.e2e import gen, harness
from benchmarks.e2e.harness import PassResult, now
from benchmarks.e2e.layers import Replayer
from benchmarks.e2e.oracle import Oracle, normalize
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.workloads.base import Workload

DDL = [
    "create table items (k integer primary key, grp integer, "
    "val integer, name varchar(16))",
    "create index items_k on items (k)",
    "create index items_grp on items (grp)",
    "create table groups (grp integer primary key, label varchar(12), "
    "w integer)",
    "create index groups_grp on groups (grp)",
]
LOADS = {
    "items": "insert into items values (?, ?, ?, ?)",
    "groups": "insert into groups values (?, ?, ?)",
}
SQL = {
    "point": "select k, grp, val, name from items where k = ?",
    "range": "select k, val from items where k between ? and ?",
    "join": "select g.label, count(*), sum(i.val) from items i "
            "join groups g on i.grp = g.grp where i.grp = ? "
            "group by g.label",
}
METRICS_SQL = ("select metric, kind, value, observations, total "
               "from repro_stats.metrics")
READY = "repro server listening on "
PING_EVERY = 8  # one ping per this many sampled ops


class _Client:
    """One connection's share of a pass."""

    def __init__(self, ops: List[Any]) -> None:
        self.ops = ops
        self.outputs: List[Any] = []
        self.stream: Optional[harness.Stream] = None
        self.connection: Any = None
        self.statements: Dict[str, Any] = {}
        #: traced pass only: a span list, replayer and connection of
        #: this client's own, so no two threads share one
        self.tracer: Optional[Tracer] = None
        self.replayer: Optional[Replayer] = None
        self.replay_session: Any = None


class RemoteReadMix(Workload):
    CLASSES = {"point": "read", "range": "read", "join": "read"}
    TABLES = ("items", "groups")

    def __init__(self, name: str, seed: int, sizes: Dict[str, Any]) -> None:
        super().__init__(name, seed, sizes)
        self.inputs = gen.remote_inputs(seed, sizes)
        self.server: Optional[subprocess.Popen] = None
        self.connections: List[Any] = []
        self.clients: List[_Client] = []
        self._samples: Dict[str, List[float]] = defaultdict(list)

    # ------------------------------------------------------------------

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.work = harness.fresh_dir(self.name)
        source = str(harness.ROOT / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (source, env.get("PYTHONPATH")) if part
        )
        self._stderr = open(os.path.join(self.work, "server.err"), "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._stderr, env=env, text=True,
        )
        line = self.server.stdout.readline()
        if not line.startswith(READY):
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = f"repro://{line[len(READY):].strip()}/bench"
        self.control = self._connect()
        cursor = self.control.cursor()
        for statement in DDL:
            cursor.execute(statement)
        for table, sql in LOADS.items():
            rows = self.inputs[table]
            for start in range(0, len(rows), 1_000):
                cursor.executemany(sql, rows[start:start + 1_000])
        cursor.execute("analyze")
        self.clients = [_Client(ops) for ops in self.inputs["clients"]]
        for client in self.clients:
            client.connection = self._connect()
            client.statements = {
                kind: client.connection.prepare_statement(sql)
                for kind, sql in SQL.items()
            }
        if tracer is not None:
            self._setup_replays()

    def _connect(self) -> Any:
        connection = repro.connect(self.url)
        self.connections.append(connection)
        return connection

    def _setup_replays(self) -> None:
        """An in-process twin of the server's database (what the engine
        alone costs for the same statement) and one more connection per
        client to replay round trips on."""
        twin = repro.Database(name="twin")
        session = twin.create_session(autocommit=True)
        for statement in DDL:
            session.execute(statement)
        for table, sql in LOADS.items():
            session.execute_batch(sql, self.inputs[table])
        session.execute("analyze")
        session.close()
        for client in self.clients:
            client.tracer = Tracer()
            client.replayer = Replayer(client.tracer, twin)
            client.replay_session = self._connect().session

    def stop_server(self) -> None:
        connections, self.connections = self.connections, []
        server, self.server = self.server, None
        try:
            for connection in connections:
                try:
                    connection.close()
                except (repro.ReproError, OSError):
                    pass
        finally:
            # Whatever happened above, the server ends and is waited for.
            if server is not None:
                server.terminate()
                try:
                    server.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait()
                server.stdout.close()
                self._stderr.close()

    def teardown(self) -> None:
        for client in self.clients:
            if client.replayer is not None:
                client.replayer.close()
                client.replayer = None
        self.stop_server()
        super().teardown()

    def rss_mb(self) -> float:
        # ru_maxrss of a child is only known once it has been waited for.
        self.stop_server()
        return harness.peak_rss_mb(children=True)

    def samples(self):
        return self._samples

    # ------------------------------------------------------------------

    def _server_counters(self) -> Dict[str, float]:
        flat: Dict[str, float] = {}
        cursor = self.control.cursor()
        for metric, kind, value, count, total in cursor.execute(METRICS_SQL):
            if kind == "counter":
                flat[metric] = value
            else:
                flat[metric + ".count"] = count or 0
                flat[metric + ".sum"] = total or 0.0
        return flat

    def run(self) -> PassResult:
        result = PassResult()
        tracer = self.tracer
        barrier = threading.Barrier(len(self.clients))
        threads = [
            threading.Thread(target=self._drive, args=(client, barrier))
            for client in self.clients
        ]
        server_before = self._server_counters()
        local_before = harness.counters()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        local = harness.delta(local_before, harness.counters())
        result.counters = harness.delta(server_before, self._server_counters())
        # The driver's own counters live in this process.
        result.counters.update(
            (name, value) for name, value in local.items()
            if name.startswith("remote.")
        )
        result.streams = [client.stream for client in self.clients]
        begin = min(stream.begin for stream in result.streams)
        end = max(stream.ends[-1] for stream in result.streams)
        result.timed_s = (end - begin) / 1e9
        for client in self.clients:
            result.outputs.extend(client.outputs)
            if tracer is not None:
                tracer.extend(client.tracer)
                for metric, values in client.replayer.samples.items():
                    self._samples[metric].extend(values)
        result.rows = sum(
            len(out) for out in result.outputs if isinstance(out, list)
        )
        result.attempted = len(result.outputs)
        if tracer is not None:
            calls = sorted(
                end - start for name, start, end, _p, _o in tracer.rows
                if name.startswith("op.")
            )
            self.layer_values["remote.op_us"] = calls[len(calls) // 2] / 1e3
            return result
        c = defaultdict(float, result.counters)
        self.layer_values["server.requests"] = c["server.requests"]
        self.layer_values["server.execute_ms_mean"] = 1e3 * harness.ratio(
            c["server.execute.seconds.sum"], c["server.execute.seconds.count"]
        )
        self.layer_values["protocol.frames_per_op"] = 2.0 * harness.ratio(
            c["remote.executions"] + c["remote.fetches"], result.attempted
        )
        return result

    def _drive(self, client: _Client, barrier) -> None:
        statements = client.statements
        outputs = client.outputs
        tracer = client.tracer
        sampled_ops = 0
        barrier.wait()
        client.stream = stream = harness.Stream(
            now(), [op[0] for op in client.ops]
        )
        for index, (kind, params, sampled) in enumerate(client.ops):
            statement = statements[kind]
            start = now()
            try:
                for position, value in enumerate(params, 1):
                    statement.set_int(position, value)
                out: Any = statement.execute_query().fetch_all()
            except repro.ReproError as exc:
                out = exc
            end = now()
            stream.record(start, end)
            outputs.append(out)
            if tracer is not None:
                op = tracer.add("op." + kind, start, end, None, index)
                if sampled:
                    self._replay(client, kind, params, op, index, end - start)
                    sampled_ops += 1
                    if sampled_ops % PING_EVERY == 0:
                        with tracer.span("remote.ping", None, index):
                            client.replay_session.ping()

    def _replay(self, client, kind, params, op, op_id, op_ns) -> None:
        tr, rp = client.tracer, client.replayer
        sql = SQL[kind]
        with tr.span("remote.execute", op, op_id) as execute:
            result = client.replay_session.execute(sql, params)
            rows = list(result.rows)
        request = {"sql": sql, "params": list(params), "seq": op_id}
        response = {
            "kind": result.kind, "update_count": 0, "out_values": [],
            "result_sets": [], "function_value": None,
            "columns": result.column_names(),
            "shape": protocol.encode_shape(result.shape),
            "rows": rows, "row_count": len(rows), "cursor": None,
            "in_txn": False,
        }
        with tr.span("protocol.encode", execute.id, op_id):
            sent = protocol.encode_frame(protocol.MSG_EXECUTE, request)
            answered = protocol.encode_frame(protocol.MSG_RESULT, response)
        with tr.span("protocol.decode", execute.id, op_id):
            protocol.decode_payload(sent[protocol.HEADER_SIZE:])
            protocol.decode_payload(answered[protocol.HEADER_SIZE:])
        rp.samples["protocol.request_bytes"].append(len(sent))
        rp.samples["protocol.response_bytes"].append(len(answered))
        engine, _result, _run_ns = rp.select(execute.id, op_id, sql, params)
        rp.samples["remote.wire_tax_us"].append(
            (op_ns - tr.duration(engine)) / 1e3
        )

    # ------------------------------------------------------------------

    def verify(self, result: PassResult) -> None:
        oracle = Oracle(DDL)
        for table, sql in LOADS.items():
            oracle.load(sql, self.inputs[table])
        ops = [op for client in self.clients for op in client.ops]
        for (kind, params, _s), out in zip(ops, result.outputs):
            if isinstance(out, Exception):
                result.wrong(f"{kind}{params} raised {out!r}")
            elif normalize(out) != oracle.query(SQL[kind], params):
                result.wrong(f"{kind}{params} returned {len(out)} rows "
                             "that differ from the oracle's")
        cursor = self.control.cursor()
        harness.check_tables(
            result, oracle, lambda sql: cursor.execute(sql).fetchall(),
            self.TABLES, "final state",
        )
        oracle.close()
