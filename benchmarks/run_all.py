"""Standalone benchmark runner for the fast-path query work.

Runs the three acceptance experiments from the performance PR and
writes ``BENCH_<date>.json`` next to this file:

* **hash_join** — N x N equality join, HashJoin vs NestedLoopJoin
  (the same join spelled ``not (l.k <> r.k)``, which has no hash key);
* **index_lookup** — repeated point lookups on an N-row table, with and
  without a secondary index (plan cache ON in both arms, fixed literal
  SQL, so the delta is purely scan vs probe);
* **plan_cache** — the same small statement executed repeatedly, as one
  byte-identical text (every call a cache hit) vs never-seen spellings
  of it (every call parses and plans);
* **durability** — group commit: serial fsync-per-commit vs concurrent
  committers sharing fsyncs through the group-commit window (floor:
  >= 2 commits per fsync at batch size 16);
* **server** — the wire tax: one SELECT workload through an in-process
  connection vs ``repro://`` at 1/8/32 clients (measured, no floor);
* **server_writes** — MVCC multi-writer scaling: the same total count
  of durable autocommit INSERTs through a ``repro://`` server at 1 vs
  8 concurrent writers (floor: >= 3x aggregate commit throughput at
  8 writers);
* **bulk_load** — star-schema ingest through the batch fast path
  (``executemany`` / ``MSG_EXECUTE_BATCH``) vs per-row INSERTs, local
  and over ``repro://`` (floor: >= 10x rows/sec full, >= 5x smoke, on
  the weaker of the two paths; see ``bench_bulk_load.py``);
* **lsm_ingest** — write-stall under sustained ingest: the same
  workload (preloaded base table, per-row autocommit inserts spanning
  ten-plus checkpoints) on the snapshot engine vs the LSM engine;
  the snapshot arm pays an O(database) image rewrite at every
  checkpoint while the LSM arm pays an O(delta) memtable flush
  (floor: mean LSM flush stall <= 1/5 of the mean snapshot
  checkpoint pause, smoke and full; see ``bench_lsm_ingest.py`` and
  ``docs/STORAGE.md``);
* **planner** — planning with vs without statistics for an adversarially
  FROM-ordered star join (without ANALYZE the fold starts with a
  dimension cross product; with it the planner reorders it away) —
  also asserts ``EXPLAIN (FORMAT JSON)`` reports the rejected
  FROM-order plan at a higher estimated cost (floor: >= 3x, smoke and
  full; see ``bench_planner.py``).

Each experiment records wall time, rows/sec, speedup, and the
plan-cache hit rate observed during the run.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py           # full sizes
    PYTHONPATH=src python benchmarks/run_all.py --smoke   # CI: small +
                                                          # exit 1 if the
                                                          # cached path is
                                                          # < 2x dynamic

The full run demonstrates the PR's acceptance numbers (HashJoin >= 10x,
IndexScan >= 20x, plan cache >= 2x); ``--smoke`` shrinks the data so the
whole thing finishes in seconds and enforces only the plan-cache floor,
which is size-independent.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
from decimal import Decimal
from typing import Any, Dict

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro import observability  # noqa: E402
from repro import Database  # noqa: E402
from repro.engine.plancache import CAPACITY  # noqa: E402


def _hit_rate(before: Dict[str, int]) -> Dict[str, Any]:
    after = observability.snapshot()["counters"]

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    hits = delta("plan_cache.hits")
    misses = delta("plan_cache.misses")
    total = hits + misses
    return {
        "plan_cache_hits": hits,
        "plan_cache_misses": misses,
        "plan_cache_hit_rate": (hits / total) if total else None,
    }


def _timed(workload) -> float:
    start = time.perf_counter()
    workload()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def bench_hash_join(rows: int) -> Dict[str, Any]:
    """N x N equality join: HashJoin vs NestedLoopJoin."""
    database = Database(name="bench_hj")
    session = database.create_session(autocommit=True)
    session.execute("create table l (k integer, tag varchar(10))")
    session.execute("create table r (k integer, tag varchar(10))")
    left = database.catalog.get_table("l")
    right = database.catalog.get_table("r")
    left.rows = [[i, f"l{i}"] for i in range(rows)]
    right.rows = [[i, f"r{i}"] for i in range(rows)]

    sql = "select count(*) from l join r on l.k = r.k"

    def run() -> int:
        return session.execute(sql).rows[0][0]

    assert "HashJoin" in session.execute("explain " + sql).rows[0][0] \
        or any(
            "HashJoin" in row[0]
            for row in session.execute("explain " + sql).rows
        )
    hash_seconds = _timed(run)
    matched = run()
    assert matched == rows

    # The same join with no equality conjunct: no hash key, so the
    # planner must nest loops.
    sql = "select count(*) from l join r on not (l.k <> r.k)"
    assert any(
        "NestedLoopJoin" in row[0]
        for row in session.execute("explain " + sql).rows
    )
    nl_seconds = _timed(run)
    assert run() == matched

    return {
        "experiment": "hash_join",
        "rows_per_side": rows,
        "hash_join_seconds": hash_seconds,
        "nested_loop_seconds": nl_seconds,
        "speedup": nl_seconds / hash_seconds,
        "rows_per_second_hash": rows / hash_seconds,
        "rows_per_second_nested_loop": rows / nl_seconds,
    }


def bench_index_lookup(rows: int, lookups: int) -> Dict[str, Any]:
    """Repeated point lookups: IndexScan vs SeqScan.

    Both arms run with the plan cache enabled and byte-identical SQL, so
    parse/plan cost amortises identically and the measured gap is the
    access path alone.
    """
    database = Database(name="bench_ix")
    session = database.create_session(autocommit=True)
    session.execute("create table t (k integer, v varchar(10))")
    table = database.catalog.get_table("t")
    table.rows = [[i, f"v{i}"] for i in range(rows)]

    sql = f"select v from t where k = {rows // 2}"

    def run() -> None:
        for _ in range(lookups):
            result = session.execute(sql).rows
            assert result == [[f"v{rows // 2}"]]

    seq_seconds = _timed(run)

    session.execute("create index tk on t (k)")
    assert any(
        "IndexScan using tk on t" in row[0]
        for row in session.execute("explain " + sql).rows
    )
    before = observability.snapshot()["counters"]
    index_seconds = _timed(run)
    stats = _hit_rate(before)

    result = {
        "experiment": "index_lookup",
        "table_rows": rows,
        "lookups": lookups,
        "seqscan_seconds": seq_seconds,
        "indexscan_seconds": index_seconds,
        "speedup": seq_seconds / index_seconds,
        "lookups_per_second_indexed": lookups / index_seconds,
    }
    result.update(stats)
    return result


def bench_plan_cache(iterations: int) -> Dict[str, Any]:
    """The same statement, repeated: cache hits vs misses.

    Small table, non-trivial statement text: the repeated-statement
    workload the cache targets, where parse + plan dominate the per-row
    work (an OLTP point query, not an analytical scan).  The cache keys
    on the byte-exact text, so the uncached arm appends trailing spaces,
    cycling through twice as many spellings as the cache holds: every
    call is a miss that parses and plans.
    """
    sql = (
        "select state, count(*) as n, sum(sales) as total from emps "
        "where sales > 100 and state <> 'XX' "
        "group by state having count(*) > 0 order by total desc limit 5"
    )
    database = Database(name="bench_pc")
    session = database.create_session(autocommit=True)
    session.execute(
        "create table emps (name varchar(50), state char(20), "
        "sales decimal(8,2))"
    )
    table = database.catalog.get_table("emps")
    table.rows = [
        [f"Emp{i}", f"S{i % 10}".ljust(20), Decimal(i * 10)]
        for i in range(50)
    ]
    spellings = [sql + " " * n for n in range(1, 2 * CAPACITY + 1)]

    def run(texts) -> None:
        for index in range(iterations):
            session.execute(texts[index % len(texts)])

    uncached_seconds = _timed(lambda: run(spellings))
    before = observability.snapshot()["counters"]
    cached_seconds = _timed(lambda: run([sql]))
    stats = _hit_rate(before)

    result = {
        "experiment": "plan_cache",
        "iterations": iterations,
        "uncached_seconds": uncached_seconds,
        "cached_seconds": cached_seconds,
        "speedup": uncached_seconds / cached_seconds,
        "statements_per_second_cached": iterations / cached_seconds,
    }
    result.update(stats)
    return result


def bench_durability(commits: int, threads: int) -> Dict[str, Any]:
    """Group commit: fsync-per-commit vs fsyncs shared across committers.

    Arm A commits serially with no grouping window — every commit pays
    its own fsync.  Arm B runs the same number of commits from
    ``threads`` concurrent sessions with a 5 ms group-commit window and
    batch size 16, so one fsync acknowledges many commits.  The reported
    "speedup" is the amortization factor (commits per fsync) in the
    grouped arm; the serial arm pins the 1.0x baseline.
    """
    import shutil
    import tempfile
    import threading as _threading

    from repro.engine.durability import open_database

    def counters() -> Dict[str, int]:
        return observability.snapshot()["counters"]

    base = tempfile.mkdtemp(prefix="bench_dur_")
    try:
        # Arm A: serial, no grouping window.
        db_a = open_database(
            os.path.join(base, "serial"),
            name="bench_dur_serial",
            checkpoint_interval=0,
        )
        serial_session = db_a.create_session(autocommit=True)
        serial_session.execute("create table t (k integer, v integer)")
        before = counters()

        def serial() -> None:
            for i in range(commits):
                serial_session.execute(
                    f"insert into t values ({i}, {i})"
                )

        serial_seconds = _timed(serial)
        after = counters()
        serial_fsyncs = after["wal.fsyncs"] - before.get("wal.fsyncs", 0)
        serial_commits = after["wal.commits"] - before.get(
            "wal.commits", 0
        )
        serial_session.close()
        db_a.close()

        # Arm B: concurrent committers sharing the group-commit window.
        db_b = open_database(
            os.path.join(base, "grouped"),
            name="bench_dur_grouped",
            group_window=0.005,
            group_size=16,
            checkpoint_interval=0,
        )
        init = db_b.create_session(autocommit=True)
        init.execute("create table t (k integer, v integer)")
        init.close()
        per_thread = commits // threads
        before = counters()

        def worker(tid: int) -> None:
            session = db_b.create_session(autocommit=True)
            for j in range(per_thread):
                session.execute(
                    f"insert into t values ({tid * 1000000 + j}, {j})"
                )
            session.close()

        def grouped() -> None:
            pool = [
                _threading.Thread(target=worker, args=(tid,))
                for tid in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()

        grouped_seconds = _timed(grouped)
        after = counters()
        grouped_fsyncs = after["wal.fsyncs"] - before.get(
            "wal.fsyncs", 0
        )
        grouped_commits = after["wal.commits"] - before.get(
            "wal.commits", 0
        )
        db_b.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    amortization = grouped_commits / max(1, grouped_fsyncs)
    return {
        "experiment": "durability",
        "commits": commits,
        "threads": threads,
        "serial_seconds": serial_seconds,
        "serial_commits": serial_commits,
        "serial_fsyncs": serial_fsyncs,
        "grouped_seconds": grouped_seconds,
        "grouped_commits": grouped_commits,
        "grouped_fsyncs": grouped_fsyncs,
        "commits_per_fsync": amortization,
        "speedup": amortization,
        "commits_per_second_grouped": grouped_commits / grouped_seconds,
    }


def bench_server(requests: int, client_counts=(1, 8, 32)) -> Dict[str, Any]:
    """Network round-trip cost: remote driver vs in-process connection.

    Starts a :class:`repro.server.ReproServer` in-process, then drives
    the same single-row SELECT workload through (a) a plain in-process
    connection and (b) ``repro://`` connections at 1, 8 and 32
    concurrent clients.  Per-request wall times are collected
    client-side, so the report carries real p50/p99 latencies plus
    aggregate requests/sec for every arm.

    There is no speedup floor: the point of this experiment is to
    *measure* the wire tax (the ``speedup`` field is remote/local
    throughput at one client, expected well below 1.0).
    """
    import statistics
    import threading as _threading

    import repro
    from repro.server import ReproServer

    def percentile(samples, fraction: float) -> float:
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(len(ordered) * fraction))
        return ordered[index]

    def drive(connection_factory, n_clients: int) -> Dict[str, Any]:
        latencies: list = []
        lock = _threading.Lock()
        per_client = max(1, requests // n_clients)

        def client() -> None:
            conn = connection_factory()
            stmt = conn.create_statement()
            mine = []
            for _ in range(per_client):
                begin = time.perf_counter()
                rs = stmt.execute_query(
                    "select v from bench_net where k = 7"
                )
                rs.next()
                mine.append(time.perf_counter() - begin)
            conn.close()
            with lock:
                latencies.extend(mine)

        pool = [
            _threading.Thread(target=client) for _ in range(n_clients)
        ]
        start = time.perf_counter()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - start
        return {
            "clients": n_clients,
            "requests": len(latencies),
            "seconds": elapsed,
            "requests_per_second": len(latencies) / elapsed,
            "p50_ms": percentile(latencies, 0.50) * 1000,
            "p99_ms": percentile(latencies, 0.99) * 1000,
            "mean_ms": statistics.fmean(latencies) * 1000,
        }

    server = ReproServer().start_background()
    try:
        url = f"repro://127.0.0.1:{server.port}/bench_net"
        setup = repro.connect(url)
        stmt = setup.create_statement()
        stmt.execute_update("create table bench_net (k integer, v integer)")
        for i in range(32):
            stmt.execute_update(f"insert into bench_net values ({i}, {i})")
        setup.close()

        baseline = drive(
            lambda: repro.connect("pydbc:standard:bench_net"), 1
        )
        remote_arms = [
            drive(lambda: repro.connect(url), n) for n in client_counts
        ]
    finally:
        server.stop_background()
        repro.registry.clear()

    one_client = remote_arms[0]
    return {
        "experiment": "server",
        "requests": requests,
        "baseline_local": baseline,
        "remote": remote_arms,
        "speedup": (
            one_client["requests_per_second"]
            / baseline["requests_per_second"]
        ),
        "wire_overhead_ms": one_client["p50_ms"] - baseline["p50_ms"],
    }


def bench_server_writes(
    commits: int, writer_counts=(1, 8)
) -> Dict[str, Any]:
    """Write-heavy multi-writer scaling over the wire.

    A durable server (sync WAL, 5 ms group-commit window, batch 16 —
    the same configuration as the grouped arm of ``bench_durability``)
    takes autocommit INSERTs from N concurrent ``repro://`` writers,
    each writer on its own key range so no row conflicts occur.  The
    same *total* number of durable commits runs at every writer count;
    the report compares aggregate commits/sec.

    Under the old single-writer exclusive lock, DML from concurrent
    clients serialised end to end and aggregate throughput flat-lined
    as writers were added.  With MVCC, writers share the statement lock
    and only the commit stamp allocation is serialised, so concurrent
    committers overlap their WAL waits and share fsyncs through group
    commit.  ``write_throughput_scaling`` (also reported as
    ``speedup``) is commits/sec at the highest writer count over
    commits/sec at one writer; the acceptance floor is 3x.
    """
    import shutil
    import tempfile
    import threading as _threading

    import repro
    from repro.server import ReproServer

    base = tempfile.mkdtemp(prefix="bench_wr_")
    server = ReproServer(
        data_dir=base,
        group_window=0.005,
        group_size=16,
        checkpoint_interval=0,
    ).start_background()
    arms = []
    try:
        url = f"repro://127.0.0.1:{server.port}/bench_writes"
        setup = repro.connect(url)
        setup.create_statement().execute_update(
            "create table payments (k integer, v integer)"
        )
        setup.close()

        for n_writers in writer_counts:
            per_writer = commits // n_writers
            failures: list = []

            def writer(wid: int) -> None:
                try:
                    conn = repro.connect(url)
                    stmt = conn.create_statement()
                    for j in range(per_writer):
                        stmt.execute_update(
                            f"insert into payments values "
                            f"({wid * 1000000 + j}, {j})"
                        )
                    conn.close()
                except Exception as exc:  # pragma: no cover - report
                    failures.append(exc)

            pool = [
                _threading.Thread(target=writer, args=(wid,))
                for wid in range(n_writers)
            ]
            start = time.perf_counter()
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            elapsed = time.perf_counter() - start
            if failures:
                raise failures[0]
            done = per_writer * n_writers
            arms.append(
                {
                    "writers": n_writers,
                    "commits": done,
                    "seconds": elapsed,
                    "commits_per_second": done / elapsed,
                }
            )
    finally:
        server.stop_background()
        repro.registry.clear()
        shutil.rmtree(base, ignore_errors=True)

    single = arms[0]["commits_per_second"]
    peak = arms[-1]["commits_per_second"]
    return {
        "experiment": "server_writes",
        "commits": commits,
        "arms": arms,
        "commits_per_second_single_writer": single,
        "commits_per_second_peak": peak,
        "write_throughput_scaling": peak / single,
        "speedup": peak / single,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _bench_bulk_load(facts: int) -> Dict[str, Any]:
    """Run the bulk-load experiment (lives in ``bench_bulk_load.py``)."""
    try:
        from benchmarks.bench_bulk_load import bench_bulk_load
    except ImportError:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from bench_bulk_load import bench_bulk_load
    return bench_bulk_load(facts)


def _bench_lsm_ingest(
    base: int, rows: int, interval: int
) -> Dict[str, Any]:
    """Run the LSM ingest experiment (``bench_lsm_ingest.py``)."""
    try:
        from benchmarks.bench_lsm_ingest import bench_lsm_ingest
    except ImportError:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from bench_lsm_ingest import bench_lsm_ingest
    return bench_lsm_ingest(base, rows, interval)


def _bench_planner(facts: int, dims: int) -> Dict[str, Any]:
    """Run the planner experiment (lives in ``bench_planner.py``)."""
    try:
        from benchmarks.bench_planner import bench_planner
    except ImportError:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from bench_planner import bench_planner
    return bench_planner(facts, dims)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small datasets; exit 1 if the plan cache is < 2x",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="path for the JSON report (default: BENCH_<date>.json "
        "next to this script)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        sizes = {"join_rows": 1000, "table_rows": 2000,
                 "lookups": 200, "iterations": 500,
                 "commits": 64, "commit_threads": 8,
                 "server_requests": 256, "write_commits": 192,
                 "bulk_facts": 300,
                 "lsm_base": 30_000, "lsm_rows": 1200,
                 "lsm_interval": 100,
                 "planner_facts": 4000, "planner_dims": 200}
    else:
        sizes = {"join_rows": 10_000, "table_rows": 10_000,
                 "lookups": 500, "iterations": 2000,
                 "commits": 256, "commit_threads": 16,
                 "server_requests": 2048, "write_commits": 512,
                 "bulk_facts": 2000,
                 "lsm_base": 60_000, "lsm_rows": 2000,
                 "lsm_interval": 150,
                 "planner_facts": 20_000, "planner_dims": 400}

    results = []
    for name, run in (
        ("hash_join", lambda: bench_hash_join(sizes["join_rows"])),
        ("index_lookup", lambda: bench_index_lookup(
            sizes["table_rows"], sizes["lookups"])),
        ("plan_cache", lambda: bench_plan_cache(sizes["iterations"])),
        ("durability", lambda: bench_durability(
            sizes["commits"], sizes["commit_threads"])),
        ("server", lambda: bench_server(sizes["server_requests"])),
        ("server_writes", lambda: bench_server_writes(
            sizes["write_commits"])),
        ("bulk_load", lambda: _bench_bulk_load(sizes["bulk_facts"])),
        ("lsm_ingest", lambda: _bench_lsm_ingest(
            sizes["lsm_base"], sizes["lsm_rows"],
            sizes["lsm_interval"])),
        ("planner", lambda: _bench_planner(
            sizes["planner_facts"], sizes["planner_dims"])),
    ):
        print(f"running {name} ...", flush=True)
        outcome = run()
        print(
            f"  {name}: speedup {outcome['speedup']:.1f}x "
            f"({outcome})",
            flush=True,
        )
        results.append(outcome)

    stamp = datetime.date.today().isoformat()
    output = args.output or os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        os.pardir,
        f"BENCH_{stamp}.json",
    )
    payload = {
        "date": stamp,
        "mode": "smoke" if args.smoke else "full",
        "sizes": sizes,
        "experiments": results,
    }
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.abspath(output)}")

    failures = []
    by_name = {r["experiment"]: r for r in results}
    if by_name["plan_cache"]["speedup"] < 2.0:
        failures.append(
            f"plan cache speedup {by_name['plan_cache']['speedup']:.2f}x "
            "< 2x floor"
        )
    if by_name["durability"]["commits_per_fsync"] < 2.0:
        failures.append(
            f"group commit amortization "
            f"{by_name['durability']['commits_per_fsync']:.2f} "
            "commits/fsync < 2x floor"
        )
    if by_name["server_writes"]["write_throughput_scaling"] < 3.0:
        failures.append(
            f"multi-writer commit scaling "
            f"{by_name['server_writes']['write_throughput_scaling']:.2f}x "
            "at 8 writers < 3x floor"
        )
    bulk_floor = 5.0 if args.smoke else 10.0
    if by_name["bulk_load"]["speedup"] < bulk_floor:
        failures.append(
            f"bulk load speedup {by_name['bulk_load']['speedup']:.2f}x "
            f"< {bulk_floor:.0f}x floor (local "
            f"{by_name['bulk_load']['speedup_local']:.1f}x, remote "
            f"{by_name['bulk_load']['speedup_remote']:.1f}x)"
        )
    if by_name["lsm_ingest"]["speedup"] < 5.0:
        failures.append(
            f"LSM write stall is 1/"
            f"{by_name['lsm_ingest']['speedup']:.1f} of the snapshot "
            "checkpoint pause; floor is 1/5"
        )
    if by_name["planner"]["speedup"] < 3.0:
        failures.append(
            f"cost-based planner speedup "
            f"{by_name['planner']['speedup']:.2f}x < 3x floor"
        )
    if not args.smoke:
        if by_name["hash_join"]["speedup"] < 10.0:
            failures.append(
                f"hash join speedup "
                f"{by_name['hash_join']['speedup']:.2f}x < 10x floor"
            )
        if by_name["index_lookup"]["speedup"] < 20.0:
            failures.append(
                f"index lookup speedup "
                f"{by_name['index_lookup']['speedup']:.2f}x < 20x floor"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
