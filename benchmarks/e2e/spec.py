"""The benchmark's contract as data: workloads, metrics, sizes, policy.

Everything a later issue cites by name lives here; ``BENCHMARK.json`` is
the subset the driver's schema has room for and is checked against this
module by ``test_harness.py`` (``python -m benchmarks.e2e.spec`` prints
the file).  Per-workload applicability, the "should move" predictions
and the frozen sizes do not fit that schema, so they are recorded here
and rendered in ``README.md``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

#: Seconds one timed section is calibrated to at this commit on the
#: 2-core sandbox; op counts below are frozen for this value and scale
#: linearly with ``--seconds``.
RUN_SECONDS = 10

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: The shipped durability defaults, used everywhere durable and stated
#: in every report.
FLUSH_POLICY = {
    "sync": True,
    "group_window": 0.0,
    "group_size": 16,
    "checkpoint_interval": 256,
}

#: ``Database(plan_cache_size=128)`` — the default the workloads size
#: their SQL-text working sets against.
PLAN_CACHE_ENTRIES = 128

#: How many times set-up runs in an untraced full-size run; ``setup_s``
#: is the median.  At least SETUP_REPEATS; a set-up of a few tens of
#: milliseconds (``ingest_*``) is repeated until SETUP_BUDGET_S seconds
#: of set-up have been timed or SETUP_MAX_REPEATS is reached.
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 1.5

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

#: name -> (one-line why for BENCHMARK.json, what runs, full rationale)
WORKLOADS: Dict[str, Tuple[str, str, str]] = {
    "sqlj_oltp": (
        "Translated SQLJ program on a durable embedded database: "
        "translator/profiles/runtime/dbapi, plan-cache hits, MVCC and "
        "WAL+fsync+checkpoint all work; executor and wire do almost "
        "none.",
        "A `.psqlj` program translated in set-up (online-checked against "
        "an exemplar schema), then 1 client driving a durable embedded "
        "`snapshot` database: 70 % PK point reads (60 % through the "
        "SQLJ typed iterator, 10 % through a dbapi cursor on the same "
        "connection — the paper's SQLJ/JDBC interoperability, which is "
        "what puts the plan cache and dbapi on the path), 15 % keyed "
        "`UPDATE`, 10 % `INSERT`, 5 % three-statement transfer "
        "transaction with explicit `COMMIT`; Zipf(1.1) keys over a "
        "10 k-row `accounts` table.",
        "The paper's own use case and ROADMAP's first canonical "
        "workload; translator/profiles/runtime/dbapi, plan-cache hits, "
        "MVCC and WAL+fsync+checkpoint all do work, executor and wire "
        "do almost none.",
    ),
    "remote_read_mix": (
        "Subprocess repro:// server, 2 client connections, read-only: "
        "isolates protocol/server/remote driver; engine work per op is "
        "tiny next to the round trip, WAL and storage do nothing.",
        "`python -m repro.server --port 0` as a subprocess (in-memory "
        "databases), 2 `repro://` client connections from the "
        "generator process, read-only over a preloaded 20 k-row table "
        "+ 1 k-row dimension: 70 % prepared indexed point selects, "
        "20 % indexed range scans returning 50 rows, 10 % two-table "
        "join with a small aggregate; Zipf keys.",
        "Isolates `server.protocol` / `server` / `dbapi.remote`: "
        "engine work per op is ~0.03 ms while the round trip is far "
        "larger, WAL/storage do nothing. A subprocess server keeps the "
        "client's GIL out of the server's numbers — the open \"flat at "
        "5k req/s\" question.",
    ),
    "ingest_snapshot": (
        "Durable bulk load then per-row write stream on storage="
        "snapshot: batch path, WAL append/fsync, O(database) checkpoint "
        "stalls, recovery and space. Reads do nothing.",
        "Durable embedded, `storage=\"snapshot\"`. Phase A: "
        "`Cursor.executemany` loads a 100 k-row `facts` table (indexed, "
        "no PK) in 1 000-row batches. Phase B: per-row autocommit "
        "stream — 80 % `INSERT` into `facts`, 15 % keyed `UPDATE` and "
        "5 % keyed `DELETE` on a 2 k-row PK'd `devices` table — "
        "spanning >= 10 checkpoints. Phase C: copy the data directory "
        "before close (\"crash\"), `open_database` the copy, verify "
        "every acknowledged row.",
        "ROADMAP's third canonical workload: batch path, WAL "
        "append/fsync, O(database) checkpoint stalls, recovery and "
        "space. Reads do nothing.",
    ),
    "ingest_lsm": (
        "Byte-identical statement stream to ingest_snapshot on storage="
        "lsm: O(delta) flush + compaction instead of image rewrite; a "
        "storage change that helps one and hurts the other shows here.",
        "Byte-identical statement stream to `ingest_snapshot` with "
        "`storage=\"lsm\"`.",
        "Same layers used differently (O(delta) flush + compaction vs "
        "image rewrite); the pair is what the \"collapse storage to one "
        "engine\" item needs, and a storage change that helps one and "
        "hurts the other shows here.",
    ),
    "analytic_scan": (
        "In-memory scans, joins, aggregates and sorts, half repeated "
        "texts and half distinct literals: the only workload where "
        "executor/expressions dominate and the plan cache misses.",
        "In-memory embedded (no WAL), 1 client, 10 k-row fact + 1 k / "
        "100-row dimensions, `ANALYZE`d: seqscan-filter, hash-join "
        "probe, group-aggregate, sort-limit. Half the stream repeats 8 "
        "SQL texts (fits the 128-entry plan cache); half is distinct "
        "literal texts arriving on a cache that set-up already filled "
        "with 128 other statements (exceeds it, so every one lexes, "
        "parses, plans and evicts).",
        "The only workload where `engine.executor`/`expressions` "
        "dominate, and the only one with plan-cache misses; wire, WAL "
        "and storage are bypassed, so the compiled-expression item can "
        "show a gain here and must show none on `remote_read_mix`.",
    ),
}

WORKLOAD_NAMES = list(WORKLOADS)
DURABLE = ("sqlj_oltp", "ingest_snapshot", "ingest_lsm")
INGEST = ("ingest_snapshot", "ingest_lsm")
ALL = tuple(WORKLOAD_NAMES)

# ---------------------------------------------------------------------------
# sizes
# ---------------------------------------------------------------------------

#: Table sizes and op counts, frozen after one calibration at this
#: commit (each timed section ~RUN_SECONDS s).  ``*_ops`` scale with
#: ``--seconds``; table sizes never do.  ``trace_every`` is the period
#: of the seeded per-kind sample the traced pass replays layer by layer.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "sqlj_oltp": {
            "accounts": 10_000,
            "ops": 1_200,
            "trace_every": {
                "sqlj_read": 12, "dbapi_read": 4,
                "update": 12, "insert": 8, "transfer": 6,
            },
        },
        "remote_read_mix": {
            "items": 20_000,
            "groups": 1_000,
            "clients": 2,
            "ops": 6_600,  # per client
            "range_rows": 50,
            "trace_every": {"point": 40, "range": 20, "join": 12},
        },
        "ingest": {
            "load_rows": 100_000,
            "batch": 1_000,
            "devices": 2_000,
            "ops": 4_400,
            "trace_every": {
                "load": 10, "insert": 64, "update": 24, "delete": 10,
            },
        },
        "analytic_scan": {
            "fact": 10_000,
            "dim1": 1_000,
            "dim2": 100,
            "ops": 280,
            "prewarm": 128,
            "trace_every": {
                "filter": 9, "join": 6, "agg": 6, "sort": 3,
            },
        },
    },
    "smoke": {
        "sqlj_oltp": {
            "accounts": 1_000,
            "ops": 200,
            "trace_every": {
                "sqlj_read": 10, "dbapi_read": 3,
                "update": 5, "insert": 4, "transfer": 2,
            },
        },
        "remote_read_mix": {
            "items": 2_000,
            "groups": 100,
            "clients": 2,
            "ops": 400,
            "range_rows": 50,
            "trace_every": {"point": 20, "range": 8, "join": 4},
        },
        "ingest": {
            "load_rows": 5_000,
            "batch": 500,
            "devices": 200,
            "ops": 600,
            "trace_every": {
                "load": 2, "insert": 40, "update": 10, "delete": 5,
            },
        },
        "analytic_scan": {
            "fact": 2_000,
            "dim1": 100,
            "dim2": 20,
            "ops": 48,
            "prewarm": 128,
            "trace_every": {
                "filter": 6, "join": 4, "agg": 4, "sort": 2,
            },
        },
    },
}

#: Exact per-block op mix (a seeded permutation of each block, so every
#: seed runs the same number of every kind and counters repeat).
MIX = {
    "sqlj_oltp": {
        "sqlj_read": 12, "dbapi_read": 2,
        "update": 3, "insert": 2, "transfer": 1,
    },
    "remote_read_mix": {"point": 7, "range": 2, "join": 1},
    "ingest": {"insert": 16, "update": 3, "delete": 1},
    # Unequal on purpose: filter and join cost about half of agg and
    # sort, and an equal mix would put the median call on the boundary
    # between the two groups.
    "analytic_scan": {"filter": 3, "join": 2, "agg": 2, "sort": 1},
}


def sizes_for(workload: str, *, smoke: bool, seconds: float) -> Dict[str, Any]:
    """The resolved sizes of one run: the frozen table sizes, and op
    counts scaled to ``seconds`` in whole mix blocks."""
    key = "ingest" if workload in INGEST else workload
    sizes = dict(SIZES["smoke" if smoke else "full"][key])
    block = sum(MIX[key].values())
    if not smoke:
        scaled = round(sizes["ops"] * seconds / RUN_SECONDS / block)
        sizes["ops"] = max(1, scaled) * block
    else:
        sizes["ops"] = max(1, sizes["ops"] // block) * block
    sizes["mode"] = "smoke" if smoke else "full"
    return sizes


# ---------------------------------------------------------------------------
# sample-count rules
# ---------------------------------------------------------------------------

#: A percentile is reported only with this many samples.
MIN_SAMPLES = {"p50": 1, "p95": 200, "p99": 1000, "stall": 1000}

# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

#: (name, unit, better, bound, definition, workloads).  ``workloads`` is
#: the set that has the samples at the frozen full size.  The first six
#: are reported by every workload; ``BENCHMARK.json`` carries the five
#: in ``UNIVERSAL`` (its schema wants every end-to-end metric from every
#: workload, never 0, repeating within its bound).  ``call_p50_ms`` and
#: the per-workload rest reach the driver as ``e2e.*`` diagnostics of
#: the traced run's untraced pass.
E2E: List[Tuple[str, str, str, float, str, Tuple[str, ...]]] = [
    ("setup_s", "s", "lower", 0.25,
     "translate + server start + schema + preload, before the timed "
     "section (median of the run's 5 to 25 set-ups)", ALL),
    ("ops_per_s", "1/s", "higher", 0.25,
     "client-visible calls completed / timed seconds; the median over "
     "10 equal slices of each client's op stream, summed over clients",
     ALL),
    ("rows_per_s", "1/s", "higher", 0.25,
     "rows returned + rows affected per call x ops_per_s", ALL),
    ("call_p50_ms", "ms", "lower", 0.25,
     "median latency of all timed client-visible calls (the dominant "
     "op class of the workload); the median over the slices' medians",
     ALL),
    ("call_tail_ms", "ms", "lower", 0.25,
     "mean latency of the slowest 5 % of the calls of a slice, at least "
     "three calls (the expensive op class plus pauses; a tail mean, "
     "because p95 falls on a class boundary of these mixes); the median "
     "over slices", ALL),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss of the process holding the engine", ALL),
    ("read_p50_ms", "ms", "lower", 0.20,
     "per-call latency of reads incl. fetching all rows, median",
     ("sqlj_oltp", "remote_read_mix", "analytic_scan")),
    ("read_p99_ms", "ms", "lower", 0.25,
     "per-call latency of reads incl. fetching all rows, 99th "
     "percentile (>= 1 000 samples)", ("remote_read_mix",)),
    ("write_p50_ms", "ms", "lower", 0.25,
     "per-call latency of commit-acknowledged DML / transactions, "
     "median", DURABLE),
    ("write_p95_ms", "ms", "lower", 0.25,
     "per-call latency of commit-acknowledged DML / transactions, 95th "
     "percentile (>= 200 samples)", DURABLE),
    ("write_stall_ms", "ms", "lower", 0.25,
     "mean of the slowest 1 % of writes (checkpoint / flush pauses a "
     "median hides; >= 1 000 writes)", INGEST),
    ("load_rows_per_s", "1/s", "higher", 0.20,
     "phase-A rows / phase-A seconds", INGEST),
    ("scan_rows_per_s", "1/s", "higher", 0.10,
     "base-table rows each query must read (known from the generator) "
     "/ timed seconds", ("analytic_scan",)),
    ("recovery_s", "s", "lower", 0.25,
     "open_database on the crash copy until the first query answers",
     DURABLE),
    ("disk_bytes_per_row", "B", "lower", 0.10,
     "data-directory bytes after clean close / live rows", DURABLE),
    ("error_rate", "ratio", "lower", 0.0,
     "failed or wrong-answer ops / attempted (any non-zero value "
     "fails the run)", ALL),
]

#: The end-to-end metrics the driver holds every workload to.  Every
#: workload reports ``call_p50_ms`` too, but on ``ingest_*`` the median
#: call is one autocommit insert, two thirds of it one fsync of the
#: sandbox's virtual disk, and that fsync drifts by a third within an
#: hour (README, "Redefined or demoted"): a diagnostic, not a gate.
UNIVERSAL = ("setup_s", "ops_per_s", "rows_per_s", "call_tail_ms",
             "peak_rss_mb")

E2E_NAMES = [row[0] for row in E2E]
E2E_BY_NAME = {row[0]: row for row in E2E}


def e2e_declared(workload: str) -> List[str]:
    """End-to-end metrics ``workload`` reports at the frozen full size."""
    return [row[0] for row in E2E if workload in row[5]]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (name, unit, better, layer, should move -> on, predicted no change on)
LAYERS: List[Tuple[str, str, str, str, str, str]] = []


def _layer(layer: str, moves: str, still: str, *metrics: Tuple[str, str, str]):
    for name, unit, better in metrics:
        LAYERS.append((name, unit, better, layer, moves, still))


_layer(
    "translator", "setup_s -> sqlj_oltp", "every timed metric",
    ("translator.translate_ms", "ms", "lower"),
    ("translator.clauses_per_s", "1/s", "higher"),
)
_layer(
    "runtime (+profiles)", "ops_per_s, read_p50_ms -> sqlj_oltp",
    "remote_read_mix, analytic_scan",
    ("runtime.clause_us", "us", "lower"),
    ("runtime.iterator_row_us", "us", "lower"),
    ("profiles.stmt_cache_hit_rate", "ratio", "higher"),
)
_layer(
    "dbapi", "ops_per_s -> sqlj_oltp; load_rows_per_s -> ingest_*",
    "analytic_scan",
    ("dbapi.stmt_us", "us", "lower"),
    ("dbapi.fetch_row_us", "us", "lower"),
    ("dbapi.batch_row_us", "us", "lower"),
)
_layer(
    "dbapi.remote + server",
    "read_p50_ms, read_p99_ms, ops_per_s -> remote_read_mix",
    "all embedded workloads",
    ("remote.op_us", "us", "lower"),
    ("remote.ping_us", "us", "lower"),
    ("remote.wire_tax_us", "us", "lower"),
    ("server.requests", "count", "lower"),
    ("server.execute_ms_mean", "ms", "lower"),
)
_layer(
    "server.protocol",
    "read_p50_ms, rows_per_s -> remote_read_mix (range-scan share)",
    "all embedded workloads",
    ("protocol.encode_us", "us", "lower"),
    ("protocol.decode_us", "us", "lower"),
    ("protocol.request_bytes", "B", "lower"),
    ("protocol.response_bytes", "B", "lower"),
    ("protocol.frames_per_op", "count", "lower"),
)
_layer(
    "engine.lexer / engine.parser",
    "read_p50_ms -> analytic_scan (distinct-text half); write_p50_ms "
    "-> ingest_* (dbapi DML is parsed per call)",
    "remote_read_mix, sqlj_oltp (prepared)",
    ("lexer.tokenize_us", "us", "lower"),
    ("lexer.tokens_per_stmt", "count", "lower"),
    ("parser.parse_us", "us", "lower"),
)
_layer(
    "engine.plancache", "ops_per_s -> sqlj_oltp, remote_read_mix",
    "ingest_*",
    ("plancache.lookup_us", "us", "lower"),
    ("plancache.hit_rate", "ratio", "higher"),
    ("plancache.evictions", "count", "lower"),
)
_layer(
    "engine.planner", "read_p50_ms -> analytic_scan",
    "sqlj_oltp, remote_read_mix (hits)",
    ("planner.plan_us", "us", "lower"),
)
_layer(
    "engine.executor", "scan_rows_per_s, read_p50_ms -> analytic_scan",
    "remote_read_mix, ingest_*",
    ("executor.run_us", "us", "lower"),
    ("executor.rows_scanned_per_row_out", "ratio", "lower"),
    ("executor.index_lookups_per_op", "ratio", "lower"),
    ("executor.filter_scan_rows_per_s", "1/s", "higher"),
    ("executor.hash_join_rows_per_s", "1/s", "higher"),
    ("executor.group_agg_rows_per_s", "1/s", "higher"),
    ("executor.sort_rows_per_s", "1/s", "higher"),
)
_layer(
    "engine.dml", "write_p50_ms -> sqlj_oltp, ingest_*",
    "remote_read_mix, analytic_scan (must stay 0)",
    ("dml.execute_us", "us", "lower"),
)
_layer(
    "engine (statement pipeline)",
    "write_p50_ms -> sqlj_oltp, ingest_*; read_p50_ms -> sqlj_oltp", "-",
    ("engine.select_us", "us", "lower"),
    ("engine.insert_us", "us", "lower"),
    ("engine.update_us", "us", "lower"),
    ("engine.delete_us", "us", "lower"),
    ("engine.unattributed_us", "us", "lower"),
)
_layer(
    "engine.mvcc / engine.locks", "write_p50_ms -> sqlj_oltp",
    "analytic_scan, remote_read_mix (expect ~0)",
    ("mvcc.commit_us", "us", "lower"),
    ("mvcc.conflict_waits", "count", "lower"),
    ("mvcc.vacuumed", "count", "lower"),
    ("locks.wait_ms", "ms", "lower"),
)
_layer(
    "engine.wal",
    "write_p50_ms -> sqlj_oltp, ingest_*; load_rows_per_s -> ingest_*",
    "remote_read_mix, analytic_scan (must stay 0)",
    ("wal.append_us", "us", "lower"),
    ("wal.fsync_us", "us", "lower"),
    ("wal.bytes_per_commit", "B", "lower"),
    ("wal.fsyncs_per_commit", "ratio", "lower"),
    ("wal.bytes_per_user_byte", "ratio", "lower"),
)
_layer(
    "engine.durability",
    "write_stall_ms, recovery_s, disk_bytes_per_row -> ingest_snapshot, "
    "sqlj_oltp",
    "ingest_lsm stall; all read-only workloads",
    ("durability.checkpoint_ms", "ms", "lower"),
    ("durability.checkpoints", "count", "lower"),
    ("durability.checkpoint_bytes", "B", "lower"),
    ("durability.replay_records_per_s", "1/s", "higher"),
)
_layer(
    "engine.lsm",
    "write_stall_ms, recovery_s, disk_bytes_per_row -> ingest_lsm",
    "ingest_snapshot and everything else (must stay 0)",
    ("lsm.flush_ms", "ms", "lower"),
    ("lsm.flushes", "count", "lower"),
    ("lsm.runs", "count", "lower"),
    ("lsm.compactions", "count", "lower"),
    ("lsm.compact_ms", "ms", "lower"),
    ("lsm.stall_ms_mean", "ms", "lower"),
    ("lsm.bytes_written_per_user_byte", "ratio", "lower"),
    ("lsm.tombstones_gced", "count", "higher"),
)
_layer(
    "benchmark's own tracer", "-", "-",
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.budget_overrun_pct", "%", "lower"),
)

LAYER_NAMES = [row[0] for row in LAYERS]
LAYER_UNITS = {row[0]: row[1] for row in LAYERS}

#: Per-workload end-to-end metrics as the driver sees them: diagnostics
#: of the traced run, taken from its untraced pass, 0 where the workload
#: has no such samples.
E2E_DIAGNOSTICS = [row for row in E2E if row[0] not in UNIVERSAL]


def per_layer_declared() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every metric a ``--trace 1`` run prints."""
    out = [(name, unit, better) for name, unit, better, *_ in LAYERS]
    out += [
        ("e2e." + name, unit, better)
        for name, unit, better, *_ in E2E_DIAGNOSTICS
    ]
    return out


def benchmark_json() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json`` (the driver's schema)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, (why, _what, _rationale) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _d, _w in E2E
            if name in UNIVERSAL
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_declared()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
