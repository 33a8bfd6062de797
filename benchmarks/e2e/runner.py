"""Running one workload: set-ups, the untraced pass, the traced pass,
and the per-layer budget computed from the two."""

from __future__ import annotations

import collections
import statistics
from collections import defaultdict
from typing import Any, Dict, List, Optional

from benchmarks.e2e import harness, spans, spec
from benchmarks.e2e.harness import PassResult, ratio
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.workloads import make

__all__ = ["run_workload", "layer_metrics"]

#: layer metric -> (span name, "self" | "dur", divisor to the unit)
_SPAN_METRICS = {
    "translator.translate_ms": ("translator.translate", "dur", 1e6),
    "runtime.clause_us": ("runtime.clause", "self", 1e3),
    "dbapi.stmt_us": ("dbapi.execute", "self", 1e3),
    "remote.ping_us": ("remote.ping", "dur", 1e3),
    "protocol.encode_us": ("protocol.encode", "dur", 1e3),
    "protocol.decode_us": ("protocol.decode", "dur", 1e3),
    "lexer.tokenize_us": ("lexer.tokenize", "dur", 1e3),
    "parser.parse_us": ("parser.parse_statement", "self", 1e3),
    "plancache.lookup_us": ("plancache.lookup", "dur", 1e3),
    "planner.plan_us": ("planner.plan_query", "dur", 1e3),
    "executor.run_us": ("executor.run", "dur", 1e3),
    "dml.execute_us": ("dml.execute", "dur", 1e3),
    "engine.select_us": ("engine.select", "dur", 1e3),
    "engine.insert_us": ("engine.insert", "dur", 1e3),
    "engine.update_us": ("engine.update", "dur", 1e3),
    "engine.delete_us": ("engine.delete", "dur", 1e3),
    "mvcc.commit_us": ("mvcc.commit", "dur", 1e3),
    "wal.append_us": ("wal.append", "dur", 1e3),
    "wal.fsync_us": ("wal.fsync", "dur", 1e3),
    "lsm.flush_ms": ("lsm.flush", "dur", 1e6),
    "lsm.compact_ms": ("lsm.compact", "dur", 1e6),
}

_ENGINE_SPANS = ("engine.select", "engine.insert", "engine.update",
                 "engine.delete", "engine.batch")


def _budget_overrun_pct(rows, covered_ns) -> float:
    """How far the separately measured layers of a sampled op, laid
    side by side, exceed the op itself: the worst op kind's median of
    (time its replays cover / op duration), as % over 100."""
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for (name, start, end, _parent, _op), covered in zip(rows, covered_ns):
        if name.startswith("op.") and covered and end > start:
            by_kind[name].append(covered / (end - start))
    worst = max(
        (statistics.median(values) for values in by_kind.values()),
        default=0.0,
    )
    return max(0.0, worst - 1.0) * 100.0


def layer_metrics(
    workload: Any,
    untraced: PassResult,
    traced: PassResult,
    tracer: Tracer,
    supplied: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer budget: ``_us``/``_ms`` values are medians over the
    traced pass's spans, counts are the program's own counters over the
    untraced pass (replays would pollute them); ``supplied`` are the
    ones only the workload could measure."""
    rows = tracer.rows
    self_ns, covered_ns = spans.self_times(rows)
    durations: Dict[str, List[int]] = defaultdict(list)
    selfs: Dict[str, List[int]] = defaultdict(list)
    for row, own in zip(rows, self_ns):
        durations[row[0]].append(row[2] - row[1])
        selfs[row[0]].append(own)
    out: Dict[str, float] = {}
    for metric, (name, which, divisor) in _SPAN_METRICS.items():
        values = (selfs if which == "self" else durations).get(name)
        if values:
            out[metric] = statistics.median(values) / divisor
    unattributed = [v for name in _ENGINE_SPANS for v in selfs.get(name, ())]
    if unattributed:
        out["engine.unattributed_us"] = statistics.median(unattributed) / 1e3
    for metric, values in workload.samples().items():
        if values:
            out[metric] = statistics.median(values)

    c = defaultdict(float, untraced.counters)
    ops = untraced.attempted
    out["plancache.hit_rate"] = ratio(
        c["plan_cache.hits"], c["plan_cache.hits"] + c["plan_cache.misses"]
    )
    out["plancache.evictions"] = c["plan_cache.evictions"]
    cached = (c["profile.statement_cache.hits"]
              + c["profile.statement_cache.misses"])
    if cached:
        out["profiles.stmt_cache_hit_rate"] = ratio(
            c["profile.statement_cache.hits"], cached
        )
    out["executor.rows_scanned_per_row_out"] = ratio(
        c["rows.scanned"], c["rows.returned"]
    )
    out["executor.index_lookups_per_op"] = ratio(c["index.lookups"], ops)
    out["mvcc.conflict_waits"] = c["mvcc.conflict_waits"]
    out["mvcc.vacuumed"] = c["mvcc.vacuumed"]
    out["locks.wait_ms"] = 1e3 * (
        c["waits.lock.shared.sum"] + c["waits.lock.exclusive.sum"]
    )
    out["wal.bytes_per_commit"] = ratio(
        c["wal.bytes_appended"], c["wal.commits"]
    )
    out["wal.fsyncs_per_commit"] = ratio(c["wal.fsyncs"], c["wal.commits"])
    out["wal.bytes_per_user_byte"] = ratio(
        c["wal.bytes_appended"], getattr(workload, "user_bytes", 0)
    )
    out["durability.checkpoints"] = c["wal.checkpoints"]
    out["durability.checkpoint_ms"] = 1e3 * ratio(
        c["wal.checkpoint.seconds.sum"], c["wal.checkpoint.seconds.count"]
    )
    out["lsm.flushes"] = c["lsm.flushes"]
    out["lsm.compactions"] = c["lsm.compactions"]
    out["lsm.tombstones_gced"] = c["lsm.tombstones_gced"]
    out["lsm.stall_ms_mean"] = ratio(
        c["lsm.stall_ms.sum"], c["lsm.stall_ms.count"]
    )
    for name in ("durability.checkpoint_bytes",
                 "durability.replay_records_per_s", "lsm.runs",
                 "lsm.bytes_written_per_user_byte"):
        out.setdefault(name, 0.0)
    out.update(supplied)
    clauses = out.pop("translator.clauses", None)
    if clauses and "translator.translate_ms" in out:
        out["translator.clauses_per_s"] = (
            clauses / (out["translator.translate_ms"] / 1e3)
        )

    base = harness.steady_rate(untraced.streams)
    with_spans = harness.steady_rate(traced.streams)
    out["trace.overhead_pct"] = 100.0 * (base - with_spans) / base
    out["trace.spans"] = len(rows)
    out["trace.budget_overrun_pct"] = _budget_overrun_pct(rows, covered_ns)
    return out


def _one_pass(workload: Any) -> PassResult:
    result = workload.run()
    if workload.tracer is not None:
        workload.trace_extras()
    workload.verify(result)
    return result


def run_workload(
    name: str,
    seed: int,
    *,
    seconds: float = spec.RUN_SECONDS,
    smoke: bool = False,
    trace: bool = False,
    untraced_metrics: bool = True,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload and return its report.

    The untraced pass yields the end-to-end metrics (with ``setup_s`` the
    median of ``spec.SETUP_REPEATS`` or more set-ups at full size); ``trace``
    adds a second pass over the identical op stream with spans on and
    yields the per-layer metrics.  ``untraced_metrics=False`` skips the
    extra set-ups when only the layer metrics are wanted.
    """
    sizes = spec.sizes_for(name, smoke=smoke, seconds=seconds)
    workload = make(name, seed, sizes)
    once = smoke or not untraced_metrics
    setups: List[float] = []
    report: Dict[str, Any] = {
        "workload": name, "seed": seed, "mode": sizes["mode"],
        "seconds": seconds, "sizes": sizes,
    }
    try:
        while True:
            setups.append(harness.timed_setup(workload.setup))
            if once or len(setups) >= spec.SETUP_MAX_REPEATS or (
                len(setups) >= spec.SETUP_REPEATS
                and sum(setups) >= spec.SETUP_BUDGET_S
            ):
                break
            workload.teardown()
        untraced = _one_pass(workload)
        untraced_values = dict(workload.layer_values)
        rss = workload.rss_mb()
        workload.teardown()
        e2e = harness.e2e_metrics(
            untraced, workload.CLASSES, statistics.median(setups), rss
        )
        report["end_to_end"] = e2e
        report["setups_s"] = setups
        report["timed_s"] = untraced.timed_s
        report["samples"] = dict(collections.Counter(
            kind for stream in untraced.streams for kind in stream.kinds
        ))
        report["sandbox_speed"] = statistics.median(
            part.speed() for stream in untraced.streams
            for part in stream.slices()
        )
        report["attempted"] = untraced.attempted
        report["failed"] = untraced.failed
        report["problems"] = list(untraced.problems)
        if trace:
            tracer = Tracer()
            workload.setup(tracer)
            traced = _one_pass(workload)
            # What both passes measured is taken from the untraced one.
            supplied = {**workload.layer_values, **untraced_values}
            layers = layer_metrics(
                workload, untraced, traced, tracer, supplied
            )
            workload.teardown()
            report["per_layer"] = layers
            report["traced_timed_s"] = traced.timed_s
            report["attempted"] += traced.attempted
            report["failed"] += traced.failed
            report["problems"] += traced.problems
            if trace_path is not None:
                tracer.write_jsonl(trace_path)
    finally:
        workload.teardown()
    report["correct"] = report["failed"] == 0
    return report
