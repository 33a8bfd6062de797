"""LSM ingest benchmark: write-stall under sustained write-heavy load.

A checkpoint flushes only the un-flushed memtable delta to an
immutable sorted run, so the committing thread stalls for O(delta) —
not for a rewrite of the whole database, however large the database
has grown.  This experiment measures both sides of that claim on one
database:

* **flush** — preload a base table (the "cold" data a long-lived
  database accumulates), then sustain a per-row autocommit ingest
  sized at ~10 checkpoint intervals, so ten-plus checkpoints fire
  *during* the timed loop.  The metrics registry is reset after the
  preload, so the ``wal.checkpoint.seconds`` histogram — the pause the
  checkpointing statement actually suffers — covers exactly the timed
  loop;
* **image** — at the end, the same database written as one
  whole-database image (:func:`repro.save_database`: build the image,
  pickle it, install it atomically), which is what a checkpoint costs
  when it rewrites everything.

Reported: rows/sec, worst and median insert latency (the application's
view, including background-compaction jitter), the mean and worst
flush pause, the mean image rewrite, and flush/compaction counters.
The headline ``speedup`` is mean image rewrite / mean flush pause; the
acceptance floor is >= 5x (a flush must cost at most 1/5 of rewriting
the database), enforced in smoke and full runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_lsm_ingest.py [--base N]
        [--rows N] [--interval N]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

SCHEMA = (
    "create table events (id integer, kind varchar(16), payload "
    "varchar(64), weight integer)"
)
INSERT = "insert into events values (?, ?, ?, ?)"
KINDS = ("click", "view", "purchase", "refund")
#: Whole-database image writes timed at the end of the ingest.
IMAGE_WRITES = 3


def _row(n: int):
    return [
        n,
        KINDS[n % len(KINDS)],
        f"payload-{n:08d}-{'x' * (n % 17)}",
        n % 1000,
    ]


def bench_lsm_ingest(
    base: int, rows: int, interval: int
) -> Dict[str, Any]:
    """Ingest over a preloaded base, then time whole-image rewrites of
    the result; ``speedup`` is mean image rewrite / mean flush pause
    (higher is better)."""
    from repro import observability
    from repro.engine.durability import open_database
    from repro.engine.persistence import save_database

    directory = tempfile.mkdtemp(prefix="bench_lsm_ingest_")
    db = open_database(
        os.path.join(directory, "data"),
        name="ingest",
        sync=False,
        checkpoint_interval=interval,
    )
    try:
        session = db.create_session(autocommit=True)
        session.execute(SCHEMA)
        # Preload the cold base in one batch commit, then checkpoint it
        # out of the WAL: the timed loop starts with the base on disk
        # and an empty log.
        session.execute_batch(
            INSERT, [_row(n) for n in range(base)]
        )
        db.checkpoint()

        # Scope the pause histogram to the timed loop: without this
        # the O(base) preload flush would dominate the maximum.
        observability.reset_metrics()
        before = observability.snapshot()
        latencies = []
        start = time.perf_counter()
        for n in range(base, base + rows):
            t0 = time.perf_counter()
            session.execute(INSERT, _row(n))
            latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        after = observability.snapshot()

        [[count]] = session.execute(
            "select count(*) from events"
        ).rows
        assert count == base + rows, (count, base + rows)

        def counter_delta(name: str) -> int:
            return after["counters"].get(name, 0) - before[
                "counters"
            ].get(name, 0)

        checkpoints = counter_delta("wal.checkpoints")
        assert checkpoints >= 10, (
            f"only {checkpoints} checkpoints fired during ingest; "
            "grow --rows or shrink --interval"
        )
        pause = after["histograms"].get("wal.checkpoint.seconds") or {}
        image_ms = []
        for _ in range(IMAGE_WRITES):
            t0 = time.perf_counter()
            save_database(db, os.path.join(directory, "image.db"))
            image_ms.append((time.perf_counter() - t0) * 1000.0)
        mean_pause = (pause.get("mean") or 0.0) * 1000.0
        mean_image = statistics.mean(image_ms)
        return {
            "experiment": "lsm_ingest",
            "base_rows": base,
            "ingest_rows": rows,
            "checkpoint_interval": interval,
            "seconds": elapsed,
            "rows_per_second": rows / elapsed if elapsed else float("inf"),
            "worst_insert_ms": max(latencies) * 1000.0,
            "median_insert_ms": statistics.median(latencies) * 1000.0,
            "checkpoints": checkpoints,
            "flushes": counter_delta("lsm.flushes"),
            "compactions": counter_delta("lsm.compactions"),
            "mean_stall_ms": mean_pause,
            "worst_stall_ms": (pause.get("max") or 0.0) * 1000.0,
            "mean_image_rewrite_ms": mean_image,
            "speedup": mean_image / mean_pause,
        }
    finally:
        db.close()
        shutil.rmtree(directory, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", type=int, default=60_000)
    parser.add_argument("--rows", type=int, default=2_000)
    parser.add_argument("--interval", type=int, default=150)
    args = parser.parse_args(argv)
    result = bench_lsm_ingest(args.base, args.rows, args.interval)
    print(json.dumps(result, indent=2))
    if result["speedup"] < 5.0:
        print(
            f"FAIL: the mean flush stall is 1/{result['speedup']:.1f} "
            "of a whole-database image rewrite; floor is 1/5",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
