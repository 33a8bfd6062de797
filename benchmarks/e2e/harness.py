"""What every workload shares: scratch space, the program's counters,
crash copies, and turning one timed pass into end-to-end metrics."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import observability

from benchmarks.e2e import stats
from benchmarks.e2e.oracle import Oracle, digest

ROOT = Path(__file__).resolve().parents[2]
#: Every byte the benchmark writes lands under here (data directories,
#: translated modules, crash copies, the scratch WAL); listed in
#: ``.gitignore`` and removed when the run ends.
WORK = ROOT / ".bench_work"

now = time.perf_counter_ns


#: Equal-count slices a client's op stream is cut into; the metrics
#: every workload reports are medians over them.
SLICES = 10

#: ``call_tail_ms`` averages at least this many calls of a slice: a
#: 28-call slice of ``analytic_scan`` has a 5 % tail of one call, and
#: the median of ten single slowest calls spread 0.17-0.19 over ten
#: seeds against 0.07 for the slowest three.
TAIL_LEAST = 3

#: The sandbox's CPU changes speed by up to 1.5x for seconds at a time
#: (README, "Sandbox speed").  Between ops, about every UNIT_PERIOD_NS,
#: the harness times one fixed unit of interpreter work; a slice's times
#: are scaled by UNIT_NOMINAL_NS / (the median unit time inside it), i.e.
#: reported as they would be at the sandbox's nominal speed.
UNIT_NOMINAL_NS = 280_000
UNIT_PERIOD_NS = 50_000_000


def unit_ns() -> int:
    """Time one fixed unit of interpreter work (arithmetic, a dict
    store and a loop: what the engine's hot paths are made of)."""
    start = now()
    total = 0
    table: Dict[int, int] = {}
    for i in range(3_000):
        total += i * i % 7
        table[i & 63] = total
    return now() - start


def speed(units_ns: Sequence[int]) -> float:
    """Sandbox speed relative to nominal (1.0; lower is slower)."""
    return UNIT_NOMINAL_NS / statistics.median(units_ns)


def timed_setup(call: Callable[[], Any]) -> float:
    """Seconds ``call`` takes, at nominal sandbox speed."""
    units = [unit_ns() for _ in range(5)]
    start = time.perf_counter()
    call()
    seconds = time.perf_counter() - start
    units += [unit_ns() for _ in range(5)]
    return seconds * speed(units)


@dataclass
class Stream:
    """One client's calls in the order it made them."""

    begin: int
    kinds: List[str] = field(default_factory=list)
    ends: List[int] = field(default_factory=list)
    lat: List[int] = field(default_factory=list)
    #: (timestamp, unit_ns()) samples taken between calls
    units: List[Tuple[int, int]] = field(default_factory=list)
    next_unit: int = 0

    def record(self, start: int, end: int) -> None:
        """Note one finished call and, when one is due, sample the
        sandbox's speed (between calls, so no call's latency pays)."""
        self.lat.append(end - start)
        self.ends.append(end)
        if end >= self.next_unit:
            self.units.append((end, unit_ns()))
            self.next_unit = now() + UNIT_PERIOD_NS

    def slices(self) -> List["Stream"]:
        """Up to :data:`SLICES` consecutive parts of equal op count,
        each with the unit samples taken inside it (all of the stream's
        when it has none of its own)."""
        count = len(self.ends)
        parts = max(1, min(SLICES, count))
        cuts = [round(i * count / parts) for i in range(parts + 1)]
        out = []
        for low, high in zip(cuts, cuts[1:]):
            begin = self.ends[low - 1] if low else self.begin
            inside = [
                sample for sample in self.units
                if begin <= sample[0] <= self.ends[high - 1]
            ]
            out.append(Stream(
                begin, self.kinds[low:high], self.ends[low:high],
                self.lat[low:high], inside or self.units,
            ))
        return out

    def speed(self) -> float:
        if not self.units:
            return 1.0
        return speed([ns for _at, ns in self.units])

    def seconds(self) -> float:
        """This stream's wall time at nominal sandbox speed."""
        return (self.ends[-1] - self.begin) / 1e9 * self.speed()

    def rate(self) -> float:
        """Calls per second at nominal sandbox speed."""
        return len(self.ends) / self.seconds()

    def latencies(self) -> List[float]:
        """Per-call latencies, ns, at nominal sandbox speed."""
        factor = self.speed()
        return [ns * factor for ns in self.lat]


@dataclass
class PassResult:
    """One run of a workload's op stream."""

    #: wall seconds of the timed section, as measured
    timed_s: float = 0.0
    #: per client, every call in order
    streams: List[Stream] = field(default_factory=list)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    #: what each op returned, for the oracle: a row list or a count
    outputs: List[Any] = field(default_factory=list)
    #: the program's own counters over the timed section
    counters: Dict[str, float] = field(default_factory=dict)
    #: workload-specific end-to-end values (load_rows_per_s, ...)
    extras: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def wrong(self, message: str) -> None:
        """Count one wrong answer; keep the first few for the report."""
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


def fresh_dir(label: str) -> str:
    """An empty scratch directory under :data:`WORK`."""
    path = WORK / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return str(path)


def counters() -> Dict[str, float]:
    """The program's metrics registry, flattened: counters by name,
    histograms as ``<name>.count`` / ``<name>.sum``."""
    snap = observability.snapshot()
    flat: Dict[str, float] = dict(snap["counters"])
    for name, summary in snap["histograms"].items():
        flat[name + ".count"] = summary["count"]
        flat[name + ".sum"] = summary["sum"]
    return flat


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def dir_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


def crash_copy(source: str, target: str) -> None:
    """Copy a live data directory as a crash would leave it.

    Taken between operations of a single autocommit client with
    ``sync=True``, so every byte in the files has been acknowledged and
    fsynced — there is nothing unflushed for the copy to discard.  An
    LSM compaction thread may swap run files mid-copy; the copy is
    retried until the directory listing was stable around it.
    """
    for _attempt in range(20):
        before = sorted(os.listdir(source))
        shutil.rmtree(target, ignore_errors=True)
        try:
            shutil.copytree(source, target)
        except (shutil.Error, OSError):
            continue
        if sorted(os.listdir(source)) == before:
            return
        time.sleep(0.05)
    raise RuntimeError(f"data directory {source} never held still")


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_tables(
    result: PassResult,
    oracle: Oracle,
    execute: Callable[[str], Any],
    tables: Sequence[str],
    where: str,
) -> int:
    """Compare each table's final state with the oracle's; returns the
    live row count."""
    live = 0
    for table in tables:
        got = digest(execute(f"select * from {table}"))
        want = oracle.table_digest(table)
        live += got[0]
        if got != want:
            result.wrong(
                f"{where}: table {table} holds {got[0]} rows "
                f"(digest {got[1][:12]}), oracle {want[0]} "
                f"({want[1][:12]})"
            )
    return live


# ---------------------------------------------------------------------------
# end-to-end metrics of one pass
# ---------------------------------------------------------------------------


def steady_rate(streams: Sequence[Stream]) -> float:
    """Calls per second at nominal sandbox speed: each client's median
    rate over its slices, summed over clients."""
    return sum(
        statistics.median(part.rate() for part in stream.slices())
        for stream in streams
    )


def e2e_metrics(
    result: PassResult,
    classes: Dict[str, str],
    setup_s: Optional[float],
    rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metrics ``result`` has the samples for.

    ``classes`` maps an op kind to its latency class: ``read``,
    ``write`` or ``load`` (bulk calls, which count as calls and rows but
    belong to neither percentile family).

    Every time is first scaled to the sandbox's nominal speed, slice by
    slice.  The four metrics every workload reports are then medians
    over the slices: a neighbour's burst slows a second or so of a run,
    and a median over slices drops it where a whole-run mean would not.
    The per-class metrics are whole-run percentiles of the scaled
    latencies.
    """
    parts = [part for stream in result.streams for part in stream.slices()]
    by_class: Dict[str, List[float]] = {"read": [], "write": [], "load": []}
    for part in parts:
        for kind, ns in zip(part.kinds, part.latencies()):
            by_class[classes[kind]].append(ns)
    calls = sum(len(part.ends) for part in parts)
    out: Dict[str, float] = {}
    if setup_s is not None:
        out["setup_s"] = setup_s
    out["ops_per_s"] = steady_rate(result.streams)
    out["rows_per_s"] = result.rows * out["ops_per_s"] / calls
    out["call_p50_ms"] = statistics.median(
        stats.percentile(part.latencies(), 50) for part in parts
    ) / 1e6
    out["call_tail_ms"] = statistics.median(
        stats.tail_mean(part.latencies(), 0.05, least=TAIL_LEAST)
        for part in parts
    ) / 1e6
    out["peak_rss_mb"] = rss_mb
    out.update(stats.latency_metrics("read", by_class["read"]))
    out.update(stats.latency_metrics("write", by_class["write"]))
    out.update(result.extras)
    out["error_rate"] = ratio(result.failed, result.attempted)
    return out
