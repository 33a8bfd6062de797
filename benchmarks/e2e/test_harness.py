"""Self-tests of the benchmark harness (not tier-1: run with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``)."""

from __future__ import annotations

import collections
import json
import os
import re
import statistics

import pytest

from benchmarks.e2e import compare, gen, harness, run, spans, spec, stats
from benchmarks.e2e.oracle import Oracle, digest
from benchmarks.e2e.runner import run_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# percentiles and the sample-count rules
# ---------------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7], 99) == 7
    assert stats.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_mean_takes_the_slowest_share():
    samples = list(range(1, 101))
    assert stats.tail_mean(samples, 0.05) == (96 + 97 + 98 + 99 + 100) / 5
    assert stats.tail_mean([5, 9], 0.01) == 9  # never fewer than one
    # ... or than ``least``, or all when there are fewer still
    assert stats.tail_mean(list(range(1, 29)), 0.05, least=3) == 27
    assert stats.tail_mean([5, 9], 0.05, least=3) == 7


@pytest.mark.parametrize("count, expected", [
    (0, set()),
    (199, {"write_p50_ms"}),
    (200, {"write_p50_ms", "write_p95_ms"}),
    (999, {"write_p50_ms", "write_p95_ms"}),
    (1000, {"write_p50_ms", "write_p95_ms", "write_stall_ms"}),
])
def test_write_metrics_need_their_samples(count, expected):
    assert set(stats.latency_metrics("write", [1_000_000] * count)) == expected


@pytest.mark.parametrize("count, expected", [
    (1, {"read_p50_ms"}),
    (999, {"read_p50_ms"}),
    (1000, {"read_p50_ms", "read_p99_ms"}),
])
def test_read_p99_needs_a_thousand(count, expected):
    assert set(stats.latency_metrics("read", [1_000_000] * count)) == expected


def test_spread_matches_statistics_quantiles():
    row = stats.spread([10.0, 11.0, 12.0, 13.0, 14.0])
    assert row["median"] == 12.0
    assert row["spread"] == pytest.approx((13.5 - 10.5) / 12.0)
    assert stats.spread([1.0]) is None


# ---------------------------------------------------------------------------
# slices and the sandbox-speed correction
# ---------------------------------------------------------------------------


def _stream(per_call_ns, unit_ns):
    """103 back-to-back calls, with a unit sample after every fifth."""
    stream = harness.Stream(0, ["read"] * 103)
    clock = 0
    for index in range(103):
        clock += per_call_ns(index)
        stream.ends.append(clock)
        stream.lat.append(per_call_ns(index))
        if index % 5 == 0:
            stream.units.append((clock, unit_ns(index)))
    return stream


def test_slices_are_consecutive_and_of_equal_count():
    stream = _stream(lambda i: 1_000, lambda i: harness.UNIT_NOMINAL_NS)
    parts = stream.slices()
    assert len(parts) == harness.SLICES
    assert sorted(len(part.ends) for part in parts)[0] >= 10
    assert sum(len(part.ends) for part in parts) == 103
    assert [part.begin for part in parts[1:]] == [
        part.ends[-1] for part in parts[:-1]
    ]
    assert stream.rate() == pytest.approx(1e9 / 1_000)
    assert harness.steady_rate([stream, stream]) == pytest.approx(2e6)


def test_a_slow_stretch_of_the_sandbox_is_scaled_back_to_nominal():
    # calls 40..69 run on a sandbox at 2/3 speed: they and the unit of
    # reference work both take 1.5x as long
    slow = lambda i: 1.5 if 40 <= i < 70 else 1.0
    stream = _stream(lambda i: int(1_000 * slow(i)),
                     lambda i: int(harness.UNIT_NOMINAL_NS * slow(i)))
    raw = len(stream.ends) / (stream.ends[-1] / 1e9)
    assert raw < 0.9e6
    assert harness.steady_rate([stream]) == pytest.approx(1e6, rel=0.02)
    scaled = [ns for part in stream.slices() for ns in part.latencies()]
    assert max(scaled) <= 1_500 and statistics.median(scaled) == 1_000
    # without samples nothing is scaled
    bare = harness.Stream(0, ["read"], [1_000], [1_000])
    assert bare.speed() == 1.0 and bare.latencies() == [1_000]


def test_one_stalled_slice_does_not_move_the_medians():
    stalled = lambda i: 50_000 if 20 <= i < 30 else 1_000
    stream = _stream(stalled, lambda i: harness.UNIT_NOMINAL_NS)
    assert harness.steady_rate([stream]) == pytest.approx(1e6)
    result = harness.PassResult(streams=[stream], rows=103, attempted=103)
    metrics = harness.e2e_metrics(result, {"read": "read"}, 0.5, 10.0)
    assert metrics["call_p50_ms"] == pytest.approx(0.001)
    assert metrics["call_tail_ms"] == pytest.approx(0.001)
    assert metrics["rows_per_s"] == pytest.approx(1e6)
    assert metrics["read_p50_ms"] == pytest.approx(0.001)
    assert metrics["setup_s"] == 0.5 and metrics["error_rate"] == 0


# ---------------------------------------------------------------------------
# span self time
# ---------------------------------------------------------------------------


def test_self_time_with_nested_and_overlapping_children():
    rows = [
        ("op", 0, 100, None, 1),
        ("a", 10, 40, 0, 1),      # nested
        ("b", 30, 60, 0, 1),      # overlaps a: union is 10..60
        ("c", 90, 120, 0, 1),     # sticks out: only 90..100 counts
        ("grandchild", 12, 20, 1, 1),
    ]
    self_ns, covered = spans.self_times(rows)
    assert covered[0] == 50 + 10
    assert self_ns[0] == 40
    assert self_ns[1] == 30 - 8
    assert self_ns[4] == 8


def test_replayed_children_cover_their_whole_duration():
    rows = [
        ("op", 0, 100, None, 1),
        ("engine", 200, 260, 0, 1),   # replayed after the op
        ("wal", 300, 330, 0, 1),
        ("parser", 400, 450, 1, 1),   # replayed child of the replay
    ]
    self_ns, covered = spans.self_times(rows)
    assert covered[0] == 90 and self_ns[0] == 10
    assert self_ns[1] == 10
    # children may add up to more than the parent: self floors at zero
    rows.append(("executor", 500, 520, 1, 1))
    self_ns, covered = spans.self_times(rows)
    assert covered[1] == 70 and self_ns[1] == 0


def test_tracer_spans_nest_and_extend_rebases_parents():
    first, second = spans.Tracer(), spans.Tracer()
    first.add("op", 0, 10)
    with second.span("outer") as outer:
        with second.span("inner", outer.id):
            pass
    first.extend(second)
    names = [row[0] for row in first.rows]
    assert names == ["op", "outer", "inner"]
    assert first.rows[2][3] == 1  # inner's parent followed outer
    self_ns, _covered = spans.self_times(first.rows)
    assert self_ns[1] <= first.rows[1][2] - first.rows[1][1]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _sizes(workload):
    return spec.sizes_for(workload, smoke=True, seconds=spec.RUN_SECONDS)


@pytest.mark.parametrize("maker, workload", [
    (gen.sqlj_oltp_inputs, "sqlj_oltp"),
    (gen.remote_inputs, "remote_read_mix"),
    (gen.ingest_inputs, "ingest_lsm"),
    (gen.analytic_inputs, "analytic_scan"),
])
def test_generators_are_deterministic_per_seed(maker, workload):
    sizes = _sizes(workload)
    assert maker(7, sizes) == maker(7, sizes)
    assert maker(7, sizes) != maker(8, sizes)


def test_ingest_engines_get_the_same_stream():
    a = gen.ingest_inputs(3, _sizes("ingest_snapshot"))
    b = gen.ingest_inputs(3, _sizes("ingest_lsm"))
    assert a == b


def test_mix_is_exact_for_every_seed():
    sizes = _sizes("sqlj_oltp")
    blocks = sizes["ops"] // sum(spec.MIX["sqlj_oltp"].values())
    for seed in (1, 2, 3):
        kinds = collections.Counter(
            kind for kind, _p, _s in gen.sqlj_oltp_inputs(seed, sizes)["ops"]
        )
        assert kinds == {
            kind: count * blocks
            for kind, count in spec.MIX["sqlj_oltp"].items()
        }


def test_sample_flags_pick_one_per_period():
    kinds = ["a", "b"] * 60
    flags = gen.sample_flags(gen.rng_for(1, "t"), kinds, {"a": 10, "b": 4})
    picked = collections.Counter(k for k, f in zip(kinds, flags) if f)
    assert picked == {"a": 6, "b": 15}


def test_zipf_is_skewed_and_seeded():
    zipf = gen.Zipf(1_000, gen.rng_for(5, "z"))
    draws = collections.Counter(zipf.rank() for _ in range(20_000))
    # weight of rank r is 1/(r+1)^1.1: rank 0 draws 2^1.1 = 2.1x rank 1
    assert draws[0] > draws[1] > draws[9] > draws[99]
    assert 1.6 < draws[0] / draws[1] < 2.8
    top_ten = sum(draws[r] for r in range(10)) / 20_000
    assert 0.35 < top_ten < 0.60  # uniform would be 0.01
    one = gen.Zipf(1_000, gen.rng_for(5, "z"))
    two = gen.Zipf(1_000, gen.rng_for(5, "z"))
    assert [one.key() for _ in range(50)] == [two.key() for _ in range(50)]


def test_analytic_texts_split_between_repeated_and_new():
    ops = gen.analytic_inputs(4, _sizes("analytic_scan"))["ops"]
    repeated = {sql for _k, (sql, distinct, _b), _s in ops if not distinct}
    fresh = [sql for _k, (sql, distinct, _b), _s in ops if distinct]
    assert len(repeated) <= 8
    assert len(fresh) == len(set(fresh)) == len(ops) // 2
    assert not repeated & set(fresh)


# ---------------------------------------------------------------------------
# the contract: names, units, BENCHMARK.json
# ---------------------------------------------------------------------------


def test_names_and_units_are_well_formed_and_unique():
    names = (spec.WORKLOAD_NAMES + spec.E2E_NAMES
             + [name for name, _u, _b in spec.per_layer_declared()])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    units = [row[1] for row in spec.E2E] + [row[1] for row in spec.LAYERS]
    for unit in units:
        assert UNIT.match(unit), unit
    for row in spec.E2E + spec.LAYERS:
        assert row[2] in ("higher", "lower")


def test_benchmark_json_is_the_spec_and_fits_the_drivers_schema():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        text = f.read()
    declared = json.loads(text)
    assert declared == spec.benchmark_json()
    assert len(text.encode("utf-8")) <= 64 * 1024
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(declared["workloads"]) <= 8
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(declared["end_to_end"]) <= 16
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in declared["end_to_end"])}]
    assert 1 <= len(declared["per_layer"]) <= 128
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert 1 <= declared["run_seconds"] <= 60
    for part in declared["command"][1:]:
        assert part.startswith(tuple(declared["paths"]))


def test_readme_names_every_workload_and_metric():
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    for name in (spec.WORKLOAD_NAMES + spec.E2E_NAMES + spec.LAYER_NAMES):
        assert f"`{name}`" in readme, name


def test_sizes_scale_ops_in_whole_blocks_and_never_tables():
    full = spec.sizes_for("sqlj_oltp", smoke=False, seconds=10)
    half = spec.sizes_for("sqlj_oltp", smoke=False, seconds=5)
    assert half["accounts"] == full["accounts"]
    assert half["ops"] % 20 == 0 and full["ops"] % 20 == 0
    assert abs(half["ops"] * 2 - full["ops"]) <= 20
    assert spec.sizes_for("ingest_lsm", smoke=True, seconds=10)["mode"] == \
        "smoke"


# ---------------------------------------------------------------------------
# the oracle notices
# ---------------------------------------------------------------------------


def test_a_wrong_table_counts_as_a_failed_op():
    oracle = Oracle(["create table t (k integer, v integer)"])
    oracle.load("insert into t values (?, ?)", [(1, 10), (2, 20)])
    result = harness.PassResult(attempted=2)
    rows = {"select * from t": [[2, 20], [1, 10]]}
    assert harness.check_tables(result, oracle, rows.__getitem__,
                                ["t"], "here") == 2
    assert result.failed == 0
    rows["select * from t"] = [[1, 10], [2, 21]]
    harness.check_tables(result, oracle, rows.__getitem__, ["t"], "here")
    assert result.failed == 1 and "table t" in result.problems[0]
    assert digest([(1, 2)]) != digest([(1, 3)])


# ---------------------------------------------------------------------------
# every workload, at smoke size, end to end
# ---------------------------------------------------------------------------

#: metrics whose presence depends on the sample count (absent at smoke)
GATED = {"read_p99_ms", "write_p95_ms", "write_stall_ms"}
ZERO_WHEN_NOT_DURABLE = ("wal.", "durability.", "lsm.")


@pytest.fixture(scope="module")
def smoke_reports():
    reports = {}
    try:
        for name in spec.WORKLOAD_NAMES:
            reports[name] = run_workload(name, 11, smoke=True, trace=True)
    finally:
        import shutil
        shutil.rmtree(harness.WORK, ignore_errors=True)
    return reports


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_workload_passes_its_oracle_and_emits_what_it_declares(
    smoke_reports, name
):
    report = smoke_reports[name]
    assert report["correct"] and report["failed"] == 0, report["problems"]
    assert report["end_to_end"]["error_rate"] == 0
    emitted = set(report["end_to_end"])
    declared = set(spec.e2e_declared(name))
    assert emitted <= declared
    assert declared - emitted <= GATED
    assert set(spec.UNIVERSAL) <= emitted
    assert all(report["end_to_end"][m] > 0 for m in spec.UNIVERSAL)
    assert set(report["per_layer"]) <= set(spec.LAYER_NAMES)
    for key in ("trace.overhead_pct", "trace.spans",
                "trace.budget_overrun_pct"):
        assert key in report["per_layer"]


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_driver_lines_carry_exactly_the_declared_metrics(smoke_reports, name):
    report = smoke_reports[name]
    untraced = json.loads(run.driver_line(report, trace=False))
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert list(untraced["metrics"]) == list(spec.UNIVERSAL)
    assert untraced["attempted"] >= 1 and untraced["failed"] == 0
    traced = json.loads(run.driver_line(report, trace=True))
    assert list(traced["metrics"]) == [
        metric for metric, _u, _b in spec.per_layer_declared()
    ]
    for metric, unit, _b in spec.per_layer_declared():
        assert traced["metrics"][metric]["unit"] == unit


def test_layers_are_isolated(smoke_reports):
    for name in ("remote_read_mix", "analytic_scan"):
        layers = smoke_reports[name]["per_layer"]
        for metric, value in layers.items():
            if metric.startswith(ZERO_WHEN_NOT_DURABLE):
                assert value == 0, (name, metric)
    snapshot = smoke_reports["ingest_snapshot"]["per_layer"]
    assert all(v == 0 for m, v in snapshot.items() if m.startswith("lsm."))
    assert smoke_reports["ingest_lsm"]["per_layer"]["lsm.flushes"] > 0
    for name in spec.WORKLOAD_NAMES:
        if name == "remote_read_mix":
            continue
        layers = smoke_reports[name]["per_layer"]
        assert not [m for m in layers
                    if m.startswith(("protocol.", "remote.", "server."))]
    remote = smoke_reports["remote_read_mix"]["per_layer"]
    assert remote["remote.wire_tax_us"] > remote["engine.select_us"]
    assert remote["protocol.frames_per_op"] == 2.0
    assert smoke_reports["sqlj_oltp"]["per_layer"]["plancache.hit_rate"] >= 0.95
    analytic = smoke_reports["analytic_scan"]["per_layer"]
    assert analytic["plancache.hit_rate"] <= 0.6
    assert analytic["plancache.evictions"] > 0
    assert analytic["executor.run_us"] == max(
        v for m, v in analytic.items() if m.endswith("_us")
        and not m.startswith("engine.")
    )


def test_exact_counts_repeat_for_a_seed(smoke_reports):
    exact = ("wal.fsyncs_per_commit", "wal.bytes_per_commit",
             "plancache.hit_rate", "durability.checkpoints", "lsm.flushes",
             "executor.rows_scanned_per_row_out")
    try:
        again = run_workload("ingest_lsm", 11, smoke=True, trace=True)
    finally:
        import shutil
        shutil.rmtree(harness.WORK, ignore_errors=True)
    first = smoke_reports["ingest_lsm"]["per_layer"]
    for metric in exact:
        assert again["per_layer"][metric] == first[metric], metric


# ---------------------------------------------------------------------------
# compare and the committed result sets
# ---------------------------------------------------------------------------


def _write(directory, reports):
    os.makedirs(directory, exist_ok=True)
    for index, report in enumerate(reports):
        with open(os.path.join(directory, f"{index}.json"), "w") as handle:
            json.dump(report, handle)


def test_compare_agrees_with_itself_and_refuses_mixed_modes(
    smoke_reports, tmp_path, capsys
):
    reports = list(smoke_reports.values())
    _write(tmp_path / "a", reports)
    _write(tmp_path / "b", reports)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    full = [dict(report, mode="full") for report in reports]
    _write(tmp_path / "c", full)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 2
    assert "refusing" in capsys.readouterr().err
    slower = [
        dict(r, end_to_end=dict(r["end_to_end"],
                                ops_per_s=r["end_to_end"]["ops_per_s"] / 2))
        for r in reports
    ]
    _write(tmp_path / "d", slower)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "d")]) == 1


def test_committed_full_size_results_emit_exactly_the_declared_metrics():
    results = os.path.join(HERE, "results")
    sets = sorted(
        entry for entry in os.listdir(results)
        if os.path.isdir(os.path.join(results, entry))
    )
    assert len(sets) >= 2
    for entry in sets:
        reports = compare.load(os.path.join(results, entry))
        assert {r["workload"] for r in reports} == set(spec.WORKLOAD_NAMES)
        for report in reports:
            assert report["mode"] == "full" and report["correct"]
            assert set(report["end_to_end"]) == set(
                spec.e2e_declared(report["workload"])
            ), report["workload"]
