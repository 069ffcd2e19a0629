"""Unit tests of the telemetry substrate: metrics, spans, caches, exporters."""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.caches import (
    CacheStats,
    Memo,
    cache_stats,
    clear_caches,
    register_cache,
    registered_caches,
    unregister_cache,
)
from repro.telemetry.context import Telemetry, activate, get_active
from repro.telemetry.exporters import (
    export_jsonl,
    parse_jsonl,
    validate_snapshot,
)
from repro.telemetry.registry import MetricsRegistry, metric_key
from repro.telemetry.spans import Tracer, VirtualClock


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("serve/requests", {}) == "serve/requests"

    def test_labels_sorted(self):
        key = metric_key("x", {"b": "2", "a": "1"})
        assert key == 'x{a="1",b="2"}'


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("n").inc(-1)

    def test_counter_identity_per_label_set(self):
        registry = MetricsRegistry()
        registry.counter("n", model="a").inc()
        registry.counter("n", model="b").inc(2)
        snap = registry.snapshot()
        assert snap["counters"] == {'n{model="a"}': 1, 'n{model="b"}': 2}

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(-3)
        gauge.inc()
        assert gauge.value == 8


class TestHistogram:
    def test_empty_percentile_raises(self):
        histogram = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            histogram.percentile(50)

    def test_empty_snapshot_percentiles_none(self):
        data = MetricsRegistry().histogram("h").snapshot()
        assert data["count"] == 0
        assert data["p50"] is None and data["p95"] is None and data["p99"] is None
        assert data["min"] is None and data["mean"] is None

    def test_single_sample_is_every_percentile(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(0.25)
        for p in (1, 50, 95, 99, 100):
            assert histogram.percentile(p) == 0.25

    def test_all_equal_samples(self):
        histogram = MetricsRegistry().histogram("h")
        for _ in range(17):
            histogram.observe(2.0)
        assert histogram.percentile(50) == 2.0
        assert histogram.percentile(99) == 2.0
        assert histogram.min == histogram.max == 2.0

    def test_nearest_rank_hand_pinned(self):
        # Ten samples 1..10: nearest-rank p95 -> ceil(9.5)-1 = index 9 -> 10,
        # p50 -> ceil(5)-1 = index 4 -> 5.
        histogram = MetricsRegistry().histogram("h", buckets=(100.0,))
        for v in range(1, 11):
            histogram.observe(float(v))
        assert histogram.percentile(50) == 5.0
        assert histogram.percentile(95) == 10.0
        assert histogram.percentile(90) == 9.0

    def test_bucket_counts_and_overflow(self):
        histogram = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 50.0):
            histogram.observe(v)
        assert histogram.bucket_counts == [2, 1]  # bounds are inclusive
        assert histogram.overflow == 1
        assert histogram.count == 4

    def test_bad_bucket_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("a", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("b", buckets=(2.0, 1.0))

    def test_max_samples_truncation_flagged(self):
        histogram = MetricsRegistry().histogram("h", max_samples=2)
        for v in (1.0, 2.0, 3.0):
            histogram.observe(v)
        assert histogram.truncated
        assert histogram.count == 3  # aggregates still exact
        assert histogram.snapshot()["truncated"] is True


class TestRegistryModes:
    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.clear()
        assert registry.snapshot()["counters"] == {}


class TestSpans:
    def test_virtual_clock_nesting_and_durations(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock.now)
        with tracer.span("outer", kind="test"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.5)
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer" and outer.duration_s == 1.5
        assert outer.children[0].name == "inner"
        assert outer.children[0].duration_s == 0.5
        assert outer.attrs == {"kind": "test"}

    def test_record_span_nests_with_explicit_times(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock.now)
        with tracer.span("outer"):
            recorded = tracer.record_span("virtual", 10.0, 12.5, source="sim")
        virtual = tracer.roots[0].children[0]
        assert virtual is recorded
        assert virtual.start_s == 10.0 and virtual.end_s == 12.5
        assert virtual.duration_s == 2.5

    def test_record_span_rejects_negative_interval(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.record_span("bad", 2.0, 1.0)

    def test_threaded_children_adopt_parent(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock.now)
        with tracer.span("parent") as parent:
            def work(index: int) -> None:
                with tracer.attach(parent):
                    tracer.record_span(f"child{index}", index, index + 1)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        names = sorted(child.name for child in tracer.roots[0].children)
        assert names == ["child0", "child1", "child2", "child3"]

    def test_thread_stacks_are_independent(self):
        tracer = Tracer()
        seen = []

        def work():
            # A fresh thread has no inherited current span.
            seen.append(tracer.current)
            with tracer.span("threaded"):
                pass

        with tracer.span("main"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        assert seen == [None]
        assert sorted(root.name for root in tracer.roots) == ["main", "threaded"]

    def test_totals_and_find(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock.now)
        for _ in range(3):
            with tracer.span("work"):
                clock.advance(2.0)
        totals = tracer.totals()
        assert totals["work"] == {"count": 3, "total_s": 6.0}
        assert [span.name for span in tracer.roots[0].walk()] == ["work"]


class TestActivation:
    def test_activate_scopes_and_restores(self):
        assert get_active() is None
        telemetry = Telemetry()
        with activate(telemetry) as active:
            assert active is telemetry and get_active() is telemetry
            other = Telemetry()
            with activate(other):
                assert get_active() is other
            assert get_active() is telemetry
        assert get_active() is None


class TestCacheRegistry:
    def test_register_and_unregister(self):
        stats = CacheStats(hits=3, misses=1, evictions=0, size=2, capacity=8)
        register_cache("test.family", lambda: stats)
        try:
            assert "test.family" in registered_caches()
            assert cache_stats()["test.family"] is stats
        finally:
            unregister_cache("test.family")
        assert "test.family" not in registered_caches()

    def test_cache_owners_register_exactly_their_families(self):
        # Package __init__s load no cache owner, so a fresh interpreter
        # imports each owning module by name.
        code = (
            "import repro.core.model_plan, repro.core.plan\n"
            "import repro.dse.compiled, repro.dse.explorer\n"
            "import repro.hw.accelerator, repro.hw.tiling\n"
            "from repro.telemetry.caches import registered_caches\n"
            "print(' '.join(registered_caches()))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "core.model_plan", "core.plan", "dse.buffers", "dse.compiled",
            "hw.sim", "hw.windows",
        ]

    def test_cache_stats_derived_fields(self):
        stats = CacheStats(hits=3, misses=1, evictions=2, size=4, capacity=8)
        assert stats.hit_rate == 0.75
        assert CacheStats(hits=0, misses=0, evictions=0, size=0).hit_rate == 0.0
        data = stats.as_dict()
        assert data["hits"] == 3 and data["hit_rate"] == 0.75


class _Owner:
    """A weak-referenceable stand-in for a pipeline or workload."""


@pytest.fixture
def memo():
    memo = Memo("test.memo", capacity=2)
    yield memo
    unregister_cache("test.memo")


class TestMemo:
    def test_lru_order_and_evictions(self, memo):
        assert memo.get("a", lambda: 1) == 1
        assert memo.get("b", lambda: 2) == 2
        assert memo.get("a", lambda: 0) == 1  # hit; "a" is now newest
        assert memo.get("c", lambda: 3) == 3  # evicts "b", the oldest
        assert memo.get("a", lambda: 0) == 1
        assert memo.get("b", lambda: 4) == 4  # rebuilt; evicts "c"
        assert len(memo) == 2
        stats = memo.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (2, 4, 2)

    def test_owner_entries_dropped_on_collect(self, memo):
        owner, other = _Owner(), _Owner()
        first = memo.get("k", object, owner=owner)
        assert memo.get("k", object, owner=owner) is first
        assert memo.get("k", object, owner=other) is not first
        del owner
        gc.collect()
        assert len(memo) == 1
        assert memo.stats().evictions == 1
        memo.clear()
        del other
        gc.collect()  # a cleared memo detaches its finalizers
        assert memo.stats().evictions == 0

    def test_first_insert_wins_under_threads(self, memo):
        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def worker(i):
            barrier.wait()
            results[i] = memo.get("shared", object)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is results[0] for result in results)
        stats = memo.stats()
        assert stats.size == 1 and stats.hits + stats.misses == 8

    def test_stats_and_registration(self, memo):
        memo.get("a", lambda: 1)
        memo.get("a", lambda: 1)
        assert "test.memo" in registered_caches()
        stats = cache_stats()["test.memo"]
        assert stats == memo.stats()
        assert (stats.name, stats.capacity, stats.size) == ("test.memo", 2, 1)
        assert (stats.hits, stats.misses, stats.hit_rate) == (1, 1, 0.5)
        with pytest.raises(ValueError):
            Memo("test.memo.empty", capacity=0)

    def test_clear_caches_resets_every_family(self, memo):
        import repro.cli  # noqa: F401  (registers every family)
        from repro.core.specs import conv_spec
        from repro.hw.tiling import plan_layer_windows

        memo.get("a", lambda: 1)
        plan_layer_windows(conv_spec("c", 3, 4, kernel=3, in_rows=8, in_cols=8), 64, 4)
        assert cache_stats()["hw.windows"].size >= 1
        clear_caches()
        for name, stats in cache_stats().items():
            assert (stats.hits, stats.misses, stats.size) == (0, 0, 0), name


def _sample_snapshot():
    clock = VirtualClock()
    telemetry = Telemetry(clock=clock.now)
    with activate(telemetry):
        registry = telemetry.registry
        registry.counter("serve/requests", model="tiny").inc(8)
        registry.gauge("serve/depth").set(3)
        histogram = registry.histogram("serve/latency_s")
        for value in (1e-4, 2e-3, 2e-3, 0.7):
            histogram.observe(value)
        with telemetry.span("request", batch_id=0):
            clock.advance(1e-3)
            with telemetry.span("batch", size=2):
                clock.advance(2e-3)
        return telemetry.snapshot()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
_KINDS = ("meta", "counter", "gauge", "histogram", "cache", "span", "span_total")
#: Records of every kind with any subset of their fields, each holding any
#: JSON value.
_RECORDS = st.fixed_dictionaries(
    {"kind": st.sampled_from(_KINDS)},
    optional={"name": _JSON, "value": _JSON, "data": _JSON, "schema": _JSON},
)
#: Arbitrary JSON values, arbitrary records, and records cut short.
_JSONL_LINES = st.one_of(
    _JSON.map(json.dumps),
    _RECORDS.map(json.dumps),
    _RECORDS.map(json.dumps).flatmap(
        lambda line: st.integers(0, len(line)).map(lambda cut: line[:cut])
    ),
)


class TestExporters:
    def test_jsonl_round_trip_is_exact(self):
        snapshot = _sample_snapshot()
        assert parse_jsonl(export_jsonl(snapshot)) == snapshot

    def test_parse_rejects_bad_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            parse_jsonl('{"kind": "meta"}\nnot json\n')

    def test_parse_rejects_unknown_kind(self):
        line = json.dumps({"kind": "mystery"})
        with pytest.raises(ValueError, match="unknown record kind"):
            parse_jsonl(line)

    @pytest.mark.parametrize("line", ["[1]", "3", "null", '"counter"', "true"])
    def test_parse_rejects_non_object(self, line):
        with pytest.raises(ValueError, match="line 2: expected a JSON object"):
            parse_jsonl('{"kind": "meta"}\n' + line)

    @pytest.mark.parametrize(
        "record, missing",
        [
            ({"kind": "counter"}, "name, value"),
            ({"kind": "gauge", "name": "g"}, "value"),
            ({"kind": "histogram", "data": {}}, "name"),
            ({"kind": "span"}, "data"),
        ],
    )
    def test_parse_rejects_record_lacking_field(self, record, missing):
        with pytest.raises(ValueError, match=f"line 1: .* lacks {missing}$"):
            parse_jsonl(json.dumps(record))

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(_JSONL_LINES, min_size=1, max_size=4))
    def test_parse_fails_only_with_a_line_numbered_value_error(self, lines):
        try:
            snapshot = parse_jsonl("\n".join(lines))
        except ValueError as error:
            number = int(str(error).split(":")[0].removeprefix("line "))
            assert 1 <= number <= len(lines)
        else:
            assert set(snapshot) == {
                "schema", "counters", "gauges", "histograms", "caches",
                "spans", "span_totals",
            }

    def test_validate_accepts_good_snapshot(self):
        assert validate_snapshot(_sample_snapshot()) == []

    def test_validate_flags_inconsistent_histogram(self):
        snapshot = _sample_snapshot()
        name = next(iter(snapshot["histograms"]))
        snapshot["histograms"][name]["count"] += 1
        problems = validate_snapshot(snapshot)
        assert any("bucket counts" in p for p in problems)

    def test_validate_flags_bad_schema_and_span(self):
        assert validate_snapshot({"schema": "nope"})  # missing sections
        snapshot = _sample_snapshot()
        snapshot["spans"][0]["end_s"] = snapshot["spans"][0]["start_s"] - 1
        assert any("ends before" in p for p in validate_snapshot(snapshot))

    def test_validate_flags_negative_counter(self):
        snapshot = _sample_snapshot()
        snapshot["counters"]["bad"] = -1
        assert any("bad" in p for p in validate_snapshot(snapshot))
