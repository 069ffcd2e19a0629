"""Backpressure, SLO classes, autoscaling and fleet accounting.

Covers the serving-control surface of the event-driven engine: admission
control rejects the best-effort class before the latency-sensitive class
under over-offered load, rejections surface with reasons in both
``ServeStats`` and the telemetry snapshot (which stays schema-valid), the
autoscaler's scale-up/scale-down trajectory is recorded, and the
registry's percentiles stay *identical* to the ``ServeStats`` arithmetic.
"""

import numpy as np
import pytest

from repro.serve.events import BatchPolicy, EventDrivenSimulator, SLOClass
from repro.serve.fleet import AutoscalePolicy, Fleet, ServiceProfile
from repro.serve.loadgen import LoadTrace, poisson_trace, uniform_trace
from repro.telemetry.context import Telemetry
from repro.telemetry.exporters import validate_snapshot

PROFILE = ServiceProfile(fpga_s=2e-3, host_s=1e-3, dense_ops_per_image=1234)


def _overload_classes(queue_limit=16):
    return (
        SLOClass("latency-sensitive", priority=0, target_latency_s=20e-3),
        SLOClass("best-effort", priority=1, queue_limit=queue_limit),
    )


def _overloaded_run(telemetry=None, queue_limit=16):
    """3x over-offered load, 30% latency-sensitive / 70% best-effort.

    The latency-sensitive share alone stays under capacity, so strict
    priority keeps its queue short while best-effort absorbs the whole
    backlog — the backpressure shape the SLO split is for.
    """
    capacity = PROFILE.capacity_rps
    trace = poisson_trace(
        4_000,
        3.0 * capacity,
        seed=11,
        slo_mix={"latency-sensitive": 0.3, "best-effort": 0.7},
    )
    engine = EventDrivenSimulator(
        PROFILE,
        BatchPolicy(max_batch=8, max_wait_s=2e-3),
        classes=_overload_classes(queue_limit),
        telemetry=telemetry,
        record_spans=False,
    )
    return engine.run_trace(trace)


class TestBackpressure:
    def test_best_effort_rejected_before_latency_sensitive(self):
        report = _overloaded_run()
        assert report.rejected > 0
        stats = report.stats
        by_class = stats.rejections_by_class()
        assert by_class.get("best-effort", 0) > 0
        # The latency-sensitive class rides out the overload unharmed.
        assert by_class.get("latency-sensitive", 0) == 0
        # And every rejection is the admission-control reason.
        assert stats.rejections_by_reason() == {
            "queue_full": report.rejected
        }
        # The first rejected request is best-effort — backpressure starts
        # at the bottom of the priority order.
        assert report.rejections[0].slo == "best-effort"

    def test_rejections_in_serve_stats(self):
        report = _overloaded_run()
        stats = report.stats
        assert stats.rejected_count == report.rejected
        assert stats.offered_count == report.offered
        assert stats.count + stats.rejected_count == report.offered
        assert 0 < stats.rejection_rate < 1
        rendered = stats.render()
        assert "rejected:" in rendered
        assert "queue_full" in rendered
        assert "best-effort" in rendered

    def test_rejections_in_telemetry_snapshot(self):
        telemetry = Telemetry()
        report = _overloaded_run(telemetry=telemetry)
        snapshot = telemetry.snapshot()
        validate_snapshot(snapshot)
        counters = snapshot["counters"]
        rejected_key = (
            'serve/rejected{reason="queue_full",slo="best-effort"}'
        )
        assert counters[rejected_key] == report.rejected
        assert counters["serve/offered"] == report.offered
        assert counters["serve/requests"] == report.served

    def test_queue_limit_bounds_pending(self):
        """Admitted-but-unstarted best-effort never exceeds queue_limit."""
        limit = 5
        report = _overloaded_run(queue_limit=limit)
        # Reconstruct the pending count of the class from the records.
        outcomes = [o for o in report.outcomes if o.slo == "best-effort"]
        rejections = [
            r for r in report.rejections if r.slo == "best-effort"
        ]
        events = sorted(
            [(o.arrival_s, 0, 1) for o in outcomes]
            + [(o.start_s, -1, -1) for o in outcomes]
            + [(r.arrival_s, 0, 0) for r in rejections]
        )
        depth = 0
        for _, _, delta in events:
            depth += delta
            assert depth <= limit

    def test_latency_sensitive_latency_is_bounded_under_overload(self):
        report = _overloaded_run()
        stats = report.stats
        p99_sensitive = stats.latency_percentile_s(99, slo="latency-sensitive")
        p99_effort = stats.latency_percentile_s(99, slo="best-effort")
        assert p99_sensitive < p99_effort


class TestSLOClasses:
    def test_slo_class_validation(self):
        with pytest.raises(ValueError, match="name"):
            SLOClass("")
        with pytest.raises(ValueError, match="queue_limit"):
            SLOClass("x", queue_limit=0)
        # Batching windows are gone, and so is the per-class deadline.
        with pytest.raises(TypeError, match="max_wait_s"):
            SLOClass("x", max_wait_s=1e-3)
        with pytest.raises(ValueError, match="target_latency_s"):
            SLOClass("x", target_latency_s=0.0)

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EventDrivenSimulator(
                PROFILE,
                BatchPolicy(),
                classes=(SLOClass("a"), SLOClass("a")),
            )

    def test_stats_slo_classes_listing(self):
        report = _overloaded_run()
        assert report.stats.slo_classes() == [
            "best-effort", "latency-sensitive"
        ]
        with pytest.raises(ValueError, match="no responses"):
            report.stats.latencies_s(slo="missing")


class TestAutoscaling:
    def test_scale_up_then_down(self):
        """A burst scales the fleet up; the idle tail scales it back."""
        capacity = PROFILE.capacity_rps
        trace = uniform_trace(600, 2.5 * capacity, seed=0)
        policy = AutoscalePolicy(
            min_instances=1,
            max_instances=4,
            check_interval_s=5e-3,
            scale_up_queue_per_instance=4.0,
        )
        engine = EventDrivenSimulator(
            PROFILE,
            BatchPolicy(max_batch=8, max_wait_s=2e-3),
            instances=1,
            autoscale=policy,
        )
        report = engine.run_trace(trace)
        assert report.served == 600
        assert report.peak_instances > 1
        assert report.final_instances == policy.min_instances
        actions = [e.action for e in report.scale_events]
        assert "up" in actions and "down" in actions
        # Ups strictly precede downs here: one burst, one drain.
        assert actions.index("down") > actions.index("up")
        for event in report.scale_events:
            assert 1 <= event.instances <= policy.max_instances
            assert event.reason

    def test_autoscale_speeds_up_the_burst(self):
        capacity = PROFILE.capacity_rps
        trace = uniform_trace(400, 3.0 * capacity, seed=0)
        batch = BatchPolicy(max_batch=8, max_wait_s=2e-3)
        fixed = EventDrivenSimulator(PROFILE, batch, instances=1)
        scaled = EventDrivenSimulator(
            PROFILE,
            batch,
            instances=1,
            autoscale=AutoscalePolicy(
                min_instances=1, max_instances=4, check_interval_s=2e-3,
                scale_up_queue_per_instance=4.0,
            ),
        )
        fixed_span = fixed.run_trace(trace).makespan_s
        scaled_span = scaled.run_trace(trace).makespan_s
        assert scaled_span < fixed_span

    def test_initial_instances_must_fit_policy(self):
        with pytest.raises(ValueError, match="min_instances"):
            EventDrivenSimulator(
                PROFILE,
                BatchPolicy(),
                instances=8,
                autoscale=AutoscalePolicy(min_instances=1, max_instances=4),
            )

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="min_instances"):
            AutoscalePolicy(min_instances=0)
        with pytest.raises(ValueError, match="max_instances"):
            AutoscalePolicy(min_instances=3, max_instances=2)
        with pytest.raises(ValueError, match="check_interval_s"):
            AutoscalePolicy(check_interval_s=0.0)


class TestFleetAccounting:
    def test_spawn_retire_ids_never_reused(self):
        fleet = Fleet(PROFILE, instances=2)
        assert [w.instance_id for w in fleet.active] == [0, 1]
        spawned = fleet.spawn(1.0)
        assert spawned.instance_id == 2
        retired = fleet.retire_idle(2.0)
        assert retired is not None and retired.instance_id == 2
        respawned = fleet.spawn(3.0)
        assert respawned.instance_id == 3  # never 2 again
        assert fleet.peak_size == 3
        assert sorted(fleet.busy_seconds()) == [0, 1, 2, 3]

    def test_active_stays_in_ascending_id_order(self):
        """The engine's lowest-id tie rules walk ``active`` in order."""
        fleet = Fleet(PROFILE, instances=3)
        rng = np.random.default_rng(0)
        now = 0.0
        for _ in range(200):
            now += 1.0
            # Random instances stay busy past ``now``, so retirement has
            # to skip over them and removes from the middle of the list.
            for worker in fleet.active:
                worker.tail_s = now + rng.integers(0, 2)
            if rng.random() < 0.5:
                fleet.spawn(now)
            elif fleet.size > 1:
                retired = fleet.retire_idle(now)
                if retired is not None:
                    idle = [w for w in fleet.active if w.idle_at(now)]
                    assert all(
                        w.instance_id < retired.instance_id for w in idle
                    )
            ids = [w.instance_id for w in fleet.active]
            assert ids == sorted(ids)
        assert fleet.retired and fleet.peak_size > 3

    def test_busy_instances_not_retired(self):
        fleet = Fleet(PROFILE, instances=1)
        fleet.active[0].tail_s = 10.0  # streaming until t=10
        assert fleet.retire_idle(5.0) is None
        assert fleet.retire_idle(10.0) is not None

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="stage times"):
            ServiceProfile(fpga_s=0.0, host_s=1e-3)
        with pytest.raises(ValueError, match="dense ops"):
            ServiceProfile(fpga_s=1e-3, host_s=0.0, dense_ops_per_image=-1)
        profile = ServiceProfile(fpga_s=2e-3, host_s=3e-3)
        assert profile.step_s == 3e-3
        assert profile.fill_s == 5e-3
        assert profile.capacity_rps == pytest.approx(1 / 3e-3)


class TestTelemetryParity:
    def test_registry_percentiles_equal_serve_stats(self):
        """Same nearest-rank arithmetic on both surfaces: equal floats."""
        telemetry = Telemetry()
        report = _overloaded_run(telemetry=telemetry)
        stats = report.stats
        latency = telemetry.registry.histogram("serve/latency_s")
        for p in (50.0, 95.0, 99.0, 99.9):
            assert latency.percentile(p) == stats.latency_percentile_s(p)
        for slo in stats.slo_classes():
            family = telemetry.registry.histogram("serve/latency_s", slo=slo)
            assert family.percentile(99) == stats.latency_percentile_s(
                99, slo=slo
            )

    def test_gauges_mirror_report(self):
        telemetry = Telemetry()
        report = _overloaded_run(telemetry=telemetry)
        gauges = telemetry.snapshot()["gauges"]
        assert gauges["serve/makespan_s"] == report.makespan_s
        assert gauges["serve/requests_per_second"] == (
            report.requests_per_second
        )
        assert gauges["serve/max_queue_depth"] == report.max_queue_depth
        assert gauges["serve/instances"] == report.final_instances

    def test_span_tree_when_records_collected(self):
        telemetry = Telemetry()
        engine = EventDrivenSimulator(
            PROFILE,
            BatchPolicy(max_batch=4, max_wait_s=1e-3),
            telemetry=telemetry,
        )
        report = engine.run_trace(
            LoadTrace("t", np.arange(10) * 5e-4, np.zeros(10))
        )
        roots = telemetry.tracer.roots
        assert len(roots) == len(report.batches)
        for root in roots:
            assert root.name == "request"
            assert [c.name for c in root.children] == ["batch"]
            (child,) = root.children
            assert child.start_s >= root.start_s
            assert child.end_s == root.end_s
        validate_snapshot(telemetry.snapshot())

    def test_observe_many_equals_looped_observe(self):
        """The vectorized bulk path is semantically the scalar path."""
        from repro.telemetry.registry import MetricsRegistry

        values = np.random.default_rng(0).exponential(1e-3, size=500)
        values[:50] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 20.0,
                       0.0] * 5  # exact bucket boundaries + overflow + zero
        bulk_registry = MetricsRegistry()
        loop_registry = MetricsRegistry()
        bulk = bulk_registry.histogram("h")
        loop = loop_registry.histogram("h")
        bulk.observe_many(values)
        for value in values:
            loop.observe(value)
        bulk_snap, loop_snap = bulk.snapshot(), loop.snapshot()
        # The running sum accumulates in a different (pairwise) order, so
        # it may differ in the final ULPs; everything else is identical.
        for key in ("sum", "mean"):
            assert bulk_snap.pop(key) == pytest.approx(
                loop_snap.pop(key), rel=1e-12
            )
        assert bulk_snap == loop_snap
        assert bulk.percentile(99.9) == loop.percentile(99.9)

    def test_observe_many_respects_max_samples(self):
        from repro.telemetry.registry import MetricsRegistry

        histogram = MetricsRegistry().histogram("h", max_samples=10)
        histogram.observe_many(np.arange(25, dtype=float))
        assert histogram.count == 25
        assert histogram.truncated
        assert histogram.percentile(100) == 9.0  # retained prefix only
