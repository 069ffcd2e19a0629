"""Benchmark: batched multi-accelerator serving throughput.

Serves one saturated burst of requests through the event-driven engine
(windows batching) on pools of 1 and 2 simulated accelerator instances of
a real deployment's timing profile and reports the aggregate simulated
GOP/s of each pool. The headline assertion is the
scaling law the serving runtime exists for: with a saturated queue,
doubling the accelerator pool must scale aggregate throughput by at
least 1.8x (the batcher and dispatcher add no serial bottleneck).

Quick mode for CI: set ``REPRO_BENCH_QUICK=1`` to shrink the request
burst; run with ``--benchmark-disable`` to execute once without timing
loops.
"""

import os

import numpy as np
import pytest

from repro.nn.models import (
    Architecture,
    ConvDef,
    FCDef,
    FlattenDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)
from repro.pipeline import QuantizedPipeline
from repro.prune import uniform_schedule
from repro.runtime import SystemRuntime
from repro.serve import (
    BatchPolicy,
    EventDrivenSimulator,
    LoadTrace,
    ServiceProfile,
)
from repro.workloads.images import natural_image

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "")
REQUESTS = 16 if QUICK else 64
MAX_BATCH = 8


def _serving_architecture() -> Architecture:
    """A small but complete CNN, deployed for its timing profile."""
    return Architecture(
        name="servenet",
        input_channels=3,
        input_rows=16,
        input_cols=16,
        defs=[
            ConvDef("conv1", 8, kernel=3, padding=1),
            ReLUDef("relu1"),
            PoolDef("pool1", kernel=2, stride=2),
            ConvDef("conv2", 12, kernel=3, padding=1),
            ReLUDef("relu2"),
            PoolDef("pool2", kernel=2, stride=2),
            FlattenDef("flatten"),
            FCDef("fc3", 20),
            ReLUDef("relu3"),
            FCDef("fc4", 10, scale_output=False),
            SoftmaxDef("prob"),
        ],
    )


@pytest.fixture(scope="module")
def serving_setup(seed):
    architecture = _serving_architecture()
    network = architecture.build(seed=seed)
    rng = np.random.default_rng(seed)
    shape = network.input_shape.as_tuple()
    pipeline = QuantizedPipeline(network)
    names = [layer.name for layer in network.accelerated_layers()]
    pipeline.prune(uniform_schedule(names, 0.4).densities)
    pipeline.calibrate(natural_image(shape, rng))
    pipeline.quantize()
    runtime = SystemRuntime.from_pipeline(
        pipeline, architecture.accelerated_specs()
    )
    return ServiceProfile.from_runtime(runtime)


def test_bench_serving_scaling(benchmark, serving_setup):
    profile = serving_setup
    policy = BatchPolicy(max_batch=MAX_BATCH, max_wait_s=0.0)
    # A burst at t=0 keeps every worker saturated, so the pool's scaling
    # is the dispatcher's, not the arrival process's.
    burst = LoadTrace("burst", np.zeros(REQUESTS), np.zeros(REQUESTS))

    def run_scaling():
        return {
            workers: EventDrivenSimulator(
                profile, policy, instances=workers
            ).run_trace(burst)
            for workers in (1, 2)
        }

    reports = benchmark(run_scaling)
    print()
    for workers, report in reports.items():
        stats = report.stats
        print(
            f"  {workers} worker(s): {stats.count} reqs in "
            f"{stats.batch_count} batches  "
            f"makespan {stats.makespan_s * 1e3:7.3f} ms  "
            f"p95 {stats.p95_latency_s * 1e3:7.3f} ms  "
            f"{stats.aggregate_gops:6.1f} GOP/s aggregate"
        )
    scaling = (
        reports[2].stats.aggregate_gops / reports[1].stats.aggregate_gops
    )
    print(f"  scaling 1 -> 2 workers: {scaling:.2f}x")
    # Dynamic batcher never overfills a batch.
    for report in reports.values():
        assert all(batch.size <= MAX_BATCH for batch in report.batches)
    # The headline: near-linear multi-accelerator scaling under saturation.
    assert scaling >= 1.8
