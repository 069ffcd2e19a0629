"""Differential tests: batched serving vs sequential inference.

The serving runtime's core guarantee is that batching and sharding are
*timing-only* transformations — every request's output must be bit-exact
identical to running the same image through ``SystemRuntime.infer``
sequentially. Requests are grouped by :func:`form_batches`, dispatched by
:func:`dispatch_batches`, and each batch runs in one
``SystemRuntime.infer_batch`` pass on its instance's runtime. A fixed
image set pins this directly, and a property-based sweep checks it over
random batch sizes, worker counts and arrival patterns.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    ServeRequest,
    ServiceProfile,
    dispatch_batches,
    form_batches,
)
from repro.workloads.images import natural_image

IMAGE_COUNT = 8


def _architecture() -> Architecture:
    return Architecture(
        name="difftiny",
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


@functools.lru_cache(maxsize=1)
def _context():
    """(reference runtime, images, sequential outcomes) built once.

    A plain memoized helper rather than a pytest fixture so the
    hypothesis test can reuse it across examples without fixture-scope
    health-check noise.
    """
    architecture = _architecture()
    network = architecture.build(seed=21)
    rng = np.random.default_rng(2024)
    shape = network.input_shape.as_tuple()
    names = [layer.name for layer in network.accelerated_layers()]
    pipeline = QuantizedPipeline(network)
    pipeline.prune(uniform_schedule(names, 0.4).densities)
    pipeline.calibrate(natural_image(shape, rng))
    pipeline.quantize()
    specs = architecture.accelerated_specs()
    images = tuple(natural_image(shape, rng) for _ in range(IMAGE_COUNT))
    reference = SystemRuntime.from_pipeline(pipeline, specs)
    sequential = tuple(reference.infer(image) for image in images)
    return reference, images, sequential


def _serve(arrivals, policy, workers):
    """Batch, dispatch and run every request: (outcomes by id, dispatches).

    Each instance is its own ``SystemRuntime`` over the shared deployment.
    """
    reference, images, _ = _context()
    runtimes = [
        SystemRuntime(reference.pipeline, reference.deployed)
        for _ in range(workers)
    ]
    requests = [ServeRequest(i, float(t)) for i, t in enumerate(arrivals)]
    dispatched = dispatch_batches(
        form_batches(requests, policy),
        ServiceProfile.from_runtime(reference),
        workers,
    )
    outcomes = {}
    for d in dispatched:
        batch = d.batch.requests
        results = runtimes[d.worker_id].infer_batch(
            [images[r.request_id] for r in batch]
        )
        for request, result in zip(batch, results):
            assert request.request_id not in outcomes
            outcomes[request.request_id] = result
    return outcomes, dispatched


class TestDifferentialFixedSet:
    """Fixed image set, fixed serving shape: exact equality, verified."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        policy = BatchPolicy(max_batch=3, max_wait_s=1e-4)
        outcomes, _ = _serve([0.0] * IMAGE_COUNT, policy, workers=2)
        return outcomes

    def test_outputs_bit_exact(self, outcomes):
        _, _, sequential = _context()
        for request_id, outcome in enumerate(sequential):
            assert np.array_equal(outcomes[request_id].output, outcome.output)

    def test_top1_identical(self, outcomes):
        _, _, sequential = _context()
        for request_id, outcome in enumerate(sequential):
            assert outcomes[request_id].top1 == outcome.top1

    def test_all_requests_answered_once(self, outcomes):
        assert sorted(outcomes) == list(range(IMAGE_COUNT))

    def test_batched_makespan_beats_sequential(self):
        """Batching + 2 workers must outrun one-at-a-time service.

        Uses a zero-wait policy so the comparison is about pipelining and
        sharding, not the latency the batcher deliberately trades away.
        """
        reference, images, _ = _context()
        policy = BatchPolicy(max_batch=3, max_wait_s=0.0)
        _, dispatched = _serve([0.0] * len(images), policy, workers=2)
        makespan = max(d.finish_s for d in dispatched)
        profile = ServiceProfile.from_runtime(reference)
        sequential_span = profile.batch_seconds(1) * len(images)
        assert makespan < sequential_span


class TestDifferentialProperty:
    """Bit-exactness holds for every serving shape, not one lucky one."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        max_batch=st.integers(min_value=1, max_value=6),
        workers=st.integers(min_value=1, max_value=3),
        max_wait_us=st.integers(min_value=0, max_value=200),
        arrival_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_shape_matches_sequential(
        self, max_batch, workers, max_wait_us, arrival_seed
    ):
        _, images, sequential = _context()
        rng = np.random.default_rng(arrival_seed)
        arrivals = np.sort(rng.uniform(0.0, 2e-4, size=len(images)))
        policy = BatchPolicy(max_batch=max_batch, max_wait_s=max_wait_us * 1e-6)
        outcomes, dispatched = _serve(arrivals, policy, workers)
        assert sorted(outcomes) == list(range(len(images)))
        for request_id, outcome in enumerate(sequential):
            assert np.array_equal(outcomes[request_id].output, outcome.output)
            assert outcomes[request_id].top1 == outcome.top1
        assert all(d.batch.size <= max_batch for d in dispatched)
