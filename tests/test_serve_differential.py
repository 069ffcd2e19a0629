"""Differential tests: batched serving vs sequential inference.

The serving runtime's core guarantee is that batching and sharding are
*timing-only* transformations: every request's output must be bit-exact
identical to running the same image through ``SystemRuntime.infer``
sequentially. The images are split into consecutive batches, batch k
runs on worker ``k % workers``, and each batch runs in one
``SystemRuntime.infer_batch`` pass on its worker's own runtime over the
shared deployment. A fixed split pins this directly, and a property-based
sweep checks it over every split into batches of 1-6 images on 1-3
workers. The serving engine's timing is pinned separately, against its
literal reference (``tests/test_serve_events.py``).
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
from repro.prune.schedules import uniform_schedule
from repro.runtime import SystemRuntime
from repro.serve.events import BatchPolicy, EventDrivenSimulator
from repro.serve.fleet import ServiceProfile
from repro.serve.loadgen import LoadTrace
from repro.workloads.images import natural_image

IMAGE_COUNT = 8
#: Largest batch the property sweep draws.
MAX_BATCH = 6


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


def _serve(sizes, workers):
    """Run the images as consecutive batches of ``sizes``: outcomes by id.

    Batch k runs on worker ``k % workers``, each worker its own
    ``SystemRuntime`` over the shared deployment.
    """
    reference, images, _ = _context()
    runtimes = [
        SystemRuntime(reference.pipeline, reference.deployed)
        for _ in range(workers)
    ]
    outcomes = {}
    first = 0
    for k, size in enumerate(sizes):
        ids = range(first, first + size)
        results = runtimes[k % workers].infer_batch([images[i] for i in ids])
        for request_id, result in zip(ids, results):
            assert request_id not in outcomes
            outcomes[request_id] = result
        first += size
    return outcomes


@st.composite
def _partitions(draw):
    """Sizes of consecutive batches, each 1..MAX_BATCH, covering the images."""
    sizes = []
    left = IMAGE_COUNT
    while left:
        size = draw(st.integers(min_value=1, max_value=min(MAX_BATCH, left)))
        sizes.append(size)
        left -= size
    return sizes


class TestDifferentialFixedSet:
    """Fixed image set, fixed serving shape: exact equality, verified."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        return _serve([3, 3, 2], workers=2)

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
        """Pipelined lanes on 2 instances outrun one-at-a-time service."""
        reference, images, _ = _context()
        profile = ServiceProfile.from_runtime(reference)
        n = len(images)
        report = EventDrivenSimulator(
            profile, BatchPolicy(max_batch=3), instances=2
        ).run_trace(LoadTrace("burst", np.zeros(n), np.zeros(n)))
        assert report.served == n
        assert report.makespan_s < n * profile.fill_s


class TestDifferentialProperty:
    """Bit-exactness holds for every serving shape, not one lucky one."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sizes=_partitions(), workers=st.integers(min_value=1, max_value=3))
    def test_any_shape_matches_sequential(self, sizes, workers):
        _, _, sequential = _context()
        outcomes = _serve(sizes, workers)
        assert sorted(outcomes) == list(range(IMAGE_COUNT))
        for request_id, outcome in enumerate(sequential):
            assert np.array_equal(outcomes[request_id].output, outcome.output)
            assert outcomes[request_id].top1 == outcome.top1
