"""Tests for execution tracing and fault injection."""

import numpy as np
import pytest

from repro.core.abm import ConvGeometry, abm_conv2d_batch
from repro.core.encoding import encode_layer
from repro.core.specs import conv_spec
from repro.hw.config import AcceleratorConfig
from repro.hw.faults import (
    CorruptionDetected,
    flip_index_bit,
    flip_value_bit,
    random_fault,
    truncate_stream,
)
from repro.hw.memory import ExternalMemory
from repro.hw.scheduler import simulate_layer
from repro.hw.trace import TraceRecorder
from repro.hw.workload import workload_from_arrays
from tests.conftest import sparse_weight_codes


@pytest.fixture
def traced_run(rng):
    spec = conv_spec("c", 16, 12, kernel=3, in_rows=12, in_cols=12, padding=1)
    nonzeros = rng.integers(20, 120, size=12)
    distinct = np.minimum(rng.integers(2, 12, size=12), nonzeros)
    workload = workload_from_arrays(spec, nonzeros, distinct)
    config = AcceleratorConfig(n_cu=3, n_knl=4, n_share=4, s_ec=8, d_f=512)
    trace = TraceRecorder()
    result = simulate_layer(
        workload, config, ExternalMemory(12.8, config.freq_mhz), trace=trace
    )
    return workload, config, trace, result


class TestTrace:
    def test_one_event_per_task(self, traced_run):
        _, _, trace, result = traced_run
        assert len(trace.events) == result.tasks

    def test_no_overlap_per_cu(self, traced_run):
        _, _, trace, _ = traced_run
        trace.verify_no_overlap()

    def test_busy_cycles_match_result(self, traced_run):
        _, config, trace, result = traced_run
        by_cu = trace.by_cu()
        for cu in range(config.n_cu):
            busy = sum(event.cycles for event in by_cu.get(cu, []))
            assert busy == result.cu_busy_cycles[cu]

    def test_makespan_matches_cycles(self, traced_run):
        _, _, trace, result = traced_run
        assert max(event.end for event in trace.events) == result.cycles

    def test_double_buffer_invariant(self, traced_run):
        """At most two prefetch windows in flight (ping-pong buffer)."""
        _, _, trace, _ = traced_run
        assert 1 <= trace.windows_in_flight() <= 2

    def test_event_validation(self):
        from repro.hw.trace import TaskEvent

        with pytest.raises(ValueError):
            TaskEvent("l", 0, 0, cu=0, start=10, end=5)

    def test_empty_trace(self):
        trace = TraceRecorder()
        assert trace.by_cu() == {}
        assert trace.windows_in_flight() == 0
        trace.verify_no_overlap()


class TestFaults:
    @pytest.fixture
    def layer_and_features(self, rng):
        weights = sparse_weight_codes(rng, shape=(4, 6, 3, 3), density=0.5)
        encoded = encode_layer("t", weights)
        features = rng.integers(-32, 32, size=(6, 8, 8))
        return encoded, features

    def test_value_flip_blast_radius_is_one_kernel(self, layer_and_features):
        """A Q-Table VAL flip corrupts only its kernel's output channel."""
        encoded, features = layer_and_features
        geometry = ConvGeometry(kernel=3, padding=1)
        clean = abm_conv2d_batch(features[None], encoded, geometry).output[0]
        corrupted = flip_value_bit(encoded, kernel_index=1, entry_index=0, bit=3)
        dirty = abm_conv2d_batch(features[None], corrupted, geometry).output[0]
        changed = [m for m in range(4) if not np.array_equal(clean[m], dirty[m])]
        assert changed == [1]

    def test_index_flip_perturbs_output(self, layer_and_features):
        encoded, features = layer_and_features
        geometry = ConvGeometry(kernel=3, padding=1)
        clean = abm_conv2d_batch(features[None], encoded, geometry)
        corrupted = flip_index_bit(encoded, kernel_index=0, entry_index=0, bit=2)
        dirty = abm_conv2d_batch(features[None], corrupted, geometry)
        assert dirty.output.shape == clean.output.shape
        assert not np.array_equal(clean.output, dirty.output)
        # The op counts are unchanged — corruption is silent at that level.
        assert dirty.accumulate_ops == clean.accumulate_ops
        assert dirty.multiply_ops == clean.multiply_ops

    def test_truncation_is_detected(self, layer_and_features):
        """Structural corruption must raise, never decode silently."""
        encoded, _ = layer_and_features
        with pytest.raises(CorruptionDetected):
            truncate_stream(encoded, kernel_index=0, drop_entries=1)

    def test_unclamped_index_flip_leaving_kernel_is_detected(self, layer_and_features):
        """Without clamping, a flip past the kernel's N*K*K weights must be
        caught where the corrupted stream is built, not in a consumer."""
        encoded, _ = layer_and_features
        assert encoded.kernel_width == 54
        with pytest.raises(CorruptionDetected, match="outside the kernel"):
            flip_index_bit(encoded, kernel_index=0, entry_index=0, bit=15, clamp_to_kernel=False)

    def test_unclamped_index_flip_inside_kernel_decodes(self, layer_and_features):
        encoded, _ = layer_and_features
        original = int(encoded.indices[0])
        bit = next(b for b in range(6) if original ^ (1 << b) < encoded.kernel_width)
        corrupted = flip_index_bit(encoded, 0, 0, bit=bit, clamp_to_kernel=False)
        assert int(corrupted.indices[0]) == original ^ (1 << bit)

    def test_random_fault_reproducible(self, layer_and_features):
        encoded, _ = layer_and_features
        a, report_a = random_fault(encoded, np.random.default_rng(3))
        b, report_b = random_fault(encoded, np.random.default_rng(3))
        assert report_a == report_b

    def test_fault_validation(self, layer_and_features):
        encoded, _ = layer_and_features
        with pytest.raises(ValueError):
            flip_index_bit(encoded, 0, 0, bit=16)
        with pytest.raises(ValueError):
            flip_value_bit(encoded, 0, 0, bit=8)
        with pytest.raises(ValueError):
            flip_index_bit(encoded, 0, entry_index=10_000, bit=0)

    def test_value_flip_never_produces_zero(self, layer_and_features):
        """Zero VALs are unencodable; the injector maps them to 1 LSB."""
        encoded, _ = layer_and_features
        kernel = encoded.kernels[0]
        for entry_index in range(len(kernel.qtable)):
            for bit in range(8):
                corrupted = flip_value_bit(encoded, 0, entry_index, bit)
                for entry in corrupted.kernels[0].qtable:
                    assert entry.value != 0
