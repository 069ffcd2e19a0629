"""Extension experiment: weight bit-width ablation.

The paper's introduction motivates ABM-SpConv with the observation that a
q-bit fixed-point weight takes at most 2^q values ("16 values for a 4-bit
number"), and evaluates at q=8. This experiment sweeps q and quantifies
the trade the architecture rides:

- fewer bits -> fewer distinct values per kernel -> fewer multiplies ->
  a larger accumulate/multiply intensity ratio -> a larger sharing factor
  N -> fewer DSPs for the same accumulator count (or more accumulators for
  the same DSPs);
- fewer bits -> larger quantization error on a real (scaled) CNN, measured
  as top-1 agreement and output MSE against the float reference.

Both halves are measured, not assumed: the statistics half on the
full-size calibrated VGG16 workload, the accuracy half by executing a
scaled AlexNet through the quantized ABM pipeline at each width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..analysis.tables import render_table
from ..dse.performance import MODE_QUANTIZED, estimate_model, share_factor_from_workloads
from ..dse.resources import estimate_dsps
from ..hw.config import AcceleratorConfig
from ..hw.workload import ModelWorkload
from ..nn.models import alexnet_architecture, get_architecture
from ..pipeline import QuantizedPipeline
from ..prune.schedules import deep_compression_schedule
from ..workloads.codebooks import codebook_size
from ..workloads.synthetic import synthetic_layer_workload


@dataclass(frozen=True)
class BitwidthPoint:
    """Statistics/architecture consequences of one weight width."""

    weight_bits: int
    multiply_mop: float
    min_intensity_ratio: float
    n_share: int
    dsps: int
    throughput_gops: float


@dataclass(frozen=True)
class AccuracyPoint:
    """Functional quality of one weight width on the scaled CNN."""

    weight_bits: int
    top1_agrees: bool
    output_mse: float


@dataclass(frozen=True)
class BitwidthResult:
    points: Tuple[BitwidthPoint, ...]
    accuracy: Tuple[AccuracyPoint, ...]

    def render(self) -> str:
        stats = render_table(
            ("bits", "mult MOP", "min Acc/Mult", "N", "DSPs", "GOP/s"),
            [
                (p.weight_bits, p.multiply_mop, p.min_intensity_ratio, p.n_share, p.dsps, p.throughput_gops)
                for p in self.points
            ],
            title="weight bit-width sweep (VGG16 statistics -> architecture)",
        )
        quality = render_table(
            ("bits", "top-1 agrees", "output MSE"),
            [(a.weight_bits, a.top1_agrees, a.output_mse) for a in self.accuracy],
            title="functional quality (scaled AlexNet, ABM pipeline vs float)",
        )
        return stats + "\n\n" + quality


def _workload_at_bits(model: str, weight_bits: int, seed: int) -> ModelWorkload:
    """Synthetic workload with codebooks clamped to the 2^q - 1 nonzero codes."""
    architecture = get_architecture(model)
    schedule = deep_compression_schedule(model)
    rng = np.random.default_rng(seed)
    max_codes = (1 << weight_bits) - 1  # nonzero codes of a q-bit format
    layers = []
    for spec in architecture.accelerated_specs():
        book = min(codebook_size(model, spec.name), max_codes)
        layers.append(
            synthetic_layer_workload(spec, schedule.density(spec.name), book, rng)
        )
    return ModelWorkload(name=f"{model}-{weight_bits}b", layers=tuple(layers))


#: The weight widths both halves of the sweep visit.
BITS: Tuple[int, ...] = (3, 4, 5, 6, 8)


def sweep_statistics(seed: int = 1) -> List[BitwidthPoint]:
    """The architecture half of the sweep, on full-size VGG16."""
    points = []
    for weight_bits in BITS:
        workload = _workload_at_bits("vgg16", weight_bits, seed)
        n_share = share_factor_from_workloads(workload.layers)
        ratios = [
            layer.accumulate_ops / layer.multiply_ops
            for layer in workload.layers
            if layer.multiply_ops
        ]
        config = AcceleratorConfig(
            n_cu=3, n_knl=14, n_share=n_share, s_ec=20, d_f=1568, freq_mhz=200.0
        )
        perf = estimate_model(workload, config, mode=MODE_QUANTIZED)
        points.append(
            BitwidthPoint(
                weight_bits=weight_bits,
                multiply_mop=workload.multiply_ops / 1e6,
                min_intensity_ratio=min(ratios),
                n_share=n_share,
                dsps=estimate_dsps(config),
                throughput_gops=perf.throughput_gops,
            )
        )
    return points


def sweep_accuracy(seed: int = 1) -> List[AccuracyPoint]:
    """The functional half: execute a scaled AlexNet at each width."""
    network_factory = alexnet_architecture()
    rng = np.random.default_rng(seed)
    points = []
    for weight_bits in BITS:
        network = network_factory.build(scale=0.1, spatial_scale=0.35, seed=seed)
        image = rng.normal(0.0, 1.0, size=network.input_shape.as_tuple())
        pipeline = QuantizedPipeline(network, weight_bits=weight_bits)
        pipeline.prune(deep_compression_schedule("alexnet").densities)
        pipeline.calibrate(image)
        pipeline.quantize()
        quantized = pipeline.run(image).output
        reference = pipeline.run_float(image)
        points.append(
            AccuracyPoint(
                weight_bits=weight_bits,
                top1_agrees=int(np.argmax(quantized)) == int(np.argmax(reference)),
                output_mse=float(np.mean((quantized - reference) ** 2)),
            )
        )
    return points


def run(seed: int = 1) -> BitwidthResult:
    """Run both halves of the bit-width ablation."""
    return BitwidthResult(
        points=tuple(sweep_statistics(seed=seed)),
        accuracy=tuple(sweep_accuracy(seed=seed)),
    )
