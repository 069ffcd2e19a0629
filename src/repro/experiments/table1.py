"""Experiment: paper Table 1 — #OP of the four convolution schemes on VGG16.

Regenerates, for the layers the paper prints and for the entire CNN, the
operation counts of SDConv, FDConv [3], SpConv [7] and ABM-SpConv
(accumulates and multiplies separately, plus the Acc./Mult. intensity
ratio), and the '#OP Saved' totals row.

The measured side comes from the calibrated synthetic pruned/quantized
model (sampled per-kernel statistics); see
:mod:`repro.workloads.codebooks` for how the distinct-value calibration
was derived from this very table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.compare import Comparison
from ..analysis.tables import render_table
from ..core.opcount import (
    FDCONV_REDUCTION,
    LayerOpCounts,
    ModelOpCounts,
    measured_layer_counts,
)
from ..hw.workload import ModelWorkload
from ..workloads.paper_targets import TABLE1_ROWS, TABLE1_SAVINGS, TABLE1_TOTALS
from ..workloads.synthetic import synthetic_model_workload


@dataclass(frozen=True)
class Table1Result:
    """Regenerated Table 1."""

    counts: ModelOpCounts
    comparisons: Tuple[Comparison, ...]

    def layer(self, name: str) -> LayerOpCounts:
        for layer in self.counts.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer {name!r} in Table 1 result")

    def render(self) -> str:
        rows = []
        for layer in self.counts.layers:
            rows.append(
                (
                    layer.name,
                    layer.sdconv_ops / 1e6,
                    layer.fdconv_ops / 1e6,
                    layer.spconv_ops / 1e6,
                    layer.abm_accumulates / 1e6,
                    layer.abm_multiplies / 1e6,
                    layer.acc_to_mult_ratio,
                )
            )
        totals = self.counts
        rows.append(
            (
                "Entire CNN",
                totals.sdconv_ops / 1e6,
                totals.fdconv_ops / 1e6,
                totals.spconv_ops / 1e6,
                totals.abm_accumulates / 1e6,
                totals.abm_multiplies / 1e6,
                totals.abm_accumulates / max(totals.abm_multiplies, 1),
            )
        )
        rows.append(
            (
                "#OP Saved",
                0.0,
                totals.saved_vs_fdconv * 100,
                totals.saved_vs_spconv * 100,
                totals.saved_vs_sdconv * 100,
                None,
                None,
            )
        )
        return render_table(
            ("layer", "SDConv MOP", "FDConv MOP", "SpConv MOP", "ABM Acc", "ABM Mult", "Acc/Mult"),
            rows,
            title="Table 1 — #OP by convolution scheme (VGG16)",
        )


def _workload_counts(workload: ModelWorkload) -> ModelOpCounts:
    layers = []
    for layer_workload in workload.layers:
        # Rebuild an encoded-layer-free measurement from the statistics.
        spec = layer_workload.spec
        layers.append(
            LayerOpCounts(
                name=spec.name,
                sdconv_ops=float(spec.dense_ops),
                fdconv_ops=spec.dense_ops
                / (FDCONV_REDUCTION if spec.kind == "conv" else 1.0),
                spconv_ops=2.0 * layer_workload.accumulate_ops,
                abm_accumulates=float(layer_workload.accumulate_ops),
                abm_multiplies=float(layer_workload.multiply_ops),
            )
        )
    return ModelOpCounts(layers=tuple(layers))


def run(seed: int = 1) -> Table1Result:
    """Regenerate Table 1 from the calibrated synthetic VGG16."""
    workload = synthetic_model_workload("vgg16", seed=seed)
    counts = _workload_counts(workload)
    comparisons: List[Comparison] = []
    for name, row in TABLE1_ROWS.items():
        layer = next(l for l in counts.layers if l.name == name)
        comparisons.extend(
            [
                Comparison("table1", f"{name}.sdconv_mop", row.sdconv_mop, layer.sdconv_ops / 1e6),
                Comparison("table1", f"{name}.spconv_mop", row.spconv_mop, layer.spconv_ops / 1e6),
                Comparison("table1", f"{name}.abm_acc_mop", row.abm_acc_mop, layer.abm_accumulates / 1e6),
                Comparison("table1", f"{name}.abm_mult_mop", row.abm_mult_mop, layer.abm_multiplies / 1e6),
                Comparison("table1", f"{name}.acc_to_mult", row.acc_to_mult, layer.acc_to_mult_ratio),
            ]
        )
    comparisons.extend(
        [
            Comparison("table1", "total.sdconv_mop", TABLE1_TOTALS["sdconv"], counts.sdconv_ops / 1e6),
            Comparison("table1", "total.fdconv_mop", TABLE1_TOTALS["fdconv"], counts.fdconv_ops / 1e6),
            Comparison("table1", "total.spconv_mop", TABLE1_TOTALS["spconv"], counts.spconv_ops / 1e6),
            Comparison(
                "table1",
                "total.abm_mop",
                TABLE1_TOTALS["abm"],
                counts.abm_accumulates / 1e6,
            ),
            Comparison("table1", "saved.vs_sdconv", TABLE1_SAVINGS["abm"], counts.saved_vs_sdconv),
            Comparison("table1", "saved.fdconv_vs_sdconv", TABLE1_SAVINGS["fdconv"], 1 - counts.fdconv_ops / counts.sdconv_ops),
            Comparison("table1", "saved.spconv_vs_sdconv", TABLE1_SAVINGS["spconv"], 1 - counts.spconv_ops / counts.sdconv_ops),
        ]
    )
    return Table1Result(counts=counts, comparisons=tuple(comparisons))


def run_measured_from_encoding(seed: int = 1) -> ModelOpCounts:
    """Table 1 counts measured from *actually encoded* synthetic tensors.

    Materializes concrete weight tensors for every VGG16 layer except the
    memory-prohibitive FC blocks, encodes them, and measures. Used by the
    test suite to show the statistics path and the encoding path agree.
    """
    import numpy as np

    from ..core.encoding import encode_layer
    from ..nn.models import get_architecture
    from ..prune.schedules import deep_compression_schedule
    from ..workloads.codebooks import codebook_size
    from ..workloads.synthetic import synthesize_quantized_layer

    architecture = get_architecture("vgg16")
    schedule = deep_compression_schedule("vgg16")
    rng = np.random.default_rng(seed)
    layers = []
    for spec in architecture.accelerated_specs():
        if spec.weight_count > 3_000_000:  # skip the giant FC tensors
            continue
        codes = synthesize_quantized_layer(
            spec,
            schedule.density(spec.name),
            codebook_size("vgg16", spec.name),
            rng,
        )
        encoded = encode_layer(spec.name, codes)
        layers.append(measured_layer_counts(spec, encoded))
    return ModelOpCounts(layers=tuple(layers))
