"""Activity-based power/energy model.

The paper motivates FPGAs with "lower power dissipation" but reports no
power numbers; this model adds the standard activity-based estimate so the
energy side of the ABM-vs-MAC-array trade can be studied. Per-operation
energies are rough 28-nm (Stratix-V class) literature values — the *ratios*
(a DSP multiply costs several ALM adds; DDR dwarfs on-chip SRAM) are what
the conclusions rest on, and tests only assert relationships, not watts.

Energy per image = accumulates * E_acc + multiplies * E_mult
                 + on-chip buffer accesses * E_sram + DDR bytes * E_ddr;
Power = dynamic energy / time + static leakage (scaled by logic used).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .accelerator import ModelSimResult
from .config import AcceleratorConfig
from .workload import ModelWorkload

if TYPE_CHECKING:
    from .mac_array import MacArrayModelResult


@dataclass(frozen=True)
class EnergyModel:
    """Per-activity energy coefficients (Joules)."""

    accumulate_j: float = 1.5e-12  # 16-bit ALM adder toggle
    multiply_j: float = 6.0e-12  # 16x16 DSP multiply
    sram_access_j: float = 5.0e-12  # one 16-bit M20K access
    ddr_byte_j: float = 70.0e-12  # DDR3 transfer per byte
    static_w: float = 2.5  # base leakage of the powered device
    #: Buffer accesses charged per accumulate (feature read + partial write
    #: amortized over the S_ec lanes sharing one fetch).
    sram_accesses_per_op: float = 1.5

    def __post_init__(self) -> None:
        values = (
            self.accumulate_j,
            self.multiply_j,
            self.sram_access_j,
            self.ddr_byte_j,
            self.static_w,
        )
        if min(values) < 0:
            raise ValueError("energy coefficients cannot be negative")


@dataclass(frozen=True)
class PowerReport:
    """Energy/power figures for one inference workload."""

    label: str
    energy_per_image_j: float
    seconds_per_image: float
    static_w: float
    dense_ops: int

    @property
    def dynamic_power_w(self) -> float:
        return self.energy_per_image_j / self.seconds_per_image

    @property
    def total_power_w(self) -> float:
        return self.dynamic_power_w + self.static_w

    @property
    def gops_per_watt(self) -> float:
        """Efficiency on the paper's dense-op throughput basis."""
        gops = self.dense_ops / self.seconds_per_image / 1e9
        return gops / self.total_power_w

    @property
    def energy_per_image_mj(self) -> float:
        return self.energy_per_image_j * 1e3


def abm_power(
    simulation: ModelSimResult, model: EnergyModel = EnergyModel()
) -> PowerReport:
    """Power report for a simulated ABM-SpConv run."""
    acc_ops = sum(l.accumulate_ops / l.images for l in simulation.layers)
    mult_ops = sum(l.multiply_ops / l.images for l in simulation.layers)
    ddr_bytes = sum(l.memory_bytes / l.images for l in simulation.layers)
    energy = (
        acc_ops * model.accumulate_j
        + mult_ops * model.multiply_j
        + acc_ops * model.sram_accesses_per_op * model.sram_access_j
        + ddr_bytes * model.ddr_byte_j
    )
    return PowerReport(
        label=f"abm-spconv/{simulation.model}",
        energy_per_image_j=energy,
        seconds_per_image=simulation.seconds_per_image,
        static_w=model.static_w,
        dense_ops=simulation.dense_ops,
    )


def analytic_ddr_bytes(workload: ModelWorkload, config: AcceleratorConfig) -> float:
    """Per-image DDR bytes of the bandwidth model's prefetch-window plan.

    Depends only on the ``(d_f, s_ec)`` geometry of the configuration.
    """
    from ..dse.bandwidth import layer_traffic  # local: dse sits above hw

    return sum(layer_traffic(layer, config).total_bytes for layer in workload.layers)


def dynamic_energy_per_image(
    workload: ModelWorkload, ddr_bytes: float, model: EnergyModel = EnergyModel()
) -> float:
    """Per-image dynamic energy from the workload's op counts and DDR bytes."""
    acc_ops = workload.accumulate_ops
    mult_ops = workload.multiply_ops
    return (
        acc_ops * model.accumulate_j
        + mult_ops * model.multiply_j
        + acc_ops * model.sram_accesses_per_op * model.sram_access_j
        + ddr_bytes * model.ddr_byte_j
    )


def analytic_energy_per_image(
    workload: ModelWorkload,
    config: AcceleratorConfig,
    model: EnergyModel = EnergyModel(),
) -> float:
    """Per-image dynamic energy of a workload/configuration pair.

    Same activity accounting as :func:`abm_power`, but fed from the
    analytic models instead of a simulation: operation counts come from
    the workload statistics and DDR traffic from the bandwidth model's
    prefetch-window plan (:func:`analytic_ddr_bytes`). The result depends
    only on the ``(d_f, s_ec)`` geometry of the configuration — which is
    what lets the compiled DSE grid
    (:meth:`repro.dse.compiled.CompiledWorkload.evaluate_grid`) keep one
    DDR-byte figure per ``(d_f, S_ec)`` column and stay float-identical to
    this per-point path.
    """
    return dynamic_energy_per_image(
        workload, analytic_ddr_bytes(workload, config), model
    )


def abm_power_analytic(
    workload: ModelWorkload,
    config: AcceleratorConfig,
    seconds_per_image: float,
    model: EnergyModel = EnergyModel(),
) -> PowerReport:
    """Power report for an analytically-modelled (unsimulated) design point.

    ``seconds_per_image`` comes from the performance model (cycles at the
    configured clock); energy from :func:`analytic_energy_per_image`.
    """
    return PowerReport(
        label=f"abm-spconv/{workload.name}",
        energy_per_image_j=analytic_energy_per_image(workload, config, model),
        seconds_per_image=seconds_per_image,
        static_w=model.static_w,
        dense_ops=workload.dense_ops,
    )


def mac_array_power(
    result: MacArrayModelResult,
    feature_bytes_per_image: float,
    weight_bytes_per_image: float,
    model: EnergyModel = EnergyModel(),
) -> PowerReport:
    """Power report for the dense MAC-array baseline.

    Every MAC costs one multiply, one accumulate and the same buffer
    traffic per operation; DDR moves the dense weights and features.
    """
    macs = sum(layer.macs for layer in result.layers)
    ddr_bytes = feature_bytes_per_image + weight_bytes_per_image
    energy = (
        macs * (model.multiply_j + model.accumulate_j)
        + macs * model.sram_accesses_per_op * model.sram_access_j
        + ddr_bytes * model.ddr_byte_j
    )
    return PowerReport(
        label="mac-array",
        energy_per_image_j=energy,
        seconds_per_image=result.seconds_per_image,
        static_w=model.static_w,
        dense_ops=result.dense_ops,
    )
