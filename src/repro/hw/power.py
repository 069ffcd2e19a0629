"""Activity-based power/energy model.

The paper motivates FPGAs with "lower power dissipation" but reports no
power numbers; this model adds the standard activity-based estimate so the
joint DSE search can report each design point's power. Per-operation
energies are rough 28-nm (Stratix-V class) literature values — the *ratios*
(a DSP multiply costs several ALM adds; DDR dwarfs on-chip SRAM) are what
the conclusions rest on, and tests only assert relationships, not watts.

Energy per image = accumulates * E_acc + multiplies * E_mult
                 + on-chip buffer accesses * E_sram + DDR bytes * E_ddr;
Power = dynamic energy / time + a constant static leakage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import AcceleratorConfig
from .workload import ModelWorkload


#: Per-activity energies (Joules) and the static power.
ACCUMULATE_J = 1.5e-12  # 16-bit ALM adder toggle
MULTIPLY_J = 6.0e-12  # 16x16 DSP multiply
SRAM_ACCESS_J = 5.0e-12  # one 16-bit M20K access
DDR_BYTE_J = 70.0e-12  # DDR3 transfer per byte
STATIC_W = 2.5  # base leakage of the powered device
#: Buffer accesses charged per accumulate (feature read + partial write
#: amortized over the S_ec lanes sharing one fetch).
SRAM_ACCESSES_PER_OP = 1.5


@dataclass(frozen=True)
class PowerReport:
    """Energy/power figures of one design point."""

    energy_per_image_j: float
    static_w: float
    total_power_w: float
    #: Efficiency on the paper's dense-op throughput basis.
    gops_per_watt: float


def analytic_ddr_bytes(workload: ModelWorkload, config: AcceleratorConfig) -> float:
    """Per-image DDR bytes of the bandwidth model's prefetch-window plan.

    Depends only on the ``(d_f, s_ec)`` geometry of the configuration.
    """
    from ..dse.bandwidth import layer_traffic  # local: dse sits above hw

    return sum(layer_traffic(layer, config).total_bytes for layer in workload.layers)


def dynamic_energy_per_image(workload: ModelWorkload, ddr_bytes: float) -> float:
    """Per-image dynamic energy from the workload's op counts and DDR bytes."""
    acc_ops = workload.accumulate_ops
    mult_ops = workload.multiply_ops
    return (
        acc_ops * ACCUMULATE_J
        + mult_ops * MULTIPLY_J
        + acc_ops * SRAM_ACCESSES_PER_OP * SRAM_ACCESS_J
        + ddr_bytes * DDR_BYTE_J
    )


def analytic_energy_per_image(
    workload: ModelWorkload, config: AcceleratorConfig
) -> float:
    """Per-image dynamic energy of a workload/configuration pair.

    The activity accounting of :func:`dynamic_energy_per_image`, fed from
    the analytic models: operation counts come from the workload
    statistics and DDR traffic from the bandwidth model's
    prefetch-window plan (:func:`analytic_ddr_bytes`). The result depends
    only on the ``(d_f, s_ec)`` geometry of the configuration — which is
    what lets the compiled DSE grid
    (:meth:`repro.dse.compiled.CompiledWorkload.evaluate_grid`) keep one
    DDR-byte figure per ``(d_f, S_ec)`` column and stay float-identical to
    this per-point path.
    """
    return dynamic_energy_per_image(workload, analytic_ddr_bytes(workload, config))


def abm_power_analytic(
    workload: ModelWorkload,
    config: AcceleratorConfig,
    seconds_per_image: float,
) -> PowerReport:
    """Power report for an analytically-modelled (unsimulated) design point.

    ``seconds_per_image`` comes from the performance model (cycles at the
    configured clock); energy from :func:`analytic_energy_per_image`.
    """
    energy = analytic_energy_per_image(workload, config)
    total_power_w = energy / seconds_per_image + STATIC_W
    gops = workload.dense_ops / seconds_per_image / 1e9
    return PowerReport(
        energy_per_image_j=energy,
        static_w=STATIC_W,
        total_power_w=total_power_w,
        gops_per_watt=gops / total_power_w,
    )
