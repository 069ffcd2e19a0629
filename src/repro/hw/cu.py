"""Convolution Unit: cycle model and functional datapath model.

A CU (paper Figure 2-b) holds ``n_knl`` kernel engines. Each engine owns
``s_ec`` 16-bit accumulator lanes fed by the shared feature stream, and
every ``n_share`` lanes deposit their partial sums into a FIFO drained by
one shared multiplier in round-robin order.

Two views are provided:

- :func:`task_cycles` — the timing model used by the scheduler. Within a
  task the engines run in lockstep on the same feature window, so the task
  takes as long as its *slowest* engine; faster engines idle, which is
  exactly the workload-imbalance effect the paper's semi-synchronous CU
  scheduling confines to within one task.
- :class:`FunctionalCU` — a bit-accurate datapath emulation (address
  generator -> accumulators -> FIFO -> multiplier -> sum/round) used by the
  test suite to show the hardware dataflow computes the same numbers as
  :func:`repro.core.abm.abm_conv2d_batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.encoding import EncodedKernel
from ..quant.fixed_point import QFormat
from .address_gen import AddressGenerator
from .config import AcceleratorConfig
from .fifo import Fifo

#: Cycles to launch a task on a CU (scheduler handshake + counter setup).
TASK_LAUNCH_CYCLES = 12
#: Cycles to fill/drain the accumulate->multiply pipeline once per task.
PIPELINE_FILL_CYCLES = 16


@dataclass(frozen=True)
class ConvTask:
    """A unit of scheduling: one kernel group on one prefetch window."""

    layer: str
    window_index: int
    group_index: int
    #: Per-kernel nonzero counts of the group (length <= n_knl).
    nonzeros: Tuple[int, ...]
    #: Per-kernel distinct-value counts of the group.
    distinct: Tuple[int, ...]
    #: Output pixels the window covers (per kernel).
    window_pixels: int

    def __post_init__(self) -> None:
        if len(self.nonzeros) != len(self.distinct):
            raise ValueError("nonzeros and distinct must have equal length")
        if not self.nonzeros:
            raise ValueError("a task needs at least one kernel")
        if self.window_pixels < 1:
            raise ValueError("window must cover at least one output pixel")


@dataclass(frozen=True)
class TaskCost:
    """Timing result of one task on one CU."""

    cycles: int
    #: Sum over engines of their busy (non-idle) cycles.
    engine_busy_cycles: int
    #: Engine-cycles available: engines * compute cycles.
    engine_cycle_capacity: int
    accumulate_ops: int
    multiply_ops: int


def task_cycles(task: ConvTask, config: AcceleratorConfig) -> TaskCost:
    """Timing model of one task (see module docstring).

    Per engine, the accumulate stage needs ``nnz * steps`` cycles (one
    decoded weight index per cycle, ``s_ec`` lanes in parallel) and the
    multiply stage needs ``distinct * n_share * steps`` cycles (each value
    group leaves ``s_ec`` partial sums, drained ``1/n_share`` per cycle per
    multiplier). The stages are FIFO-pipelined, so an engine is bound by
    the slower stage; the task is bound by the slowest engine.
    """
    steps = math.ceil(task.window_pixels / config.s_ec)
    engine_cycles = []
    busy = 0
    for nnz, q in zip(task.nonzeros, task.distinct):
        acc = nnz * steps
        mult = q * config.n_share * steps
        cycles = max(acc, mult)
        engine_cycles.append(cycles)
        busy += cycles
    compute = max(engine_cycles)
    total = compute + TASK_LAUNCH_CYCLES + PIPELINE_FILL_CYCLES
    acc_ops = sum(n for n in task.nonzeros) * task.window_pixels
    mult_ops = sum(q for q in task.distinct) * task.window_pixels
    return TaskCost(
        cycles=total,
        engine_busy_cycles=busy,
        engine_cycle_capacity=config.n_knl * compute,
        accumulate_ops=acc_ops,
        multiply_ops=mult_ops,
    )


class FunctionalCU:
    """Bit-accurate emulation of one kernel engine's datapath.

    Executes one encoded kernel over a feature window through the real
    pipeline stages: the address generator decodes the WT-Buffer stream,
    the accumulator array forms per-value partial sums, the partial-sum
    FIFO hands them to the shared multiplier, and the Sum/Round stage
    applies the single final rounding (paper: "Rounding is performed only
    once before writing feature map data back to main memory").
    """

    def __init__(self, config: AcceleratorConfig, kernel_size: int, stride: int = 1):
        self.config = config
        self.address_gen = AddressGenerator(kernel_size, stride)
        self.fifo = Fifo(depth=max(2 * config.n_share, 4))

    def run_kernel(
        self,
        encoded: EncodedKernel,
        padded_features: np.ndarray,
        out_positions: Sequence[Tuple[int, int]],
        bias: int = 0,
    ) -> List[int]:
        """Compute the (unrounded, 32-bit-accumulated) outputs of one kernel."""
        outputs = []
        for out_row, out_col in out_positions:
            values, groups = self.address_gen.gather(
                encoded, padded_features, out_row, out_col
            )
            total = bias
            for group, (weight_value, _) in enumerate(encoded.value_groups()):
                # Accumulator array: sum every feature word of this group.
                partial = int(values[groups == group].sum())
                # Partial sums traverse the FIFO to the shared multiplier.
                self.fifo.push(group, partial)
                tag, fifo_partial = self.fifo.pop()
                assert tag == group
                # Multiplier + final accumulation (Sum logic).
                total += weight_value * fifo_partial
            outputs.append(total)
        return outputs

    @staticmethod
    def round_output(value: int, source_fmt: QFormat, target_fmt: QFormat) -> int:
        """Sum/Round stage: rescale a datapath word to the feature format."""
        real = value * source_fmt.scale
        return int(target_fmt.quantize(real)[()])
