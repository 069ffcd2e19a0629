"""Hardware substrate: FPGA device catalog and accelerator simulator.

The simulator realizes the architecture of paper Figure 2: semi-synchronous
convolution units, each a "big" accumulator array plus a "small" shared
multiplier array, fed by the encoded weight stream, double-buffered against
DDR. It is event-driven at task granularity and cycle-approximate; a
bit-accurate :class:`~repro.hw.cu.FunctionalCU` model additionally verifies
the datapath's numerics against the reference algorithm.
"""

from .accelerator import AcceleratorSimulator, ModelSimResult
from .address_gen import AddressGenerator, FeatureAddress
from .buffers import (
    BufferRequirement,
    buffer_report,
    ft_buffer_requirement,
    qtable_requirement,
    wt_buffer_requirement,
)
from .config import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16, AcceleratorConfig
from .cu import (
    PIPELINE_FILL_CYCLES,
    TASK_LAUNCH_CYCLES,
    ConvTask,
    FunctionalCU,
    GroupCostVector,
    TaskCost,
    task_cycles,
    task_cycles_batch,
)
from .device import (
    ARRIA_10_GT1150,
    ARRIA_10_GX1150,
    STRATIX_V_GXA7,
    FPGADevice,
    available_devices,
    get_device,
)
from .fifo import Fifo, FifoOverflow, FifoUnderflow
from .mac_array import (
    MacArrayConfig,
    MacArrayLayerResult,
    MacArrayModelResult,
    mac_array_for_device,
    simulate_mac_layer,
    simulate_mac_model,
)
from .memory import ExternalMemory
from .power import EnergyModel, PowerReport, abm_power, mac_array_power
from .scheduler import (
    POLICY_BALANCED,
    POLICY_NATURAL,
    SYNC_CYCLES,
    LayerSimResult,
    build_tasks,
    compile_window_schedules,
    make_kernel_groups,
    simulate_layer,
    simulate_layer_reference,
)
from .emulation import EmulationResult, emulate_layer
from .faults import (
    CorruptionDetected,
    FaultReport,
    flip_index_bit,
    flip_value_bit,
    random_fault,
    truncate_stream,
)
from .tiling import WindowPlan, plan_layer_windows, plan_windows
from .trace import TaskEvent, TraceRecorder
from .workload import (
    LayerWorkload,
    ModelWorkload,
    workload_from_arrays,
    workload_from_encoded,
)

__all__ = [
    "AcceleratorSimulator",
    "ModelSimResult",
    "AddressGenerator",
    "FeatureAddress",
    "BufferRequirement",
    "buffer_report",
    "ft_buffer_requirement",
    "wt_buffer_requirement",
    "qtable_requirement",
    "AcceleratorConfig",
    "PAPER_CONFIG_ALEXNET",
    "PAPER_CONFIG_VGG16",
    "ConvTask",
    "TaskCost",
    "GroupCostVector",
    "task_cycles",
    "task_cycles_batch",
    "FunctionalCU",
    "TASK_LAUNCH_CYCLES",
    "PIPELINE_FILL_CYCLES",
    "FPGADevice",
    "STRATIX_V_GXA7",
    "ARRIA_10_GX1150",
    "ARRIA_10_GT1150",
    "available_devices",
    "get_device",
    "Fifo",
    "FifoOverflow",
    "FifoUnderflow",
    "MacArrayConfig",
    "MacArrayLayerResult",
    "MacArrayModelResult",
    "mac_array_for_device",
    "simulate_mac_layer",
    "simulate_mac_model",
    "ExternalMemory",
    "EnergyModel",
    "PowerReport",
    "abm_power",
    "mac_array_power",
    "LayerSimResult",
    "simulate_layer",
    "simulate_layer_reference",
    "compile_window_schedules",
    "build_tasks",
    "make_kernel_groups",
    "POLICY_NATURAL",
    "POLICY_BALANCED",
    "SYNC_CYCLES",
    "WindowPlan",
    "plan_windows",
    "plan_layer_windows",
    "TraceRecorder",
    "TaskEvent",
    "EmulationResult",
    "emulate_layer",
    "CorruptionDetected",
    "FaultReport",
    "flip_index_bit",
    "flip_value_bit",
    "truncate_stream",
    "random_fault",
    "LayerWorkload",
    "ModelWorkload",
    "workload_from_arrays",
    "workload_from_encoded",
]
