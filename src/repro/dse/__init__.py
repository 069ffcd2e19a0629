"""Design space exploration: performance / bandwidth / resource models.

Implements the paper's Section 5: the three estimation models, the
constant-calibration stage (with a synthetic stand-in for the FPGA
compiler), the roofline view of Figure 1 and the exploration flow of
Figures 5-7.
"""

from .bandwidth import BandwidthReport, LayerTraffic, bandwidth_report, layer_traffic
from .calibration import (
    CompileSample,
    SyntheticCompiler,
    characterization_suite,
    fit_constants,
)
from .compiled import (
    CompiledWorkload,
    GridEvaluation,
    compile_workload,
    steps_total_closed_form,
)
from .explorer import (
    BufferSizing,
    ExplorationResult,
    GridPoint,
    NknlPoint,
    best_candidates,
    explore,
    optimal_nknl,
    size_buffers,
    sweep_nknl,
    sweep_sec_ncu,
)
from .frequency import (
    DEFAULT_FREQUENCY_MODEL,
    FrequencyModel,
    RefinedPoint,
    refine_with_frequency,
)
from .multi import (
    JointExplorationResult,
    JointPoint,
    co_deployment_objectives,
    explore_joint,
)
from .pareto import (
    FrontierSummary,
    nondominated_mask,
    pareto_frontier,
    pareto_frontier_reference,
)
from .performance import (
    MODE_IDEAL,
    MODE_QUANTIZED,
    LayerPerformance,
    ModelPerformance,
    estimate_layer,
    estimate_model,
    share_factor_from_workloads,
)
from .resources import (
    DEFAULT_RESOURCE_MODEL,
    ResourceEstimate,
    ResourceModel,
    ResourceUtilization,
    next_power_of_two,
)
from .roofline import DesignPoint, RooflineModel
from .sensitivity import (
    SensitivityEntry,
    SensitivityResult,
    resource_sensitivity,
)

# The joint-space search sits above everything else in this package (and
# repro.hw.power reaches back into repro.dse.bandwidth), so these imports
# must come last to keep the import graph acyclic.
from .joint_space import (
    DEFAULT_OBJECTIVES,
    JointEvaluator,
    OBJECTIVE_DIRECTIONS,
    SearchSpace,
    default_joint_space,
    exhaustive_search,
)
from .partition import (
    PartitionSearchResult,
    ReplicationBaseline,
    replication_baseline,
    search_partitions,
)

__all__ = [
    "BandwidthReport",
    "LayerTraffic",
    "bandwidth_report",
    "layer_traffic",
    "CompileSample",
    "SyntheticCompiler",
    "characterization_suite",
    "fit_constants",
    "BufferSizing",
    "CompiledWorkload",
    "ExplorationResult",
    "GridEvaluation",
    "GridPoint",
    "NknlPoint",
    "best_candidates",
    "compile_workload",
    "explore",
    "optimal_nknl",
    "size_buffers",
    "steps_total_closed_form",
    "sweep_nknl",
    "sweep_sec_ncu",
    "MODE_IDEAL",
    "MODE_QUANTIZED",
    "LayerPerformance",
    "ModelPerformance",
    "estimate_layer",
    "estimate_model",
    "share_factor_from_workloads",
    "DEFAULT_RESOURCE_MODEL",
    "ResourceEstimate",
    "ResourceModel",
    "ResourceUtilization",
    "next_power_of_two",
    "DesignPoint",
    "RooflineModel",
    "FrequencyModel",
    "DEFAULT_FREQUENCY_MODEL",
    "RefinedPoint",
    "refine_with_frequency",
    "SensitivityEntry",
    "SensitivityResult",
    "resource_sensitivity",
    "FrontierSummary",
    "pareto_frontier",
    "pareto_frontier_reference",
    "JointExplorationResult",
    "JointPoint",
    "co_deployment_objectives",
    "explore_joint",
    "nondominated_mask",
    "SearchSpace",
    "DEFAULT_OBJECTIVES",
    "JointEvaluator",
    "OBJECTIVE_DIRECTIONS",
    "default_joint_space",
    "exhaustive_search",
    "PartitionSearchResult",
    "ReplicationBaseline",
    "replication_baseline",
    "search_partitions",
]
