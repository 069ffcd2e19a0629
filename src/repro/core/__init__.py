"""ABM-SpConv core: the paper's primary contribution.

- :mod:`~repro.core.abm` — the accumulate-before-multiply factored
  convolution (Equation 2), bit-exact against its literal reference loop.
- :mod:`~repro.core.encoding` — the index-based sparse weight encoding
  (WT-Buffer + Q-Table, Figure 4).
- :mod:`~repro.core.opcount` — operation-count analysis of SDConv / FDConv /
  SpConv / ABM-SpConv (Table 1).
- :mod:`~repro.core.specs` — analytic layer dimension records.
- :mod:`~repro.core.schemes` — scheme taxonomy, computational roofs
  (Figure 1), and the :class:`SchemeModel` registry behind per-layer
  heterogeneous execution.
- :mod:`~repro.core.model_plan` — whole-network fused streaming execution
  (conv/FC + epilogue stages over ping-pong activation buffers).
"""

from .abm import (
    ABMConvBatchResult,
    ABMConvResult,
    ConvGeometry,
    abm_conv2d,
    abm_conv2d_batch,
    abm_conv2d_reference,
)
from .encoding import (
    EncodedKernel,
    EncodedLayer,
    EncodingError,
    QTableEntry,
    decode_kernel,
    decode_layer,
    encode_kernel,
    encode_layer,
    encoded_model_bytes,
    pack_index,
    unpack_index,
)
from .plan import (
    ExactnessError,
    LayerPlan,
    compile_layer_plan,
)
from .model_plan import (
    ModelPlan,
    compile_model_plan,
)
from .opcount import (
    FDCONV_REDUCTION,
    LayerOpCounts,
    ModelOpCounts,
    analytic_layer_counts,
    analytic_model_counts,
    expected_distinct_values,
    measured_layer_counts,
)
from .schemes import (
    ABMSchemeModel,
    ComputationalRoof,
    ConvScheme,
    SchemeModel,
    SchemeOps,
    SchemeResources,
    abm_roof,
    get_scheme_model,
    reduced_mac_roof,
    register_scheme_model,
    scheme_model_names,
    scheme_models,
    sdconv_roof,
)
from .serialize import (
    FORMAT_VERSION,
    SerializationError,
    dump_layers,
    dumps,
    load_layers,
    load_model,
    loads,
    save_model,
)
from .specs import CONV, FC, LayerSpec, conv_spec, fc_spec

__all__ = [
    "ABMConvBatchResult",
    "ABMConvResult",
    "ConvGeometry",
    "abm_conv2d",
    "abm_conv2d_batch",
    "abm_conv2d_reference",
    "EncodedKernel",
    "EncodedLayer",
    "QTableEntry",
    "EncodingError",
    "encode_kernel",
    "decode_kernel",
    "encode_layer",
    "decode_layer",
    "encoded_model_bytes",
    "pack_index",
    "unpack_index",
    "ExactnessError",
    "LayerPlan",
    "compile_layer_plan",
    "ModelPlan",
    "compile_model_plan",
    "FDCONV_REDUCTION",
    "LayerOpCounts",
    "ModelOpCounts",
    "analytic_layer_counts",
    "analytic_model_counts",
    "measured_layer_counts",
    "expected_distinct_values",
    "ComputationalRoof",
    "ConvScheme",
    "sdconv_roof",
    "reduced_mac_roof",
    "abm_roof",
    "ABMSchemeModel",
    "SchemeModel",
    "SchemeOps",
    "SchemeResources",
    "register_scheme_model",
    "get_scheme_model",
    "scheme_model_names",
    "scheme_models",
    "CONV",
    "FC",
    "LayerSpec",
    "conv_spec",
    "fc_spec",
    "FORMAT_VERSION",
    "SerializationError",
    "dump_layers",
    "load_layers",
    "dumps",
    "loads",
    "save_model",
    "load_model",
]
