"""ABM-SpConv reproduction (DAC 2019).

A from-scratch Python implementation of accumulate-before-multiply sparse
convolution, the supporting CNN / quantization / pruning substrates, an
event-driven model of the proposed FPGA accelerator, and the design-space
exploration flow — everything needed to regenerate the paper's tables and
figures on a laptop.

Subpackages
-----------
``repro.core``
    The factored convolution, sparse weight encoding and op-count analysis.
``repro.nn``
    Inference-only numpy CNN framework with AlexNet/VGG16.
``repro.quant`` / ``repro.prune``
    Dynamic fixed-point quantization and magnitude pruning.
``repro.hw``
    Event-driven accelerator simulator and FPGA device catalog.
``repro.dse``
    Performance / bandwidth / resource models and the exploration flow.
``repro.baselines``
    The published accelerators of Table 2.
``repro.workloads``
    Calibrated synthetic model and input generators.
``repro.experiments``
    One module per paper table/figure.
"""

__version__ = "1.0.0"
