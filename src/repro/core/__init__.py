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
