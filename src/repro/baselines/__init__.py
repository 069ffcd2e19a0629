"""Published accelerators the paper compares against (Table 2).

The paper compares SDConv, SpConv and FDConv with ABM by operation counts
(Table 1, :mod:`repro.core.opcount`), by computational roofs (Figure 1,
:mod:`repro.core.schemes`) and by published numbers (:mod:`.published`),
never by running them.
"""
