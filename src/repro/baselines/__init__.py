"""Baseline convolution schemes and published accelerators.

Every scheme here is an op-count and cycle model only: the paper compares
SDConv, SpConv and FDConv with ABM by operation counts (Table 1) and
published numbers (Table 2), never by running them. Each scheme module
registers its built-in :class:`SchemeModel` (``sdconv``, ``fdconv``,
``spconv``, ``winograd2``, ``winograd4``, ``spectral``) at import, and the
registry in :mod:`repro.core.schemes` imports them on first lookup; the
``abm`` model registers with core itself.
"""
