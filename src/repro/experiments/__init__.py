"""One module per paper artifact; each exposes ``run() -> <Result>``.

- :mod:`~repro.experiments.table1` — #OP by convolution scheme (Table 1)
- :mod:`~repro.experiments.table2` — state-of-the-art comparison (Table 2)
- :mod:`~repro.experiments.table3` — design parameters & weight sizes (Table 3)
- :mod:`~repro.experiments.fig1` — roofline design spaces (Figure 1)
- :mod:`~repro.experiments.fig6` — optimal N_knl sweep (Figure 6)
- :mod:`~repro.experiments.fig7` — S_ec x N_cu exploration (Figure 7)
- :mod:`~repro.experiments.utilization` — CU execution efficiency (Sec. 6-7)
"""
