"""Benchmark harness configuration.

The paper's tables and figures are regenerated and checked by
``abm-spconv experiments [--only ID] [--out FILE]`` and by the tier-1
suite's bound table (``tests/test_experiments.py``), not here. These
modules time the extension studies and the host kernels, print their
rows, and assert each study's headline shape so a regression is a
failure, not just a slow run; several write a ``BENCH_*.json`` artifact.

Run one:  PYTHONPATH=src pytest benchmarks/<file> --benchmark-disable -q -s
"""

import pytest


@pytest.fixture(scope="session")
def seed() -> int:
    return 1
