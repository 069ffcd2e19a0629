"""One module per paper artifact or extension study; each exposes
``run(seed) -> <Result>`` with a ``render()`` method and, for the paper
artifacts, paper-vs-measured ``comparisons``.

:data:`EXPERIMENTS` is the one ordered registry of ``(name, title)``: the
paper artifacts in presentation order, then the extension studies. The
package imports no experiment module; :func:`render` loads each on first
use. ``abm-spconv experiments [--only ID] [--out FILE]`` prints or writes
its text.
"""

from __future__ import annotations

import importlib
from typing import Sequence

EXPERIMENTS = (
    ("table1", "Table 1 — #OP by convolution scheme"),
    ("table2", "Table 2 — comparison with state of the art"),
    ("table3", "Table 3 — design parameters & weight sizes"),
    ("fig1", "Figure 1 — roofline design spaces"),
    ("fig6", "Figure 6 — optimal N_knl"),
    ("fig7", "Figure 7 — S_ec x N_cu exploration"),
    ("utilization", "CU execution efficiency"),
    ("bitwidth", "Extension — weight bit-width sweep"),
    ("batch_bandwidth", "Extension — batch size vs bandwidth"),
    ("density_sweep", "Extension — pruning density vs throughput"),
)


def run(name: str, seed: int = 1):
    """Run the registered experiment ``name`` at workload ``seed``."""
    return importlib.import_module(f"{__name__}.{name}").run(seed=seed)


def render(names: Sequence[str], seed: int = 1) -> str:
    """Markdown for ``names``: per experiment a ``## title`` heading, its
    fenced ``render()`` output, then its fenced paper-vs-measured table."""
    from ..analysis.compare import render_comparisons

    titles = dict(EXPERIMENTS)
    parts = [f"# ABM-SpConv reproduction (workload seed {seed})", ""]
    for name in names:
        result = run(name, seed)
        parts += [f"## {titles[name]}", "", "```", result.render(), "```", ""]
        comparisons = getattr(result, "comparisons", ())
        if comparisons:
            table = render_comparisons(comparisons, title="paper vs measured")
            parts += ["```", table, "```", ""]
    return "\n".join(parts)
